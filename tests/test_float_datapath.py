"""Bit-exactness of the float64 lazy-reduction datapath (q < 2^26).

The oracles are the pure-Python kernels (``negacyclic_multiply``,
``ntt_gs``, ``intt_gs``) up to n = 8192 and the exact ``%`` uint64 kernel
(``negacyclic_multiply_np``) above that.  Operands cover the magnitudes
that stress lazy reduction: all zero, all ``q - 1``, alternating
``0 / q - 1`` and random.  The moduli span the whole datapath: Kyber's
7681 and NewHope's 12289 at n = 4..1024, the paper's 786433, 24-bit RNS
primes and the largest NTT prime below 2^26.
"""

import numpy as np
import pytest

from repro.ntt.batch import (
    FLOAT_MAX_Q,
    MAX_PASS_LOG,
    check_schedule,
    float_schedule,
)
from repro.ntt.modmath import is_prime, nth_root_of_unity
from repro.ntt.params import NttParams, modulus_for_degree, params_for_degree
from repro.ntt.naive import schoolbook_negacyclic_np
from repro.ntt.rns import RnsBasis, find_ntt_primes
from repro.ntt.transform import (
    NttEngine,
    intt_gs,
    intt_gs_np,
    negacyclic_multiply,
    negacyclic_multiply_np,
    ntt_gs,
    ntt_gs_np,
    row_slices,
)
from repro.obs import KernelProfiler

OPERANDS = ("zero", "max", "alternating", "random")


def operand(kind, q, batch, n, rng):
    if kind == "zero":
        return np.zeros((batch, n), dtype=np.uint64)
    if kind == "max":
        return np.full((batch, n), q - 1, dtype=np.uint64)
    if kind == "alternating":
        row = np.tile(np.asarray([0, q - 1], dtype=np.uint64), n // 2)
        return np.tile(row, (batch, 1))
    return rng.integers(0, q, (batch, n)).astype(np.uint64)


def engine_for_prime(n, q):
    phi = nth_root_of_unity(2 * n, q)
    return NttEngine(NttParams(n=n, q=q, bitwidth=max(16, q.bit_length()),
                               w=pow(phi, 2, q), phi=phi))


def largest_ntt_prime_below(bound, n):
    q = (bound - 2) // (2 * n) * (2 * n) + 1
    while not is_prime(q):
        q -= 2 * n
    return q


#: the hardest schedule: the largest NTT-friendly prime below 2^26
WIDE_N = 32768
WIDE_Q = largest_ntt_prime_below(FLOAT_MAX_Q, WIDE_N)

#: the paper's public-key moduli at every degree whose 2n-th roots they have
SMALL_RINGS = [(n, q) for q in (7681, 12289)
               for n in (4 << i for i in range(9)) if (q - 1) % (2 * n) == 0]


def small_engine(n, q):
    """The paper's parameter set where it pairs ``q`` with degree ``n``,
    else a ring on the least primitive 2n-th root of unity."""
    if modulus_for_degree(n) == q:
        return NttEngine(params_for_degree(n))
    return engine_for_prime(n, q)


def oracle_products(eng, a, b):
    """Negacyclic products from the pure-Python kernel (n <= 8192) or the
    exact ``%`` uint64 kernel."""
    p = eng.params
    if p.n <= 8192:
        return np.asarray([negacyclic_multiply([int(v) for v in x],
                                               [int(v) for v in y], p)
                           for x, y in zip(a, b)], dtype=np.uint64)
    return np.stack([negacyclic_multiply_np(x, y, p) for x, y in zip(a, b)])


#: every ring of the exactness sweep: the paper's moduli, Dilithium's
#: 8380417, a 20- and a 24-bit RNS prime and the widest NTT prime below
#: 2^26, at every degree from 4 to 32768 whose 2n-th roots the prime has
SWEEP = sorted({(n, q) for n in (4 << i for i in range(14))
                for q in (7681, 12289, 786433, 8380417,
                          find_ntt_primes(n, 1, bits=20)[0],
                          find_ntt_primes(n, 1, bits=24)[0],
                          largest_ntt_prime_below(FLOAT_MAX_Q, n))
                if (q - 1) % (2 * n) == 0})


def extremes(q, n):
    """Rows of all ``q - 1`` and of ``(q + 1) // 2``, the most negative
    centred residue: the largest magnitudes a canonical input has."""
    return np.stack([np.full(n, q - 1, dtype=np.uint64),
                     np.full(n, (q + 1) // 2, dtype=np.uint64)])


class TestRouting:
    def test_paper_and_rns_moduli_take_float_path(self):
        # the paper's, Dilithium's and the RNS primes all build an engine
        assert NttEngine.for_degree(4096).q < FLOAT_MAX_Q
        for q in RnsBasis.generate(1024, 3, bits=24).primes:
            assert q < FLOAT_MAX_Q
        for q in (8380417, WIDE_Q):
            assert engine_for_prime(256, q).q == q

    def test_engine_refuses_prime_above_2_26(self):
        n = 64
        q = (FLOAT_MAX_Q // (2 * n) + 1) * (2 * n) + 1
        while not is_prime(q):
            q += 2 * n
        assert q > FLOAT_MAX_Q
        with pytest.raises(ValueError, match="RnsBasis"):
            engine_for_prime(n, q)

    def test_schedule_refuses_moduli_outside_float_path(self):
        with pytest.raises(ValueError):
            float_schedule(256, 1)
        with pytest.raises(ValueError):
            float_schedule(256, FLOAT_MAX_Q)
        with pytest.raises(ValueError):
            float_schedule(256, FLOAT_MAX_Q + 1)


class TestSchedule:
    @pytest.mark.parametrize("n, q", SMALL_RINGS)
    def test_small_moduli_need_no_reduction(self, n, q):
        # no reduction inside either transform: at most two radix passes
        schedule = float_schedule(n, q)
        assert not any(schedule.forward + schedule.inverse)
        assert len(schedule.passes) <= 2

    def test_paper_modulus_reduces_between_passes(self):
        # three radix-16 passes at 4096: canonical inputs enter the first
        # unreduced, each later pass needs its input reduced
        schedule = float_schedule(4096, 786433)
        assert schedule.passes == ((0, 4), (4, 4), (8, 4))
        assert schedule.forward == (False, True, True)
        assert schedule.inverse == (False, True, True)
        assert schedule.reduce_operands == (True, True)

    def test_paper_modulus_reduces_inverse_tops_at_32768(self):
        assert any(float_schedule(32768, 786433).inverse)

    def test_widest_prime_exercises_every_reduction(self):
        schedule = float_schedule(WIDE_N, WIDE_Q)
        # radix 4 at most, a reduction before every forward pass (the
        # canonical inputs too), both pointwise operands, and before every
        # inverse pass but the radix-2 first
        assert [s for _, s in schedule.passes] == [1] + [2] * 7
        assert all(schedule.forward)
        assert schedule.reduce_operands == (True, True)
        assert schedule.inverse == (False,) + (True,) * 7

    @pytest.mark.parametrize("q", [7681, 786433, 8380417, WIDE_Q,
                                   FLOAT_MAX_Q - 1])
    def test_refuses_any_pass_past_2_52(self, q):
        # a pass on reduced inputs sums 2^s products of an entry of at most
        # q//2 and a value of at most q//2 + 1
        for s in range(1, 16):
            fits = ((q // 2) * (q // 2 + 1) << s) <= 1 << 52
            for widths in ((s,), (1, s), (s, 1)):
                n = 1 << sum(widths)
                if fits:
                    check_schedule(n, q, widths)
                else:
                    with pytest.raises(ValueError, match=r"exceeds 2\^52"):
                        check_schedule(n, q, widths)

    def test_refuses_widths_that_miss_stages(self):
        for widths in ((4, 3), (4, 5), (0, 8), ()):
            with pytest.raises(ValueError, match="do not cover"):
                check_schedule(256, 7681, widths)

    def test_picked_radix_is_the_widest_provable(self):
        for q in (7681, 8380417, WIDE_Q):
            widest = max(s for _, s in float_schedule(1024, q).passes)
            assert widest <= MAX_PASS_LOG
            if widest < MAX_PASS_LOG:
                with pytest.raises(ValueError, match=r"exceeds 2\^52"):
                    check_schedule(1 << (widest + 1), q, (widest + 1,))


class TestMultiplyExact:
    @pytest.mark.parametrize("kind", OPERANDS)
    @pytest.mark.parametrize("n, q", SMALL_RINGS)
    def test_small_moduli_against_python(self, n, q, kind, rng):
        eng = small_engine(n, q)
        a = operand(kind, q, 2, n, rng)
        b = operand("random" if kind == "zero" else kind, q, 2, n, rng)
        assert np.array_equal(eng.multiply_many(a, b),
                              oracle_products(eng, a, b))

    @pytest.mark.parametrize("kind", OPERANDS)
    @pytest.mark.parametrize("n", [2048, 4096])
    def test_paper_modulus_against_python(self, n, kind, rng):
        eng = NttEngine.for_degree(n)
        a = operand(kind, eng.q, 2, n, rng)
        b = operand("random" if kind == "zero" else kind, eng.q, 2, n, rng)
        assert np.array_equal(eng.multiply_many(a, b),
                              oracle_products(eng, a, b))

    def test_paper_modulus_at_8192_against_python(self, rng):
        eng = NttEngine.for_degree(8192)
        a = operand("random", eng.q, 1, 8192, rng)
        b = operand("max", eng.q, 1, 8192, rng)
        assert np.array_equal(eng.multiply_many(a, b),
                              oracle_products(eng, a, b))

    @pytest.mark.parametrize("kind", OPERANDS)
    @pytest.mark.parametrize("n", [16384, 32768])
    def test_paper_modulus_against_modulo_path(self, n, kind, rng):
        eng = NttEngine.for_degree(n)
        a = operand(kind, eng.q, 2, n, rng)
        b = operand("random" if kind == "zero" else kind, eng.q, 2, n, rng)
        assert np.array_equal(eng.multiply_many(a, b),
                              oracle_products(eng, a, b))

    @pytest.mark.parametrize("kind", OPERANDS)
    def test_rns_24_bit_primes(self, kind, rng):
        basis = RnsBasis.generate(1024, 3, bits=24)
        for channel in range(basis.levels):
            eng = basis.engine(channel)
            a = operand(kind, eng.q, 2, 1024, rng)
            b = operand("random" if kind == "zero" else kind, eng.q, 2,
                        1024, rng)
            assert np.array_equal(eng.multiply_many(a, b),
                                  oracle_products(eng, a, b))

    @pytest.mark.parametrize("kind", OPERANDS)
    def test_widest_prime_at_32768(self, kind, rng):
        eng = engine_for_prime(WIDE_N, WIDE_Q)
        a = operand(kind, WIDE_Q, 1, WIDE_N, rng)
        b = operand("random" if kind == "zero" else kind, WIDE_Q, 1,
                    WIDE_N, rng)
        assert np.array_equal(eng.multiply_many(a, b),
                              oracle_products(eng, a, b))


class TestTransformsExact:
    @pytest.mark.parametrize("kind", OPERANDS)
    @pytest.mark.parametrize("n, q", SMALL_RINGS)
    def test_small_moduli_forward_inverse_against_python(self, n, q, kind,
                                                         rng):
        eng = small_engine(n, q)
        a = operand(kind, q, 2, n, rng)
        forward = eng.forward_many(a)
        inverse = eng.inverse_many(a)
        for row in range(2):
            coeffs = [int(v) for v in a[row]]
            assert forward[row].tolist() == ntt_gs(coeffs, eng.params)
            assert inverse[row].tolist() == intt_gs(coeffs, eng.params)
        assert np.array_equal(eng.inverse_many(forward), a)

    @pytest.mark.parametrize("kind", OPERANDS)
    @pytest.mark.parametrize("n", [2048, 8192])
    def test_forward_inverse_against_python(self, n, kind, rng):
        eng = NttEngine.for_degree(n)
        p = eng.params
        a = operand(kind, eng.q, 1, n, rng)
        forward = eng.forward_many(a)
        assert forward[0].tolist() == ntt_gs([int(v) for v in a[0]], p)
        assert (eng.inverse_many(a)[0].tolist()
                == intt_gs([int(v) for v in a[0]], p))

    @pytest.mark.parametrize("q", [786433, WIDE_Q])
    def test_round_trip_at_32768(self, q, rng):
        eng = engine_for_prime(WIDE_N, q)
        for kind in OPERANDS:
            a = operand(kind, q, 2, WIDE_N, rng)
            assert np.array_equal(eng.inverse_many(eng.forward_many(a)), a)

    def test_unreduced_input_is_reduced(self, rng):
        eng = NttEngine.for_degree(2048)
        a = rng.integers(0, 1 << 63, (2, 2048), dtype=np.uint64)
        b = rng.integers(0, eng.q, (2, 2048), dtype=np.uint64)
        assert np.array_equal(eng.multiply_many(a, b),
                              eng.multiply_many(a % eng.q, b))


class TestExtremeOperands:
    """Every engine method at every ring of :data:`SWEEP` on the largest
    canonical magnitudes, against the pure-Python ``ntt_gs``/``intt_gs``
    (n <= 4096) or the exact ``%`` kernel (``ntt_gs_np``/``intt_gs_np``)
    and ``schoolbook_negacyclic_np`` (n <= 1024) or the exact ``%``
    product."""

    def test_sweep_covers_every_radix(self):
        widths = {s for n, q in SWEEP for _, s in float_schedule(n, q).passes}
        assert widths == set(range(1, MAX_PASS_LOG + 1))

    @pytest.mark.parametrize("n, q", SWEEP, ids=lambda v: str(v))
    def test_every_method(self, n, q):
        eng = engine_for_prime(n, q)
        p = eng.params
        x = extremes(q, n)

        def ntt(row):
            if n <= 4096:
                return np.asarray(ntt_gs([int(v) for v in row], p),
                                  dtype=np.uint64)
            return ntt_gs_np(row, p)

        def intt(row):
            if n <= 4096:
                return np.asarray(intt_gs([int(v) for v in row], p),
                                  dtype=np.uint64)
            return intt_gs_np(row, p)

        def product(a, b):
            if n <= 1024:
                return schoolbook_negacyclic_np(a, b, q)
            return negacyclic_multiply_np(a, b, p)

        qq = np.uint64(q)
        rev = eng._plan.bitrev
        phi = np.asarray(p.phi_powers(), dtype=np.uint64)
        phi_inv = np.asarray(p.phi_inv_powers(), dtype=np.uint64)
        assert np.array_equal(eng.forward_many(x), [ntt(r) for r in x])
        assert np.array_equal(eng.inverse_many(x), [intt(r) for r in x])
        assert np.array_equal(eng.to_ntt_many(x),
                              [ntt(r * phi % qq)[rev] for r in x])
        # an NTT-domain row dotted with the unit polynomial comes back
        # untransformed; a row's own hat dotted with it is its square
        unit = np.zeros((1, 1, n), dtype=np.uint64)
        unit[..., 0] = 1
        assert np.array_equal(eng.dot_many(x[:, None], unit)[0],
                              [intt(r[rev]) * phi_inv % qq for r in x])
        squares = [product(r, r) for r in x]
        assert np.array_equal(eng.multiply_many(x, x), squares)
        assert np.array_equal(
            eng.dot_many(eng.to_ntt_many(x)[:, None, None], x[:, None])[:, 0],
            squares)


class TestStageEvents:
    def test_multiply_fires_one_event_per_stage(self, rng):
        # a "stage" event is one radix pass, keyed by its lowest stage
        eng = NttEngine.for_degree(4096)
        a = operand("random", eng.q, 64, 4096, rng)
        with KernelProfiler() as prof:
            eng.multiply_many(a, a)
        stages = prof.stages(4096)
        assert sorted(stage for _, stage in stages) == [0, 4, 8]
        # the hook fires once per pass per row slice
        slices = row_slices(64, 4096)
        for cell in stages.values():
            assert cell["calls"] == 3 * slices
            assert cell["rows"] == 3 * 64
