"""NTT-domain operands: ``NttEngine.to_ntt_many`` / ``pointwise_sum`` /
``from_ntt_many``.

The three methods are ``multiply_many`` split at its transforms, so an
operand that meets many others is transformed once.  NTT-domain rows are
canonical residues in the kernel's bit-reversed order.  The oracles are the
pure-Python ``ntt_gs`` and ``schoolbook_negacyclic_np``; the moduli are
Kyber's 7681, the paper's 786433 and the largest NTT prime below 2^26,
whose all-``(q - 1)`` operands are the sum bound's worst case.
"""

import re

import numpy as np
import pytest

from repro.ntt import transform
from repro.ntt.batch import FLOAT_MAX_Q
from repro.ntt.naive import schoolbook_negacyclic_np
from repro.ntt.params import params_for_degree
from repro.ntt.transform import NttEngine, ntt_gs, row_slices

from .test_float_datapath import engine_for_prime, largest_ntt_prime_below

N = 64
#: Kyber's, the paper's HE modulus and the widest the float datapath takes
MODULI = [7681, 786433, largest_ntt_prime_below(FLOAT_MAX_Q, N)]


@pytest.fixture(params=MODULI, ids=lambda q: f"q{q}")
def engine(request):
    return engine_for_prime(N, request.param)


def block(q, shape, rng, kind="random"):
    if kind == "max":
        return np.full(shape, q - 1, dtype=np.uint64)
    return rng.integers(0, q, shape).astype(np.uint64)


class TestTransforms:
    def test_round_trip(self, engine, rng):
        a = block(engine.q, (5, N), rng)
        assert np.array_equal(engine.from_ntt_many(engine.to_ntt_many(a)), a)

    def test_rows_are_twisted_ntt_in_bit_reversed_order(self, engine, rng):
        p = engine.params
        a = block(engine.q, (3, N), rng)
        a[2] = engine.q - 1
        hat = engine.to_ntt_many(a)
        assert hat.dtype == np.uint64
        rev = engine._plan.bitrev
        for r in range(3):
            twisted = [(int(x) * f) % p.q for x, f in zip(a[r], p.phi_powers())]
            assert np.array_equal(hat[r], np.asarray(ntt_gs(twisted, p))[rev])

    def test_rows_are_row_contiguous(self, engine, rng):
        # pointwise_sum broadcasts over NTT-domain rows: C order keeps
        # each row one contiguous run
        assert engine.to_ntt_many(block(engine.q, (5, N), rng)).flags \
            .c_contiguous

    def test_inputs_reduce_mod_q(self, engine, rng):
        a = rng.integers(0, 1 << 63, (4, N), dtype=np.uint64)
        reduced = a % np.uint64(engine.q)
        assert np.array_equal(engine.to_ntt_many(a),
                              engine.to_ntt_many(reduced))
        assert np.array_equal(engine.from_ntt_many(a),
                              engine.from_ntt_many(reduced))

    def test_empty_batches(self, engine):
        empty = np.zeros((0, N), dtype=np.uint64)
        assert engine.to_ntt_many(empty).shape == (0, N)
        assert engine.from_ntt_many(empty).shape == (0, N)
        sums = engine.pointwise_sum(empty.reshape(0, 1, N),
                                    np.zeros((1, N), dtype=np.uint64))
        assert sums.shape == (0, N)


class TestPointwiseSum:
    @pytest.mark.parametrize("kind", ["random", "max"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sum_of_products(self, engine, k, kind, rng):
        q = engine.q
        count = 3
        a = block(q, (count, k, N), rng, kind)
        b = block(q, (count, k, N), rng, kind)
        got = engine.from_ntt_many(engine.pointwise_sum(
            engine.to_ntt_many(a.reshape(-1, N)).reshape(count, k, N),
            engine.to_ntt_many(b.reshape(-1, N)).reshape(count, k, N)))
        for c in range(count):
            want = np.zeros(N, dtype=object)
            for j in range(k):
                want += schoolbook_negacyclic_np(a[c, j], b[c, j], q)
            assert got[c].tolist() == (want % q).tolist()

    def test_broadcasts_a_key_against_a_batch(self, engine, rng):
        """The Kyber shape: a ``(rows, k, n)`` key against ``(count, 1, k,
        n)`` operands gives ``(count, rows, n)``."""
        q, k, rows, count = engine.q, 2, 3, 4
        key = block(q, (rows, k, N), rng)
        ops = block(q, (count, k, N), rng)
        key_hat = engine.to_ntt_many(key.reshape(-1, N)).reshape(rows, k, N)
        ops_hat = engine.to_ntt_many(ops.reshape(-1, N)).reshape(
            count, 1, k, N)
        sums = engine.pointwise_sum(key_hat, ops_hat)
        assert sums.shape == (count, rows, N) and sums.dtype == np.uint64
        assert sums.max() < q
        got = engine.from_ntt_many(sums.reshape(-1, N)).reshape(count, rows, N)
        for c in range(count):
            for i in range(rows):
                want = sum(engine.multiply(key[i, j], ops[c, j]).astype(object)
                           for j in range(k)) % q
                assert got[c, i].tolist() == want.tolist()

    def test_sum_bound_is_recorded_and_enforced(self, engine):
        bound = engine._schedule.sum_terms
        # reduced products have |r| <= q//2 + 1, so 2^27 of them fit 2^52
        assert bound >= 1 << 27
        assert bound * (engine.q // 2 + 1) <= 1 << 52
        # zero-stride views: the shape check runs before any arithmetic
        zeros = np.zeros((1, N), dtype=np.uint64)
        wide = np.broadcast_to(zeros, (bound + 1, N))
        with pytest.raises(ValueError, match="sum bound"):
            engine.pointwise_sum(wide, zeros)


class TestErrors:
    def test_wrong_degree(self, engine):
        text = re.escape(f"expected a (batch, {N}) array, got shape (2, 32)")
        wrong = np.zeros((2, 32), dtype=np.uint64)
        for call in (engine.to_ntt_many, engine.from_ntt_many):
            with pytest.raises(ValueError, match=text):
                call(wrong)
            with pytest.raises(ValueError):
                call(np.zeros(N, dtype=np.uint64))    # not a batch
        with pytest.raises(ValueError, match="operands"):
            engine.pointwise_sum(wrong, wrong)
        with pytest.raises(ValueError, match="operands"):
            engine.pointwise_sum(np.zeros(N, dtype=np.uint64),
                                 np.zeros((1, N), dtype=np.uint64))

    def test_mismatched_shapes(self, engine):
        with pytest.raises(ValueError, match="do not broadcast"):
            engine.pointwise_sum(np.zeros((3, 2, N), dtype=np.uint64),
                                 np.zeros((4, 2, N), dtype=np.uint64))
        with pytest.raises(ValueError, match="do not broadcast"):
            engine.pointwise_sum(np.zeros((2, N), dtype=np.uint64),
                                 np.zeros((3, N), dtype=np.uint64))


class TestSliced:
    """Sliced blocks equal whole ones, as for the other ``*_many``."""

    @pytest.fixture
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(transform, "_CORES", 2)
        monkeypatch.setattr(transform, "_POOL", None)
        yield
        if transform._POOL is not None:
            transform._POOL.shutdown(wait=True)

    @pytest.mark.parametrize("rows", [64, 33])
    def test_sliced_equals_whole(self, rows, two_cores):
        n = 4096
        eng = NttEngine.shared(params_for_degree(n))
        rng = np.random.default_rng(rows)
        a = rng.integers(0, 1 << 63, (rows, n), dtype=np.uint64)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(transform, "SLICE_MIN_ELEMENTS", 1 << 62)
            assert row_slices(rows, n) == 1
            hat = eng.to_ntt_many(a)
            back = eng.from_ntt_many(hat)
        assert row_slices(rows, n) == 2
        sliced = eng.to_ntt_many(a)
        assert sliced.flags.c_contiguous and hat.flags.c_contiguous
        assert np.array_equal(sliced, hat)
        assert np.array_equal(eng.from_ntt_many(hat), back)
        assert transform._POOL is not None
        assert np.array_equal(back, a % np.uint64(eng.q))
