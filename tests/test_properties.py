"""Cross-module property tests: the invariants that tie the stack together.

These go beyond per-module unit tests: they fuzz the generalised
Algorithm 3 generator over arbitrary NTT-friendly primes, fuzz the
shift-add IR against its own bit-level executor, and assert end-to-end
agreement between the three multiplier implementations on random inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ntt.modmath import is_prime
from repro.ntt.params import params_for_degree
from repro.ntt.reduction import MontgomeryReducer
from repro.pim.alu import BitSliceAlu
from repro.pim.block import execute_program_bitlevel
from repro.pim.logic import CycleCounter
from repro.pim.reduction_programs import barrett_program, montgomery_program
from repro.pim.shiftadd import INPUT, ShiftAddProgram

#: assorted NTT-friendly primes well beyond the paper's three
#: (all support power-of-two subgroups: Kyber-3329, Dilithium-8380417,
#: Falcon-12289, BabyBear-ish, Goldilocks-friendly small primes, ...)
GENERIC_PRIMES = [257, 3329, 40961, 65537, 786433, 8380417, 133169153]


class TestGeneralisedAlgorithm3:
    """The program generator must be correct for ANY odd prime, not just
    the paper's sparse three - this is the 'configurable' claim."""

    @pytest.mark.parametrize("q", GENERIC_PRIMES)
    def test_barrett_exact(self, q, rng):
        prog = barrett_program(q, input_bound=2 * (q - 1))
        xs = rng.integers(0, 2 * (q - 1) + 1, 1500).astype(object)
        assert (prog.run(xs).astype(np.int64) == xs.astype(np.int64) % q).all()

    @pytest.mark.parametrize("q", GENERIC_PRIMES)
    def test_montgomery_exact(self, q, rng):
        prog = montgomery_program(q)
        reducer = MontgomeryReducer(q, prog.meta["r_bits"])
        xs = rng.integers(0, (q - 1) ** 2, 800)
        got = prog.run(xs.astype(object))
        expected = np.array([reducer.redc(int(x)) for x in xs], dtype=np.uint64)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("q", [3329, 40961, 8380417])
    def test_bitlevel_executor_agrees(self, q, rng):
        """int executor == gate-level executor == %, and metered cycles ==
        cost analysis, for non-paper moduli too."""
        prog = barrett_program(q, input_bound=2 * (q - 1))
        counter = CycleCounter()
        xs = rng.integers(0, 2 * (q - 1), 100).astype(np.uint64)
        out = execute_program_bitlevel(prog, BitSliceAlu(counter), xs)
        assert np.array_equal(out, xs % q)
        assert counter.cycles == prog.cost().cycles

    @given(st.integers(3, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_barrett_any_odd_prime(self, candidate):
        """Fuzz: pick any prime (from the candidate upward) and check the
        generated Barrett program at its boundary inputs."""
        q = candidate | 1
        while not is_prime(q):
            q += 2
        prog = barrett_program(q, input_bound=2 * (q - 1))
        for a in (0, 1, q - 1, q, q + 1, 2 * q - 2):
            assert prog.run(a) == a % q


class TestIrFuzzing:
    """Random straight-line shift-add programs: the int executor, the
    gate-level executor and the interval analysis must all agree."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_program_consistency(self, data):
        bound = data.draw(st.integers(1, 2**20 - 1))
        prog = ShiftAddProgram(q=17, input_bound=bound, name="fuzz")
        regs = [INPUT]
        # build 1-6 random non-underflowing ops
        for i in range(data.draw(st.integers(1, 6))):
            dst = f"r{i}"
            kind = data.draw(st.sampled_from(["add", "load", "rshift", "mask"]))
            src = data.draw(st.sampled_from(regs))
            if kind == "add":
                src2 = data.draw(st.sampled_from(regs))
                prog.add(dst, src, src2, shift=data.draw(st.integers(0, 6)))
            elif kind == "load":
                prog.load(dst, src, shift=data.draw(st.integers(0, 6)))
            elif kind == "rshift":
                prog.rshift(dst, src, shift=data.draw(st.integers(0, 6)))
            else:
                prog.mask(dst, src, bits=data.draw(st.integers(1, 24)))
            regs.append(dst)
        prog.load("out", regs[-1])

        xs = np.array([0, 1, bound // 2, bound], dtype=np.uint64)
        expected = prog.run(xs.astype(object))
        counter = CycleCounter()
        got = execute_program_bitlevel(prog, BitSliceAlu(counter), xs)
        # gate-level executor computes the demanded LSBs exactly; compare
        # through the final register's analysed width
        widths = prog.op_widths()
        final_width = max(widths[-1], 1)
        mask = np.uint64((1 << final_width) - 1) if final_width < 64 else np.uint64(2**64 - 1)
        assert np.array_equal(got & mask, expected.astype(np.uint64) & mask)
        assert counter.cycles == prog.cost().cycles

    @given(st.integers(0, 2**24), st.integers(1, 2**24))
    @settings(max_examples=100)
    def test_interval_analysis_sound(self, a, bound):
        """No register ever exceeds its analysed forward bound."""
        a = a % (bound + 1)
        prog = ShiftAddProgram(q=17, input_bound=bound)
        prog.load("t1", INPUT, shift=3)
        prog.add("t2", "t1", INPUT, shift=1)
        prog.mask("t3", "t2", 10)
        prog.add("out", "t3", "t3")
        out = prog.run(a)
        bounds = prog._bounds()
        assert out <= bounds["out"]


class TestTripleImplementationAgreement:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_three_multipliers_agree(self, seed):
        """schoolbook == software NTT == gate-level machine, random seeds."""
        from repro.arch.dataflow import PimMachine
        from repro.ntt.naive import schoolbook_negacyclic
        from repro.ntt.transform import NttEngine

        n = 32
        p = params_for_degree(n)
        rng = np.random.default_rng(seed)
        a = rng.integers(0, p.q, n)
        b = rng.integers(0, p.q, n)
        reference = schoolbook_negacyclic(a.tolist(), b.tolist(), p.q)
        assert NttEngine(p).multiply(a, b).tolist() == reference
        assert PimMachine(p).multiply(a, b).tolist() == reference

    @given(st.lists(st.integers(0, 7680), min_size=32, max_size=32),
           st.lists(st.integers(0, 7680), min_size=32, max_size=32),
           st.lists(st.integers(0, 7680), min_size=32, max_size=32))
    @settings(max_examples=30)
    def test_ring_associativity(self, a, b, c):
        from repro.ntt.polynomial import Polynomial
        p = params_for_degree(32)
        pa, pb, pc = (Polynomial(v, p) for v in (a, b, c))
        assert (pa * pb) * pc == pa * (pb * pc)

    @given(st.lists(st.integers(0, 12288), min_size=64, max_size=64),
           st.integers(0, 12288))
    @settings(max_examples=30)
    def test_scalar_commutes_through_ntt(self, coeffs, scalar):
        from repro.ntt.transform import ntt_gs
        p = params_for_degree(64)
        scaled_then = ntt_gs([(scalar * x) % p.q for x in coeffs], p)
        then_scaled = [(scalar * x) % p.q for x in ntt_gs(coeffs, p)]
        assert scaled_then == then_scaled

    @given(st.sampled_from([16, 64, 128]), st.integers(17, 25),
           st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_float_datapath_any_prime(self, n, bits, seed, extreme):
        """The float64 lazy-reduction datapath is exact for any NTT prime
        between 2^16 and 2^26, on random and extreme operands."""
        from repro.ntt.naive import schoolbook_negacyclic
        from repro.ntt.rns import RnsBasis

        engine = RnsBasis.generate(n, 1, bits=bits).engine(0)
        q = engine.q
        assert q < 1 << 26
        rng = np.random.default_rng(seed)
        a = rng.integers(0, q, (2, n)).astype(np.uint64)
        b = rng.integers(0, q, (2, n)).astype(np.uint64)
        if extreme:
            b[0] = q - 1
            b[1, ::extreme] = 0
        got = engine.multiply_many(a, b)
        for row in range(2):
            assert got[row].tolist() == schoolbook_negacyclic(
                a[row].tolist(), b[row].tolist(), q)
        assert np.array_equal(engine.inverse_many(engine.forward_many(a)), a)
