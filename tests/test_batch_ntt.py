"""Tests for the batched NTT engine, stage-plan cache and worker sharding."""

import numpy as np
import pytest

from repro.arch.chip import CryptoPimChip
from repro.core.accelerator import CryptoPIM
from repro.ntt.batch import (
    FLOAT_MAX_Q,
    bitrev_gather_rows,
    float_schedule,
    gs_kernel_batch,
    stage_plan,
)
from repro.ntt.params import params_for_degree
from repro.ntt.polynomial import Polynomial
from repro.ntt.rns import RnsBasis, RnsPolynomial
from repro.ntt.transform import NttEngine, negacyclic_multiply


#: one degree per paper modulus tier: 7681 / 12289 / 786433
TIER_DEGREES = (256, 1024, 2048)


@pytest.fixture
def rng():
    return np.random.default_rng(0xBA7C4)


def random_batch(rng, q, batch, n):
    return (rng.integers(0, q, (batch, n)).astype(np.uint64),
            rng.integers(0, q, (batch, n)).astype(np.uint64))


class TestStagePlan:
    def test_cache_returns_same_object(self):
        assert stage_plan(1024) is stage_plan(1024)
        assert stage_plan(256) is not stage_plan(512)

    def test_tables_match_reshape_geometry(self):
        plan = stage_plan(64)
        assert plan.log_n == 6
        for stage, (groups, distance) in enumerate(plan.shapes):
            assert distance == 1 << stage
            assert groups * distance * 2 == 64

    def test_tables_read_only(self):
        plan = stage_plan(128)
        with pytest.raises(ValueError):
            plan.bitrev[0] = 1

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            stage_plan(48)

    def test_shared_with_engine(self):
        assert NttEngine.for_degree(512)._plan is stage_plan(512)


class TestKernelPaths:
    """Kernels run on column-major blocks and refuse anything else."""

    def test_noncontiguous_block_rejected(self, rng):
        params = params_for_degree(64)
        tw = np.asarray(params.forward_twiddles_bitrev(), dtype=np.uint64)
        rows = rng.integers(0, params.q, (3, 64)).astype(np.uint64)
        with pytest.raises(ValueError, match="column-major"):
            gs_kernel_batch(rows, tw, params.q)
        with pytest.raises(ValueError, match="column-major"):
            gs_kernel_batch(np.asfortranarray(rng.integers(
                0, params.q, (3, 128)).astype(np.uint64))[:, ::2],
                tw, params.q)

    def test_gather_yields_column_major(self, rng):
        plan = stage_plan(64)
        rows = rng.integers(0, 7681, (3, 64)).astype(np.uint64)
        block = bitrev_gather_rows(rows, plan)
        assert block.flags.f_contiguous
        assert np.array_equal(block, rows[:, plan.bitrev])

    def test_kernel_dtype_tiers(self):
        # one engine datapath: the float schedule serves every q below
        # FLOAT_MAX_Q, and nothing from it up
        for q in (3, 7681, 12289, 786433, FLOAT_MAX_Q - 1):
            assert float_schedule(256, q).q == q
        with pytest.raises(ValueError):
            float_schedule(256, FLOAT_MAX_Q)


class TestBatchedEngine:
    @pytest.mark.parametrize("n", TIER_DEGREES)
    def test_multiply_many_bit_identical(self, rng, n):
        eng = NttEngine.for_degree(n)
        a, b = random_batch(rng, eng.q, 6, n)
        many = eng.multiply_many(a, b)
        for k in range(6):
            assert np.array_equal(many[k], eng.multiply(a[k], b[k]))

    @pytest.mark.parametrize("n", TIER_DEGREES)
    def test_forward_inverse_many(self, rng, n):
        eng = NttEngine.for_degree(n)
        a, _ = random_batch(rng, eng.q, 4, n)
        fwd = eng.forward_many(a)
        for k in range(4):
            assert np.array_equal(fwd[k], eng.forward(a[k]))
        assert np.array_equal(eng.inverse_many(fwd), a)

    def test_matches_pure_python_reference(self, rng):
        params = params_for_degree(64)
        eng = NttEngine(params)
        a, b = random_batch(rng, params.q, 3, 64)
        many = eng.multiply_many(a, b)
        for k in range(3):
            ref = negacyclic_multiply([int(v) for v in a[k]],
                                      [int(v) for v in b[k]], params)
            assert list(map(int, many[k])) == ref

    def test_batch_of_one(self, rng):
        eng = NttEngine.for_degree(256)
        a, b = random_batch(rng, eng.q, 1, 256)
        assert np.array_equal(eng.multiply_many(a, b)[0],
                              eng.multiply(a[0], b[0]))

    def test_randomized_batches_property(self, rng):
        """Random degrees x batch sizes stay bit-identical to per-pair."""
        for trial in range(8):
            n = int(rng.choice([8, 32, 256, 512]))
            batch = int(rng.integers(1, 9))
            eng = NttEngine.for_degree(n)
            a, b = random_batch(rng, eng.q, batch, n)
            many = eng.multiply_many(a, b)
            for k in range(batch):
                assert np.array_equal(many[k], eng.multiply(a[k], b[k]))

    def test_shape_validation(self, rng):
        eng = NttEngine.for_degree(256)
        with pytest.raises(ValueError):
            eng.multiply_many(np.zeros((2, 128), dtype=np.uint64),
                              np.zeros((2, 128), dtype=np.uint64))
        with pytest.raises(ValueError):
            eng.multiply_many(np.zeros((2, 256), dtype=np.uint64),
                              np.zeros((3, 256), dtype=np.uint64))


class TestAcceleratorBatch:
    def test_batch_larger_than_superbanks(self, rng):
        acc = CryptoPIM.for_degree(256)
        superbanks = CryptoPimChip().configure(256).parallel_multiplications
        count = superbanks + 5
        pairs = [(rng.integers(0, acc.q, 256), rng.integers(0, acc.q, 256))
                 for _ in range(count)]
        batch = acc.multiply_batch(pairs)
        assert len(batch.results) == count
        for (a, b), result in zip(pairs, batch.results):
            assert np.array_equal(result, acc.multiply(a, b))

    @pytest.mark.parametrize("n", TIER_DEGREES)
    def test_batch_bit_identical_all_moduli(self, rng, n):
        """The one batch path is bit-identical to per-pair ``multiply``
        for every paper modulus tier and ragged batch sizes."""
        acc = CryptoPIM.for_degree(n)
        for batch in (1, 3, 5, 9):
            pairs = [(rng.integers(0, acc.q, n), rng.integers(0, acc.q, n))
                     for _ in range(batch)]
            batched = acc.multiply_batch(pairs)
            assert len(batched.results) == batch
            for (a, b), result in zip(pairs, batched.results):
                assert np.array_equal(result, acc.multiply(a, b))

    def test_empty_batch_is_noop(self):
        """Regression: an empty batch returns [] on a zero-cycle timeline
        instead of raising (the serving layer drains queues that may have
        been emptied by shedding)."""
        batch = CryptoPIM.for_degree(256).multiply_batch([])
        assert batch.results == []
        assert batch.completion_cycles == []
        assert batch.total_us == 0.0
        assert batch.effective_throughput_per_s == 0.0

    def test_empty_kernel_batch_is_noop(self):
        empty = np.empty((0, 256), dtype=np.uint64)
        eng = NttEngine.for_degree(256)
        tw = np.asarray(eng.params.forward_twiddles_bitrev(), dtype=np.uint64)
        out = gs_kernel_batch(empty, tw, eng.q)
        assert out.shape == (0, 256)
        assert eng.multiply_many(empty, empty).shape == (0, 256)
        assert eng.inverse_many(empty).shape == (0, 256)
        big = NttEngine.for_degree(2048)
        empty = np.empty((0, 2048), dtype=np.uint64)
        assert big.multiply_many(empty, empty).shape == (0, 2048)
        assert big.forward_many(empty).shape == (0, 2048)

    def test_batch_counts_multiplications(self, rng):
        acc = CryptoPIM.for_degree(256)
        pairs = [(rng.integers(0, acc.q, 256), rng.integers(0, acc.q, 256))
                 for _ in range(5)]
        acc.multiply_batch(pairs)
        assert acc.multiplications == 5
        assert acc.last_report is not None

    def test_bit_fidelity_machine_reused(self, rng):
        acc = CryptoPIM.for_degree(64, fidelity="bit")
        a = rng.integers(0, acc.q, 64)
        b = rng.integers(0, acc.q, 64)
        first = acc.multiply(a, b)
        machine = acc._machine
        second = acc.multiply(a, b)  # counter reset makes the cycle check pass
        assert acc._machine is machine
        assert np.array_equal(first, second)
        assert np.array_equal(first, CryptoPIM.for_degree(64).multiply(a, b))


class TestBatchedRingTypes:
    def test_polynomial_multiply_pairs(self, rng):
        params = params_for_degree(256)
        polys = [Polynomial(rng.integers(0, params.q, 256), params)
                 for _ in range(6)]
        pairs = list(zip(polys[:3], polys[3:]))
        batched = Polynomial.multiply_pairs(pairs)
        assert batched == [x * y for x, y in pairs]
        assert Polynomial.multiply_pairs([]) == []

    def test_polynomial_multiply_pairs_ring_mismatch(self, rng):
        small = Polynomial(rng.integers(0, 7681, 256), params_for_degree(256))
        big = Polynomial(rng.integers(0, 12289, 512), params_for_degree(512))
        with pytest.raises(ValueError):
            Polynomial.multiply_pairs([(small, big)])

    def test_rns_multiply_pairs(self, rng):
        basis = RnsBasis.generate(64, 3, bits=24)
        polys = [RnsPolynomial.from_integers(
                     basis, [int(v) for v in rng.integers(0, 1000, 64)])
                 for _ in range(4)]
        pairs = [(polys[0], polys[1]), (polys[2], polys[3])]
        batched = RnsPolynomial.multiply_pairs(pairs)
        assert batched == [x * y for x, y in pairs]
        assert RnsPolynomial.multiply_pairs([]) == []
