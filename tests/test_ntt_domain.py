"""NTT-domain operands: ``NttEngine.to_ntt_many`` and ``dot_many``.

``to_ntt_many`` transforms an operand that meets many others once, and
``dot_many`` sums its products with a batch in one float-resident body:
``multiply_many`` with the left forward transforms done beforehand and one
inverse per sum.  NTT-domain rows are canonical residues in the kernel's
bit-reversed order.  The oracles are the pure-Python ``ntt_gs``,
``schoolbook_negacyclic_np`` and sums of ``multiply_many`` products (each
checked against the schoolbook); the moduli are Kyber's 7681, the paper's
786433 and the largest NTT prime below 2^26, whose all-``(q - 1)``
operands are the sum bound's worst case and whose dot sums are reduced
every ``FloatSchedule.dot_terms = 2`` terms.
"""

import re

import numpy as np
import pytest

from repro.ntt import transform
from repro.ntt.batch import FLOAT_MAX_Q
from repro.ntt.naive import schoolbook_negacyclic_np
from repro.ntt.params import params_for_degree
from repro.ntt.transform import (SLICE_MIN_ELEMENTS, NttEngine, ntt_gs,
                                 row_slices)

from .test_float_datapath import engine_for_prime, largest_ntt_prime_below
from .test_ntt_workspace import from_ntt

N = 64
#: Kyber's, the paper's HE modulus and the widest the float datapath takes
MODULI = [7681, 786433, largest_ntt_prime_below(FLOAT_MAX_Q, N)]


@pytest.fixture(params=MODULI, ids=lambda q: f"q{q}")
def engine(request):
    return engine_for_prime(N, request.param)


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(transform, "_CORES", 2)
    monkeypatch.setattr(transform, "_POOL", None)
    yield
    if transform._POOL is not None:
        transform._POOL.shutdown(wait=True)


def block(q, shape, rng, kind="random"):
    if kind == "max":
        return np.full(shape, q - 1, dtype=np.uint64)
    if kind == "wide":          # full-width words: every entry >= q
        return rng.integers(q, 1 << 63, shape, dtype=np.uint64)
    return rng.integers(0, q, shape).astype(np.uint64)


def hats(engine, coeffs):
    """``to_ntt_many`` of every row of a ``(..., n)`` block, same shape."""
    n = coeffs.shape[-1]
    return engine.to_ntt_many(coeffs.reshape(-1, n)).reshape(coeffs.shape)


def product_sums(engine, left, right):
    """``out[c, i] = sum_j left[c, i, j] * right[c, j]`` from one
    ``multiply_many`` call; ``left`` is ``(count or 1, rows, k, n)``
    coefficients, ``right`` ``(count, k, n)``."""
    count, k, n = right.shape
    rows = left.shape[1]
    pairs = np.broadcast_to(right[:, None], (count, rows, k, n))
    left = np.broadcast_to(left, pairs.shape)
    products = engine.multiply_many(left.reshape(-1, n),
                                    pairs.reshape(-1, n))
    return products.reshape(count, rows, k, n).sum(axis=2) % \
        np.uint64(engine.q)


class TestTransforms:
    def test_round_trip(self, engine, rng):
        a = block(engine.q, (5, N), rng)
        assert np.array_equal(from_ntt(engine, engine.to_ntt_many(a)), a)

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
        # a key's rows reshape to dot_many's (rows, k, n) without a copy
        assert engine.to_ntt_many(block(engine.q, (5, N), rng)).flags \
            .c_contiguous

    def test_inputs_reduce_mod_q(self, engine, rng):
        q = np.uint64(engine.q)
        a = rng.integers(0, 1 << 63, (4, N), dtype=np.uint64)
        b = rng.integers(0, 1 << 63, (3, 4, N), dtype=np.uint64)
        assert np.array_equal(engine.to_ntt_many(a),
                              engine.to_ntt_many(a % q))
        # neither operand of the dot needs to be canonical
        key = a.reshape(1, 4, N)
        assert np.array_equal(engine.dot_many(key, b),
                              engine.dot_many(key % q, b % q))

    def test_empty_batches(self, engine):
        empty = np.zeros((0, N), dtype=np.uint64)
        assert engine.to_ntt_many(empty).shape == (0, N)
        key = np.ones((3, 2, N), dtype=np.uint64)
        sums = engine.dot_many(key, np.zeros((0, 2, N), dtype=np.uint64))
        assert sums.shape == (0, 3, N) and sums.dtype == np.uint64
        rowless = engine.dot_many(key[:0], np.ones((4, 2, N), np.uint64))
        assert rowless.shape == (4, 0, N)


class TestPointwiseSum:
    """The NTT-domain pointwise products and their sum inside
    ``dot_many``, against the schoolbook oracle."""

    @pytest.mark.parametrize("kind", ["random", "max"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sum_of_products(self, engine, k, kind, rng):
        q = engine.q
        count = 3
        a = block(q, (count, k, N), rng, kind)
        b = block(q, (count, k, N), rng, kind)
        got = engine.dot_many(hats(engine, a)[:, None], b)
        assert got.shape == (count, 1, N)
        for c in range(count):
            want = np.zeros(N, dtype=object)
            for j in range(k):
                want += schoolbook_negacyclic_np(a[c, j], b[c, j], q)
            assert got[c, 0].tolist() == (want % q).tolist()

    def test_broadcasts_a_key_against_a_batch(self, engine, rng):
        """The Kyber shape: a ``(rows, k, n)`` key against a ``(count, k,
        n)`` batch gives ``(count, rows, n)``."""
        q, k, rows, count = engine.q, 2, 3, 4
        key = block(q, (rows, k, N), rng)
        ops = block(q, (count, k, N), rng)
        sums = engine.dot_many(hats(engine, key), ops)
        assert sums.shape == (count, rows, N) and sums.dtype == np.uint64
        assert sums.flags.c_contiguous and sums.max() < q
        for c in range(count):
            for i in range(rows):
                want = sum(engine.multiply(key[i, j], ops[c, j]).astype(object)
                           for j in range(k)) % q
                assert sums[c, i].tolist() == want.tolist()

    def test_sum_bound_is_recorded_and_enforced(self, engine):
        q = engine.q
        terms = engine._schedule.dot_terms
        red = q // 2 + 1
        # a reduced sum plus dot_terms products fits 2^52, one more may not
        assert terms >= 2
        assert red + terms * (q - 1) * red <= 1 << 52
        assert red + (terms + 1) * (q - 1) * red > 1 << 52
        # past dot_terms the sum is reduced between chunks, and stays
        # exact near the worst case: every product the odd (q - 2) times
        # the right operand's reduced transform, about q / 2 everywhere,
        # so an unreduced sum of 5 would pass 2^53 and round
        k = 5
        hat = np.full((2, k, N), q - 2, dtype=np.uint64)
        odd = q // 2 - 1 + (q // 2) % 2
        half = from_ntt(engine, np.full((1, N), odd, dtype=np.uint64))
        ops = np.broadcast_to(half, (3, k, N))
        key = from_ntt(engine, hat.reshape(-1, N)).reshape(1, 2, k, N)
        assert np.array_equal(engine.dot_many(hat, ops),
                              product_sums(engine, key, ops))


class TestDotMany:
    @pytest.mark.parametrize("k, rows", [(k, rows) for k in range(1, 5)
                                         for rows in range(1, k + 2)])
    def test_matches_sums_of_multiply_many(self, engine, k, rows, rng):
        q, count = engine.q, 5
        key = block(q, (rows, k, N), rng)
        ops = block(q, (count, k, N), rng, "wide")
        want = product_sums(engine, key[None], ops)
        # the oracle's products are the schoolbook's
        assert np.array_equal(
            engine.multiply(key[0, 0], ops[0, 0]),
            schoolbook_negacyclic_np(key[0, 0], ops[0, 0] % np.uint64(q), q))
        got = engine.dot_many(hats(engine, key), ops)
        assert got.shape == (count, rows, N) and got.dtype == np.uint64
        assert np.array_equal(got, want)

    def test_per_member_left(self, engine, rng):
        """One left operand per member, also broadcast over the terms."""
        q, count, rows, k = engine.q, 4, 3, 2
        left = block(q, (count, rows, k, N), rng)
        ops = block(q, (count, k, N), rng)
        assert np.array_equal(engine.dot_many(hats(engine, left), ops),
                              product_sums(engine, left, ops))
        shared = left[:, :, :1]
        assert np.array_equal(engine.dot_many(hats(engine, shared), ops),
                              product_sums(engine, shared, ops))
        one = left[:1]
        assert np.array_equal(engine.dot_many(hats(engine, one), ops),
                              engine.dot_many(hats(engine, one[0]), ops))

    def test_key_matrix_is_taken_as_it_is(self, engine, rng):
        """A key's ``dot_matrix`` in place of its hat gives the same sums,
        broadcast over the terms and sliced alike, and a float left of
        any other shape is refused like a bad hat."""
        q, count, rows, k = engine.q, 4, 3, 2
        key = hats(engine, block(q, (rows, k, N), rng))
        ops = block(q, (count, k, N), rng, "wide")
        matrix = engine.dot_matrix(key)
        assert matrix.shape == (N, k, rows) and matrix.dtype == np.float64
        assert not matrix.flags.writeable
        assert np.array_equal(matrix, key.transpose(2, 1, 0))
        assert np.array_equal(engine.dot_matrix(key + np.uint64(q)), matrix)
        assert np.array_equal(engine.dot_many(matrix, ops),
                              engine.dot_many(key, ops))
        one = engine.dot_matrix(key[:, :1])
        assert np.array_equal(engine.dot_many(one, ops),
                              engine.dot_many(key[:, :1], ops))
        assert engine.dot_many(matrix, ops[:0]).shape == (0, rows, N)
        for wrong in (matrix[None], matrix.transpose(2, 1, 0),
                      matrix[:N // 2]):
            with pytest.raises(ValueError, match="expected a"):
                engine.dot_many(wrong, ops)
        with pytest.raises(ValueError, match="does not broadcast"):
            engine.dot_many(engine.dot_matrix(
                hats(engine, block(q, (rows, 3, N), rng))), ops)
        with pytest.raises(ValueError, match="expected a"):
            engine.dot_matrix(key[None])

    def test_count_past_the_slice_threshold(self, two_cores):
        eng = NttEngine.for_degree(256)
        rows, k = 3, 2
        count = SLICE_MIN_ELEMENTS // (rows * 256) + 3
        assert row_slices(count, rows * 256) == 2
        rng = np.random.default_rng(9)
        key = block(eng.q, (rows, k, 256), rng)
        ops = block(eng.q, (count, k, 256), rng, "wide")
        left = block(eng.q, (count, rows, k, 256), rng)
        sliced = [eng.dot_many(hats(eng, key), ops),
                  eng.dot_many(hats(eng, left), ops)]
        assert transform._POOL is not None
        assert np.array_equal(sliced[0], product_sums(eng, key[None], ops))
        assert np.array_equal(sliced[1], product_sums(eng, left, ops))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(transform, "SLICE_MIN_ELEMENTS", 1 << 62)
            assert np.array_equal(eng.dot_many(hats(eng, key), ops),
                                  sliced[0])

    def test_refuses_bad_shapes(self, engine):
        zeros = np.zeros
        key = zeros((3, 2, N), dtype=np.uint64)
        ops = zeros((4, 2, N), dtype=np.uint64)
        for left, right in [(key, ops[0]),                 # right not 3-D
                            (key, zeros((4, 2, 32), np.uint64)),
                            (key[0], ops),                 # left 2-D
                            (key[None, None], ops),        # left 5-D
                            (zeros((3, 2, 32), np.uint64), ops)]:
            with pytest.raises(ValueError, match="expected a"):
                engine.dot_many(left, right)
        for left in (zeros((3, 3, N), np.uint64),          # k = 3 vs 2
                     zeros((5, 3, 2, N), np.uint64)):      # 5 vs 4 members
            with pytest.raises(ValueError, match="does not broadcast"):
                engine.dot_many(left, ops)


class TestErrors:
    def test_wrong_degree(self, engine):
        text = re.escape(f"expected a (batch, {N}) array, got shape (2, 32)")
        wrong = np.zeros((2, 32), dtype=np.uint64)
        with pytest.raises(ValueError, match=text):
            engine.to_ntt_many(wrong)
        with pytest.raises(ValueError):
            engine.to_ntt_many(np.zeros(N, dtype=np.uint64))    # not a batch
        with pytest.raises(ValueError, match="expected a"):
            engine.dot_many(wrong[None], wrong[None])

    def test_mismatched_shapes(self, engine):
        with pytest.raises(ValueError, match="does not broadcast"):
            engine.dot_many(np.zeros((3, 1, 2, N), dtype=np.uint64),
                            np.zeros((4, 2, N), dtype=np.uint64))
        with pytest.raises(ValueError, match="does not broadcast"):
            engine.dot_many(np.zeros((1, 2, N), dtype=np.uint64),
                            np.zeros((4, 3, N), dtype=np.uint64))


class TestSliced:
    """Sliced blocks equal whole ones, as for the other ``*_many``."""

    @pytest.mark.parametrize("rows", [64, 33])
    def test_sliced_equals_whole(self, rows, two_cores):
        n = 4096
        eng = NttEngine.shared(params_for_degree(n))
        rng = np.random.default_rng(rows)
        a = rng.integers(0, 1 << 63, (rows, n), dtype=np.uint64)
        key = eng.to_ntt_many(a[:2]).reshape(2, 1, n)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(transform, "SLICE_MIN_ELEMENTS", 1 << 62)
            assert row_slices(rows, n) == 1
            hat = eng.to_ntt_many(a)
            back = from_ntt(eng, hat)
            dot = eng.dot_many(key, a[:, None])
        assert row_slices(rows, n) == 2
        sliced = eng.to_ntt_many(a)
        assert sliced.flags.c_contiguous and hat.flags.c_contiguous
        assert np.array_equal(sliced, hat)
        assert np.array_equal(eng.dot_many(key, a[:, None]), dot)
        assert transform._POOL is not None
        assert np.array_equal(back, a % np.uint64(eng.q))
