"""Unit tests for the ring element type."""

import numpy as np
import pytest

from repro.ntt.modmath import centered
from repro.ntt.naive import schoolbook_negacyclic
from repro.ntt.params import params_for_degree
from repro.ntt.polynomial import Polynomial
from repro.ntt.transform import NttEngine


@pytest.fixture
def params():
    return params_for_degree(64)


class TestConstruction:
    def test_coefficients_reduced(self, params):
        p = Polynomial([params.q + 5] + [0] * 63, params)
        assert int(p.coeffs[0]) == 5

    def test_negative_coefficients(self, params):
        p = Polynomial([-1] + [0] * 63, params)
        assert int(p.coeffs[0]) == params.q - 1

    def test_negative_array_entry_reduces_like_a_list_entry(self):
        ring = params_for_degree(256)
        p = Polynomial(np.array([-1] + [0] * 255), ring)
        assert int(p.coeffs[0]) == ring.q - 1 == 7680

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64,
                                       np.uint8, np.uint64])
    def test_integer_array_reduces_like_its_list(self, dtype):
        ring = params_for_degree(256)
        info = np.iinfo(dtype)
        coeffs = ([int(info.min), int(info.max), 0, 1]
                  + [int(info.min) // 3, int(info.max) // 3] * 126)
        p = Polynomial(np.array(coeffs, dtype=dtype), ring)
        assert p == Polynomial(coeffs, ring)

    @pytest.mark.parametrize("coeffs", [
        np.array([2.7] + [0.0] * 63),
        np.array([2.0] * 64),
        [2.7] + [0] * 63,
        [np.float64(2.0)] * 64,
    ], ids=["float-array", "integral-float-array", "float-list",
            "numpy-float-list"])
    def test_non_integer_input_raises(self, params, coeffs):
        with pytest.raises(TypeError):
            Polynomial(coeffs, params)

    def test_array_is_copied_not_adopted(self, params):
        source = np.arange(64, dtype=np.uint64)
        p = Polynomial(source, params)
        assert not np.shares_memory(p.coeffs, source)
        assert source.flags.writeable

    def test_wrong_length(self, params):
        with pytest.raises(ValueError):
            Polynomial([1, 2, 3], params)

    def test_zero_and_constant(self, params):
        assert Polynomial.zero(params).is_zero()
        c = Polynomial.constant(7, params)
        assert int(c.coeffs[0]) == 7
        assert not c.is_zero()

    def test_immutability(self, params):
        p = Polynomial.zero(params)
        with pytest.raises(ValueError):
            p.coeffs[0] = 1

    def test_from_residues_adopts_its_vector(self, params):
        row = np.arange(64, dtype=np.uint64)
        p = Polynomial._from_residues(row, params)
        assert p.coeffs is row                      # no copy, no second %
        assert p == Polynomial(np.arange(64), params)
        with pytest.raises(ValueError):
            p.coeffs[0] = 1

    def test_from_residues_checks_the_shape(self, params):
        with pytest.raises(ValueError):
            Polynomial._from_residues(np.zeros(63, dtype=np.uint64), params)

    def test_operators_own_their_results(self, params, rng):
        a = Polynomial(rng.integers(0, params.q, 64), params)
        b = Polynomial(rng.integers(0, params.q, 64), params)
        for out in (a + b, a - b, -a, a * b, a.scale(5), a.shift_monomial(3)):
            assert out.coeffs.dtype == np.uint64
            assert int(out.coeffs.max()) < params.q
            assert not out.coeffs.flags.writeable
            assert not np.shares_memory(out.coeffs, a.coeffs)
            assert not np.shares_memory(out.coeffs, b.coeffs)


class TestRingAxioms:
    def test_additive_inverse(self, params, rng):
        p = Polynomial(rng.integers(0, params.q, 64), params)
        assert (p + (-p)).is_zero()

    def test_add_commutes(self, params, rng):
        a = Polynomial(rng.integers(0, params.q, 64), params)
        b = Polynomial(rng.integers(0, params.q, 64), params)
        assert a + b == b + a

    def test_sub(self, params, rng):
        a = Polynomial(rng.integers(0, params.q, 64), params)
        b = Polynomial(rng.integers(0, params.q, 64), params)
        assert (a - b) + b == a

    def test_mul_matches_schoolbook(self, params, rng):
        a_c = rng.integers(0, params.q, 64)
        b_c = rng.integers(0, params.q, 64)
        a, b = Polynomial(a_c, params), Polynomial(b_c, params)
        expected = schoolbook_negacyclic(a_c.tolist(), b_c.tolist(), params.q)
        assert (a * b).coeffs.tolist() == expected

    def test_mul_identity(self, params, rng):
        a = Polynomial(rng.integers(0, params.q, 64), params)
        one = Polynomial.constant(1, params)
        assert a * one == a

    def test_distributivity(self, params, rng):
        a, b, c = (Polynomial(rng.integers(0, params.q, 64), params)
                   for _ in range(3))
        assert a * (b + c) == a * b + a * c

    def test_scalar_mul(self, params, rng):
        a = Polynomial(rng.integers(0, params.q, 64), params)
        assert (3 * a) == a + a + a
        assert a * 3 == 3 * a

    def test_incompatible_rings_rejected(self, params):
        other = params_for_degree(128)
        with pytest.raises(ValueError):
            Polynomial.zero(params) + Polynomial.zero(other)


class TestMonomialShift:
    def test_shift_matches_multiplication(self, params, rng):
        a = Polynomial(rng.integers(0, params.q, 64), params)
        for k in (1, 5, 63):
            x_k = np.zeros(64, dtype=np.int64)
            x_k[k] = 1
            assert a.shift_monomial(k) == a * Polynomial(x_k, params)

    def test_shift_by_n_negates(self, params, rng):
        a = Polynomial(rng.integers(0, params.q, 64), params)
        assert a.shift_monomial(64) == -a

    def test_shift_by_2n_is_identity(self, params, rng):
        a = Polynomial(rng.integers(0, params.q, 64), params)
        assert a.shift_monomial(128) == a


class TestViews:
    def test_centered_coeffs(self, params):
        p = Polynomial([1, params.q - 1] + [0] * 62, params)
        centered = p.centered_coeffs()
        assert centered[0] == 1 and centered[1] == -1

    @pytest.mark.parametrize("n", [256, 1024, 2048])
    def test_centered_coeffs_match_scalar_convention(self, n):
        p = params_for_degree(n)  # q = 7681, 12289, 786433
        q = p.q
        edges = [0, q // 2, q // 2 + 1, q - 1]
        poly = Polynomial(edges + [0] * (n - 4), p)
        got = poly.centered_coeffs()
        assert got.dtype == np.int64
        assert got[:4].tolist() == [centered(c, q) for c in edges]
        assert got[:4].tolist() == [0, q // 2, q // 2 + 1 - q, -1]

    def test_infinity_norm(self, params):
        p = Polynomial([5, params.q - 3] + [0] * 62, params)
        assert p.infinity_norm() == 5

    def test_equality_and_hash(self, params, rng):
        coeffs = rng.integers(0, params.q, 64)
        a, b = Polynomial(coeffs, params), Polynomial(coeffs.copy(), params)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Polynomial.zero(params)

    def test_repr_short(self, params):
        assert "n=64" in repr(Polynomial.zero(params))


class TestBackend:
    def test_custom_backend_used(self, params, rng):
        calls = []

        class SpyBackend:
            def multiply(self, a, b):
                calls.append(1)
                return np.zeros(len(a), dtype=np.uint64)

        a = Polynomial(rng.integers(0, params.q, 64), params, SpyBackend())
        b = Polynomial(rng.integers(0, params.q, 64), params)
        result = a * b
        assert calls == [1]
        assert result.is_zero()

    def test_with_backend_returns_new(self, params):
        a = Polynomial.zero(params)
        b = a.with_backend(object())
        assert a == b and a is not b

    def test_default_engine_shared_per_params(self, params, rng):
        a = Polynomial(rng.integers(0, params.q, 64), params)
        b = Polynomial(rng.integers(0, params.q, 64), params)
        assert a.backend() is b.backend()
        assert (a * b).backend() is a.backend()
        other = Polynomial.zero(params_for_degree(128))
        assert other.backend() is not a.backend()
        assert other.backend().params == params_for_degree(128)

    def test_multiply_pairs_per_row_fallback(self, params, rng):
        """A backend with only ``multiply`` gets one call per pair and the
        same products as the batched engine."""
        calls = []
        engine = NttEngine(params)

        class RowBackend:
            def multiply(self, a, b):
                calls.append(1)
                return engine.multiply(a, b)

        pairs = [(Polynomial(rng.integers(0, params.q, 64), params,
                             RowBackend()),
                  Polynomial(rng.integers(0, params.q, 64), params))
                 for _ in range(3)]
        products = Polynomial.multiply_pairs(pairs)
        assert calls == [1, 1, 1]
        assert products == [x.with_backend(engine) * y for x, y in pairs]
