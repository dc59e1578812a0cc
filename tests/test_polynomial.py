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
