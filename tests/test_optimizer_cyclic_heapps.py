"""Tests for cyclic/big-int NTT and HE app kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bgv import BgvScheme
from repro.crypto.he_apps import (
    encrypted_dot_product,
    encrypted_poly_eval,
    encrypted_xor_aggregate,
    pack_forward,
    pack_reversed,
)
from repro.ntt.cyclic import bigint_multiply, cyclic_convolve, linear_convolve


class TestCyclicConvolution:
    def test_matches_direct(self, rng):
        q = 7681
        a = rng.integers(0, q, 16).tolist()
        b = rng.integers(0, q, 16).tolist()
        direct = [sum(a[i] * b[(k - i) % 16] for i in range(16)) % q
                  for k in range(16)]
        assert cyclic_convolve(a, b, q) == direct

    def test_validation(self):
        with pytest.raises(ValueError):
            cyclic_convolve([1, 2], [1, 2, 3], 7681)
        with pytest.raises(ValueError):
            cyclic_convolve([1] * 12, [1] * 12, 7681)

    def test_linear_matches_numpy(self, rng):
        a = rng.integers(0, 5000, 33).tolist()
        b = rng.integers(0, 5000, 17).tolist()
        assert linear_convolve(a, b) == list(np.convolve(a, b).astype(int))

    def test_linear_empty_and_validation(self):
        assert linear_convolve([], [1, 2]) == []
        with pytest.raises(ValueError):
            linear_convolve([-1], [2])


class TestBigintMultiply:
    def test_known_product(self):
        assert bigint_multiply(12345, 67890) == 12345 * 67890

    def test_zero(self):
        assert bigint_multiply(0, 10**50) == 0

    def test_large_operands(self):
        x = 3**500
        y = 7**300
        assert bigint_multiply(x, y) == x * y

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bigint_multiply(-1, 5)

    @given(st.integers(0, 2**256), st.integers(0, 2**256))
    @settings(max_examples=20, deadline=None)
    def test_property_vs_python(self, x, y):
        assert bigint_multiply(x, y) == x * y


class TestHeApps:
    @pytest.fixture(scope="class")
    def scheme(self):
        return BgvScheme(n=2048, rng=np.random.default_rng(30))

    @pytest.fixture(scope="class")
    def keys(self, scheme):
        sk = scheme.keygen()
        return sk, scheme.relin_keygen(sk)

    def test_packing(self):
        fwd = pack_forward([1, 0, 1], 8)
        rev = pack_reversed([1, 1, 0], 8)
        assert fwd.tolist() == [1, 0, 1, 0, 0, 0, 0, 0]
        assert rev.tolist() == [0, 0, 0, 0, 0, 0, 1, 1]
        with pytest.raises(ValueError):
            pack_forward([1] * 9, 8)

    def test_encrypted_dot_product(self, scheme, keys):
        sk, rlk = keys
        rng = np.random.default_rng(31)
        x = rng.integers(0, 2, 64).tolist()
        y = rng.integers(0, 2, 64).tolist()
        expected = sum(a * b for a, b in zip(x, y)) % scheme.t
        assert encrypted_dot_product(scheme, sk, rlk, x, y) == expected

    def test_dot_product_validation(self, scheme, keys):
        sk, rlk = keys
        with pytest.raises(ValueError):
            encrypted_dot_product(scheme, sk, rlk, [1, 0], [1])

    def test_encrypted_poly_eval(self, scheme, keys):
        sk, _ = keys
        value = np.zeros(2048, dtype=np.int64)
        value[0] = 1
        ct = scheme.encrypt(sk, value)
        # p(v) = 1 + v over t=2
        evaluated = encrypted_poly_eval(scheme, sk, [1, 1], ct)
        assert scheme.decrypt(sk, evaluated)[0] == 0  # 1 + 1 mod 2

    def test_poly_eval_degree_limit(self, scheme, keys):
        sk, _ = keys
        ct = scheme.encrypt(sk, np.zeros(2048, dtype=np.int64))
        with pytest.raises(ValueError):
            encrypted_poly_eval(scheme, sk, [1, 1, 1], ct)

    def test_xor_aggregate(self, scheme, keys):
        sk, _ = keys
        rng = np.random.default_rng(32)
        vectors = [rng.integers(0, 2, 32).tolist() for _ in range(5)]
        result = encrypted_xor_aggregate(scheme, sk, vectors)
        expected = np.bitwise_xor.reduce(
            np.asarray(vectors, dtype=np.int64), axis=0)
        assert np.array_equal(result[:32], expected)

    def test_xor_validation(self, scheme, keys):
        sk, _ = keys
        with pytest.raises(ValueError):
            encrypted_xor_aggregate(scheme, sk, [])
