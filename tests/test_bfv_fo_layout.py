"""Tests for the BFV scheme."""

import numpy as np
import pytest

from repro.crypto.bfv import BfvScheme
from repro.ntt.naive import schoolbook_negacyclic


class TestBfv:
    @pytest.fixture(scope="class")
    def setup(self):
        scheme = BfvScheme(n=2048, rng=np.random.default_rng(1))
        sk = scheme.keygen()
        rlk = scheme.relin_keygen(sk)
        return scheme, sk, rlk

    def test_roundtrip(self, setup):
        scheme, sk, _ = setup
        m = np.random.default_rng(2).integers(0, 2, 2048)
        assert np.array_equal(scheme.decrypt(sk, scheme.encrypt(sk, m)), m)

    def test_add(self, setup):
        scheme, sk, _ = setup
        rng = np.random.default_rng(3)
        m1, m2 = rng.integers(0, 2, 2048), rng.integers(0, 2, 2048)
        total = scheme.add(scheme.encrypt(sk, m1), scheme.encrypt(sk, m2))
        assert np.array_equal(scheme.decrypt(sk, total), (m1 + m2) % 2)

    def test_multiply_matches_plaintext_ring(self, setup):
        scheme, sk, _ = setup
        rng = np.random.default_rng(4)
        m1, m2 = rng.integers(0, 2, 2048), rng.integers(0, 2, 2048)
        product = scheme.multiply(scheme.encrypt(sk, m1),
                                  scheme.encrypt(sk, m2))
        assert product.degree == 2
        expected = np.array(schoolbook_negacyclic(m1.tolist(), m2.tolist(), 2))
        assert np.array_equal(scheme.decrypt(sk, product), expected)

    def test_relinearize(self, setup):
        scheme, sk, rlk = setup
        rng = np.random.default_rng(5)
        m1, m2 = rng.integers(0, 2, 2048), rng.integers(0, 2, 2048)
        product = scheme.multiply(scheme.encrypt(sk, m1),
                                  scheme.encrypt(sk, m2))
        relin = scheme.relinearize(product, rlk)
        assert relin.degree == 1
        assert np.array_equal(scheme.decrypt(sk, relin),
                              scheme.decrypt(sk, product))

    def test_noise_budget_decreases_on_multiply(self, setup):
        scheme, sk, _ = setup
        m = np.random.default_rng(6).integers(0, 2, 2048)
        fresh = scheme.encrypt(sk, m)
        product = scheme.multiply(fresh, fresh)
        fresh_budget = scheme.invariant_noise_budget_bits(sk, fresh)
        product_budget = scheme.invariant_noise_budget_bits(sk, product)
        assert product_budget < fresh_budget
        assert product_budget > 0  # one level fits, as with BGV

    def test_nonbinary_plaintext_modulus(self):
        scheme = BfvScheme(n=2048, t=17, rng=np.random.default_rng(7))
        sk = scheme.keygen()
        m = np.random.default_rng(8).integers(0, 17, 2048)
        assert np.array_equal(scheme.decrypt(sk, scheme.encrypt(sk, m)), m)

    def test_validation(self):
        with pytest.raises(ValueError):
            BfvScheme(t=1)
        scheme = BfvScheme(n=2048, rng=np.random.default_rng(9))
        sk = scheme.keygen()
        with pytest.raises(ValueError):
            scheme.encrypt(sk, np.zeros(10, dtype=np.int64))
        with pytest.raises(ValueError):
            scheme.relinearize(scheme.encrypt(sk, np.zeros(2048, dtype=np.int64)),
                               scheme.relin_keygen(sk))
