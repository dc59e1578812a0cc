"""Tests for the RNS substrate and the leveled RNS-BGV scheme."""

import numpy as np
import pytest

from repro.crypto.bgv_rns import RnsBgvScheme
from repro.ntt.naive import schoolbook_negacyclic
from repro.ntt.rns import RnsBasis, RnsPolynomial, find_ntt_primes


class TestPrimeSearch:
    def test_primes_support_the_degree(self):
        primes = find_ntt_primes(1024, 3, bits=20)
        assert len(set(primes)) == 3
        for p in primes:
            assert (p - 1) % 2048 == 0

    def test_sizes_near_request(self):
        for p in find_ntt_primes(256, 4, bits=24):
            assert 23 <= p.bit_length() <= 26

    def test_validation(self):
        with pytest.raises(ValueError):
            find_ntt_primes(256, 0)

    def test_refuses_primes_past_the_float_datapath(self):
        """Primes at or above 2^26 are refused when the basis is built,
        not when a channel's engine is first used."""
        with pytest.raises(ValueError, match="kernel datapath cap"):
            RnsBasis.generate(64, 1, bits=27)
        wide = 134217089             # a 27-bit NTT prime for n = 64
        assert wide.bit_length() == 27 and (wide - 1) % 128 == 0
        with pytest.raises(ValueError, match="kernel datapath cap"):
            RnsBasis(64, [wide])
        assert max(find_ntt_primes(64, 3, bits=25)) < 1 << 26


class TestRnsBasis:
    @pytest.fixture
    def basis(self):
        return RnsBasis.generate(64, 3, bits=20)

    def test_modulus_is_product(self, basis):
        product = 1
        for q in basis.primes:
            product *= q
        assert basis.modulus == product

    def test_crt_roundtrip(self, basis, rng):
        coeffs = [int(x) for x in rng.integers(0, basis.modulus, 64,
                                               dtype=np.int64)]
        coeffs = [c % basis.modulus for c in coeffs]
        assert basis.reconstruct(basis.to_residues(coeffs)) == coeffs

    def test_centered_reconstruction(self, basis):
        big = basis.modulus - 5
        assert basis.reconstruct_centered(basis.to_residues([big] + [0] * 63))[0] == -5

    def test_drop_last(self, basis):
        lower = basis.drop_last()
        assert lower.primes == basis.primes[:-1]
        with pytest.raises(ValueError):
            RnsBasis(64, [basis.primes[0]]).drop_last()

    def test_rejects_bad_primes(self):
        with pytest.raises(ValueError):
            RnsBasis(64, [7681, 7681])           # duplicates
        with pytest.raises(ValueError):
            RnsBasis(64, [7680])                 # composite
        with pytest.raises(ValueError):
            RnsBasis(1024, [7681])               # no 2048-th root
        with pytest.raises(ValueError):
            RnsBasis(64, [])


class TestRnsPolynomial:
    @pytest.fixture
    def basis(self):
        return RnsBasis.generate(64, 2, bits=20)

    def test_add_matches_integer_math(self, basis, rng):
        a = [int(x) for x in rng.integers(0, 10**6, 64)]
        b = [int(x) for x in rng.integers(0, 10**6, 64)]
        pa = RnsPolynomial.from_integers(basis, a)
        pb = RnsPolynomial.from_integers(basis, b)
        expected = [(x + y) % basis.modulus for x, y in zip(a, b)]
        assert (pa + pb).to_integers() == expected

    def test_mul_matches_schoolbook_mod_q(self, basis, rng):
        a = [int(x) for x in rng.integers(0, 1000, 64)]
        b = [int(x) for x in rng.integers(0, 1000, 64)]
        pa = RnsPolynomial.from_integers(basis, a)
        pb = RnsPolynomial.from_integers(basis, b)
        expected = schoolbook_negacyclic(a, b, basis.modulus)
        assert (pa * pb).to_integers() == expected

    def test_neg_and_sub(self, basis, rng):
        a = RnsPolynomial.from_integers(
            basis, [int(x) for x in rng.integers(0, 999, 64)])
        assert (a - a).to_integers() == [0] * 64
        assert (a + (-a)).to_integers() == [0] * 64

    def test_scalar_scale(self, basis):
        a = RnsPolynomial.from_integers(basis, [3] + [0] * 63)
        assert a.scale(7).to_integers()[0] == 21
        assert (7 * a).to_integers()[0] == 21

    def test_basis_mismatch_rejected(self, basis):
        other = RnsBasis.generate(64, 3, bits=20)
        with pytest.raises(ValueError):
            RnsPolynomial.zero(basis) + RnsPolynomial.zero(other)

    def test_shape_validation(self, basis):
        with pytest.raises(ValueError):
            RnsPolynomial(basis, np.zeros((1, 64), dtype=np.uint64))

    def test_infinity_norm(self, basis):
        a = RnsPolynomial.from_integers(basis, [basis.modulus - 2] + [0] * 63)
        assert a.infinity_norm() == 2


class TestRnsBgv:
    @pytest.fixture(scope="class")
    def scheme(self):
        return RnsBgvScheme(n=256, levels=3, prime_bits=24,
                            rng=np.random.default_rng(10))

    @pytest.fixture(scope="class")
    def keys(self, scheme):
        sk = scheme.keygen()
        return sk, scheme.relin_keygen(sk)

    def test_roundtrip(self, scheme, keys):
        sk, _ = keys
        m = np.random.default_rng(11).integers(0, 2, 256)
        assert np.array_equal(scheme.decrypt(sk, scheme.encrypt(sk, m)), m)

    def test_add(self, scheme, keys):
        sk, _ = keys
        rng = np.random.default_rng(12)
        m1, m2 = rng.integers(0, 2, 256), rng.integers(0, 2, 256)
        total = scheme.add(scheme.encrypt(sk, m1), scheme.encrypt(sk, m2))
        assert np.array_equal(scheme.decrypt(sk, total), (m1 + m2) % 2)

    def test_multiply_and_relinearize(self, scheme, keys):
        sk, rlk = keys
        rng = np.random.default_rng(13)
        m1, m2 = rng.integers(0, 2, 256), rng.integers(0, 2, 256)
        expected = np.array(schoolbook_negacyclic(m1.tolist(), m2.tolist(), 2))
        prod = scheme.multiply(scheme.encrypt(sk, m1), scheme.encrypt(sk, m2))
        assert prod.degree == 2
        assert np.array_equal(scheme.decrypt(sk, prod), expected)
        relin = scheme.relinearize(prod, rlk)
        assert relin.degree == 1
        assert np.array_equal(scheme.decrypt(sk, relin), expected)

    def test_mod_switch_reduces_noise_and_level(self, scheme, keys):
        sk, rlk = keys
        rng = np.random.default_rng(14)
        m1, m2 = rng.integers(0, 2, 256), rng.integers(0, 2, 256)
        expected = np.array(schoolbook_negacyclic(m1.tolist(), m2.tolist(), 2))
        relin = scheme.relinearize(
            scheme.multiply(scheme.encrypt(sk, m1), scheme.encrypt(sk, m2)), rlk)
        switched = scheme.mod_switch(relin)
        assert switched.level == relin.level - 1
        assert np.array_equal(scheme.decrypt(sk, switched), expected)
        assert (scheme.decryption_noise(sk, switched)
                < scheme.decryption_noise(sk, relin) / 100)

    def test_depth_two_circuit(self, scheme, keys):
        """(m1 * m2) * m3 - impossible with the single-modulus scheme."""
        sk, rlk = keys
        rng = np.random.default_rng(15)
        m1, m2, m3 = (rng.integers(0, 2, 256) for _ in range(3))
        e12 = schoolbook_negacyclic(m1.tolist(), m2.tolist(), 2)
        expected = np.array(schoolbook_negacyclic(e12, m3.tolist(), 2))
        relin = scheme.relinearize(
            scheme.multiply(scheme.encrypt(sk, m1), scheme.encrypt(sk, m2)), rlk)
        switched = scheme.mod_switch(relin)
        c3 = scheme.mod_switch(scheme.encrypt(sk, m3))
        prod2 = scheme.multiply(switched, c3)
        assert np.array_equal(scheme.decrypt(sk, prod2), expected)
        # actual noise fits comfortably inside the level-2 modulus
        assert (scheme.decryption_noise(sk, prod2)
                < prod2.parts[0].basis.modulus // 4)

    def test_noise_bound_dominates_actual(self, scheme, keys):
        sk, rlk = keys
        rng = np.random.default_rng(16)
        m1, m2 = rng.integers(0, 2, 256), rng.integers(0, 2, 256)
        c1, c2 = scheme.encrypt(sk, m1), scheme.encrypt(sk, m2)
        prod = scheme.multiply(c1, c2)
        relin = scheme.relinearize(prod, rlk)
        switched = scheme.mod_switch(relin)
        for ct in (c1, scheme.add(c1, c2), prod, relin, switched):
            assert scheme.decryption_noise(sk, ct) <= ct.noise_bound

    def test_level_mismatch_rejected(self, scheme, keys):
        sk, _ = keys
        m = np.zeros(256, dtype=np.int64)
        top = scheme.encrypt(sk, m)
        low = scheme.mod_switch(scheme.encrypt(sk, m))
        with pytest.raises(ValueError):
            scheme.add(top, low)
        with pytest.raises(ValueError):
            scheme.multiply(top, low)

    def test_relinearize_requires_top_basis(self, scheme, keys):
        sk, rlk = keys
        m = np.zeros(256, dtype=np.int64)
        low_prod = scheme.multiply(scheme.mod_switch(scheme.encrypt(sk, m)),
                                   scheme.mod_switch(scheme.encrypt(sk, m)))
        with pytest.raises(ValueError):
            scheme.relinearize(low_prod, rlk)

    def test_cannot_switch_below_one_level(self, scheme, keys):
        sk, _ = keys
        ct = scheme.encrypt(sk, np.zeros(256, dtype=np.int64))
        ct = scheme.mod_switch(scheme.mod_switch(ct))
        with pytest.raises(ValueError):
            scheme.mod_switch(ct)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RnsBgvScheme(levels=0)
        with pytest.raises(ValueError):
            RnsBgvScheme(t=1)
