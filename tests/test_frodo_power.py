"""Tests for the Frodo-style LWE scheme."""

import numpy as np
import pytest

from repro.crypto.frodo import FrodoLitePke, key_size_comparison


class TestFrodo:
    @pytest.fixture
    def pke(self):
        return FrodoLitePke(n=128, rng=np.random.default_rng(1))

    def test_roundtrip(self, pke):
        pk, sk = pke.keygen()
        bits = np.random.default_rng(2).integers(0, 2, (8, 8))
        assert np.array_equal(pke.decrypt(sk, pke.encrypt(pk, bits)), bits)

    def test_repeated_roundtrips(self, pke):
        pk, sk = pke.keygen()
        rng = np.random.default_rng(3)
        for _ in range(10):
            bits = rng.integers(0, 2, (8, 8))
            assert np.array_equal(pke.decrypt(sk, pke.encrypt(pk, bits)), bits)

    def test_message_shape_enforced(self, pke):
        pk, _ = pke.keygen()
        with pytest.raises(ValueError):
            pke.encrypt(pk, np.zeros((4, 4), dtype=np.int64))

    def test_power_of_two_modulus_required(self):
        with pytest.raises(ValueError):
            FrodoLitePke(q=12289)

    def test_key_sizes(self):
        pke = FrodoLitePke(n=256)
        assert pke.full_matrix_bytes() == 256 * 256 * 15 // 8  # log2(2^15) bits
        assert pke.public_key_bytes() < pke.full_matrix_bytes()

    def test_intro_claim_factor_n(self):
        """'RLWE reduces the key size by a factor of n' - within 2x of
        exactly n (bit-width differences account for the rest)."""
        for n in (256, 1024):
            cmp = key_size_comparison(n)
            assert n / 2 <= cmp["ratio"] <= 2 * n
