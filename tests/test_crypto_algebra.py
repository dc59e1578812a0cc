"""Tests for the shared ring-LWE core: the ciphertext algebra that BGV,
BFV and RNS-BGV route through, and NewHope on the LPR scheme."""

import numpy as np
import pytest

from repro.core.accelerator import CryptoPIM
from repro.crypto import algebra
from repro.crypto.algebra import RelinearizationKey
from repro.crypto.bfv import BfvScheme
from repro.crypto.bgv import BgvScheme
from repro.crypto.bgv_rns import RnsBgvScheme
from repro.crypto.newhope import KEY_BITS, NewHopeKem
from repro.crypto.rlwe import RlweCiphertext, RlwePublicKey, RlweScheme
from repro.ntt.polynomial import Polynomial
from repro.ntt.transform import NttEngine


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count ``NttEngine.multiply_many`` dispatches."""
    calls = []
    original = NttEngine.multiply_many

    def counting(self, a, b):
        calls.append(np.shape(a)[0])
        return original(self, a, b)

    monkeypatch.setattr(NttEngine, "multiply_many", counting)
    return calls


def _degree_two(scheme, sk, seed):
    rng = np.random.default_rng(seed)
    n = scheme.params.n
    return scheme.multiply(scheme.encrypt(sk, rng.integers(0, 2, n)),
                           scheme.encrypt(sk, rng.integers(0, 2, n)))


class TestKeySwitchDispatch:
    @pytest.mark.parametrize("scheme_cls", [BgvScheme, BfvScheme])
    def test_relinearize_is_one_kernel_call(self, scheme_cls, kernel_calls):
        scheme = scheme_cls(n=2048, rng=np.random.default_rng(1))
        sk = scheme.keygen()
        rlk = scheme.relin_keygen(sk)
        product = _degree_two(scheme, sk, 2)
        kernel_calls.clear()
        relin = scheme.relinearize(product, rlk)
        assert kernel_calls == [2 * scheme.relin_digits]
        assert np.array_equal(scheme.decrypt(sk, relin),
                              scheme.decrypt(sk, product))

    def test_tensor_of_many_pairs_is_one_kernel_call(self, kernel_calls):
        scheme = BgvScheme(n=2048, rng=np.random.default_rng(3))
        sk = scheme.keygen()
        rng = np.random.default_rng(4)
        cts = [scheme.encrypt(sk, rng.integers(0, 2, 2048)) for _ in range(3)]
        kernel_calls.clear()
        products = scheme.multiply_many([(cts[0], cts[1]), (cts[1], cts[2]),
                                         (cts[2], cts[0])])
        assert kernel_calls == [12]
        assert [p.degree for p in products] == [2, 2, 2]


class TestPhase:
    def test_bgv_decrypt_uses_only_the_powers_it_needs(self):
        """A degree-d ciphertext costs d products plus d - 1 powers of s."""
        accelerator = CryptoPIM.for_degree(2048)
        scheme = BgvScheme(n=2048, backend=accelerator,
                           rng=np.random.default_rng(5))
        sk = scheme.keygen()
        fresh = scheme.encrypt(sk, np.zeros(2048, dtype=np.int64))
        product = scheme.multiply(fresh, fresh)
        for ct, cost in ((fresh, 1), (product, 3)):
            before = accelerator.multiplications
            scheme.decrypt(sk, ct)
            assert accelerator.multiplications - before == cost
            before = accelerator.multiplications
            scheme.decryption_noise(sk, ct)
            assert accelerator.multiplications - before == cost


class TestAdd:
    def test_unequal_degrees_pad_the_shorter(self, rng):
        params = BgvScheme(n=2048).params
        x = [Polynomial(rng.integers(0, params.q, 2048), params)
             for _ in range(3)]
        y = [Polynomial(rng.integers(0, params.q, 2048), params)
             for _ in range(2)]
        expected = [x[0] + y[0], x[1] + y[1], x[2]]
        assert algebra.add(x, y) == expected
        assert algebra.add(y, x) == expected


class TestRelinearizationKey:
    def test_one_key_class_for_every_scheme(self):
        for scheme in (BgvScheme(n=2048, rng=np.random.default_rng(6)),
                       BfvScheme(n=2048, rng=np.random.default_rng(7)),
                       RnsBgvScheme(n=256, rng=np.random.default_rng(8))):
            rlk = scheme.relin_keygen(scheme.keygen())
            assert isinstance(rlk, RelinearizationKey)
            assert len(rlk.b) == len(rlk.a) == len(rlk.factors)

    def test_bgv_refuses_a_key_of_another_base(self):
        scheme = BgvScheme(n=2048, relin_base=16, rng=np.random.default_rng(9))
        other = BgvScheme(n=2048, relin_base=4, rng=np.random.default_rng(9))
        sk = scheme.keygen()
        with pytest.raises(ValueError, match="different base"):
            scheme.relinearize(_degree_two(scheme, sk, 10),
                               other.relin_keygen(sk))


class TestNewHopeOnLpr:
    def test_kem_is_the_lpr_scheme_with_a_spread_encoding(self):
        kem = NewHopeKem(1024, rng=np.random.default_rng(11))
        assert isinstance(kem, RlweScheme)
        pk, sk = kem.keygen()
        assert isinstance(pk, RlwePublicKey)
        ct, key = kem.encapsulate(pk)
        assert isinstance(ct, RlweCiphertext)
        spread = 1024 // KEY_BITS
        bits = kem.decrypt(sk, ct)
        assert np.array_equal(bits, np.repeat(key, spread))
        assert np.array_equal(kem.decapsulate(sk, ct), key)

    def test_encapsulation_draws_the_key_before_the_lpr_noise(self):
        """Key bits first, then ``r, e1, e2``: the LPR encryption of the
        spread key from the generator state after the key draw."""
        kem = NewHopeKem(512, rng=np.random.default_rng(12))
        pk, _ = kem.keygen()
        state = kem.rng.bit_generator.state
        ct, key = kem.encapsulate(pk)
        kem.rng.bit_generator.state = state
        assert np.array_equal(kem.rng.integers(0, 2, KEY_BITS), key)
        again = kem.encrypt(pk, np.repeat(key, 512 // KEY_BITS))
        assert again.u == ct.u and again.v == ct.v
