"""Tests for the RLWE, NewHope, Kyber and BGV schemes."""

import hashlib

import numpy as np
import pytest

from repro.core.accelerator import CryptoPIM
from repro.crypto.bfv import BfvScheme
from repro.crypto.bgv import BgvScheme
from repro.crypto.kyber import (KyberCiphertext, KyberKem, KyberPke,
                                KyberSecretKey)
from repro.crypto.newhope import KEY_BITS, NewHopeKem
from repro.crypto.rlwe import RlweScheme
from repro.crypto.sampling import cbd_poly, uniform_poly
from repro.ntt import transform
from repro.ntt.naive import schoolbook_negacyclic
from repro.ntt.params import params_for_degree
from repro.ntt.polynomial import Polynomial


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestRlwe:
    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_roundtrip(self, n):
        scheme = RlweScheme.for_degree(n, rng=_rng(n))
        pk, sk = scheme.keygen()
        message = _rng(1).integers(0, 2, n)
        ct = scheme.encrypt(pk, message)
        assert np.array_equal(scheme.decrypt(sk, ct), message)

    def test_repeated_roundtrips(self):
        """No decryption failures across many messages (noise margin)."""
        scheme = RlweScheme.for_degree(256, rng=_rng(2))
        pk, sk = scheme.keygen()
        rng = _rng(3)
        for _ in range(25):
            message = rng.integers(0, 2, 256)
            assert np.array_equal(scheme.decrypt(sk, scheme.encrypt(pk, message)),
                                  message)

    def test_noise_below_threshold(self):
        scheme = RlweScheme.for_degree(1024, rng=_rng(4))
        pk, sk = scheme.keygen()
        message = _rng(5).integers(0, 2, 1024)
        ct = scheme.encrypt(pk, message)
        assert scheme.decryption_noise(sk, ct, message) < scheme.params.q // 4

    def test_wrong_key_garbles(self):
        scheme = RlweScheme.for_degree(256, rng=_rng(6))
        pk, _ = scheme.keygen()
        _, sk2 = scheme.keygen()
        message = np.ones(256, dtype=np.int64)
        decrypted = scheme.decrypt(sk2, scheme.encrypt(pk, message))
        assert not np.array_equal(decrypted, message)

    def test_message_validation(self):
        scheme = RlweScheme.for_degree(256, rng=_rng(7))
        pk, _ = scheme.keygen()
        with pytest.raises(ValueError):
            scheme.encrypt(pk, np.zeros(128, dtype=np.int64))
        with pytest.raises(ValueError):
            scheme.encrypt(pk, np.full(256, 2))

    def test_ciphertexts_randomised(self):
        scheme = RlweScheme.for_degree(256, rng=_rng(8))
        pk, _ = scheme.keygen()
        message = np.zeros(256, dtype=np.int64)
        c1 = scheme.encrypt(pk, message)
        c2 = scheme.encrypt(pk, message)
        assert c1.u != c2.u


class TestNewHope:
    @pytest.mark.parametrize("n", [512, 1024])
    def test_agreement(self, n):
        kem = NewHopeKem(n, rng=_rng(n))
        pk, sk = kem.keygen()
        ct, key_enc = kem.encapsulate(pk)
        key_dec = kem.decapsulate(sk, ct)
        assert np.array_equal(key_enc, key_dec)
        assert len(key_enc) == KEY_BITS

    def test_repeated_agreement(self):
        kem = NewHopeKem(512, rng=_rng(10))
        pk, sk = kem.keygen()
        for _ in range(10):
            ct, key_enc = kem.encapsulate(pk)
            assert np.array_equal(kem.decapsulate(sk, ct), key_enc)

    def test_keys_vary(self):
        kem = NewHopeKem(512, rng=_rng(11))
        pk, _ = kem.keygen()
        _, k1 = kem.encapsulate(pk)
        _, k2 = kem.encapsulate(pk)
        assert not np.array_equal(k1, k2)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            NewHopeKem(100)


class TestKyber:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_roundtrip(self, k):
        pke = KyberPke(k=k, rng=_rng(20 + k))
        pk, sk = pke.keygen()
        message = _rng(30).integers(0, 2, 256)
        assert np.array_equal(pke.decrypt(sk, pke.encrypt(pk, message)), message)

    def test_multiplication_count(self):
        assert KyberPke(k=2).multiplications_per_encrypt() == 6
        assert KyberPke(k=3).multiplications_per_encrypt() == 12

    def test_uses_kyber_ring(self):
        pke = KyberPke()
        assert pke.params.n == 256
        assert pke.params.q == 7681

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            KyberPke(k=0)

    @pytest.mark.parametrize("eta", [0, 9])
    def test_eta_outside_the_cbd_table_refused(self, eta):
        with pytest.raises(ValueError):
            KyberPke(eta=eta)

    def test_message_validation(self):
        pke = KyberPke(rng=_rng(31))
        pk, _ = pke.keygen()
        with pytest.raises(ValueError):
            pke.encrypt(pk, np.zeros(128, dtype=np.int64))


def _same_ciphertext(x, y):
    return x.u == y.u and x.v == y.v


def _ciphertext_bytes(ct):
    return b"".join(p.coeffs.tobytes() for p in ct.u + [ct.v])


class TestKyberBatch:
    """Batched Kyber traffic is bit-identical to the per-message API,
    on the batched software engine and on a backend with only
    ``multiply`` (the accelerator's per-row fallback)."""

    @pytest.fixture(params=["engine", "cryptopim"])
    def backend(self, request):
        return CryptoPIM.for_degree(256) if request.param == "cryptopim" else None

    @pytest.mark.parametrize("count", [1, 13, 64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_encapsulate_many_matches_sequential(self, k, count, backend):
        """``encapsulate_many`` draws the ``count`` messages, then encrypts
        them in order: the same as that draw followed by ``count``
        sequential ``encrypt`` calls from the same generator state."""
        kem = KyberKem(k=k, backend=backend, rng=_rng(50 + k))
        pk, sk = kem.keygen()
        state = kem.pke.rng.bit_generator.state
        batch = kem.encapsulate_many(pk, count)
        kem.pke.rng.bit_generator.state = state
        bits = kem.pke.rng.integers(0, 2, (count, 256))
        for m, (ct, key) in enumerate(batch):
            assert _same_ciphertext(ct, kem.pke.encrypt(pk, bits[m]))
            assert key == hashlib.sha3_256(
                bits[m].astype(np.uint8).tobytes()).digest()
        keys = kem.decapsulate_many(sk, [ct for ct, _ in batch])
        assert keys == [key for _, key in batch]
        assert keys == [kem.decapsulate(sk, ct) for ct, _ in batch]

    @pytest.mark.parametrize("count", [1, 13, 64])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_engine_and_accelerator_agree(self, k, count):
        """The engine's NTT-domain dot and the accelerator's per-row
        products give byte-identical keys, ciphertexts and KEM keys."""
        runs = []
        for backend in (None, CryptoPIM.for_degree(256)):
            kem = KyberKem(k=k, backend=backend, rng=_rng(30 + k))
            pk, sk = kem.keygen()
            batch = kem.encapsulate_many(pk, count)
            keys = kem.decapsulate_many(sk, [ct for ct, _ in batch])
            runs.append((pk, sk, batch, keys))
        (pk, sk, batch, keys), (pk1, sk1, batch1, keys1) = runs
        assert pk.seed_matrix == pk1.seed_matrix and pk.t == pk1.t
        assert sk.s == sk1.s
        for (ct, key), (ct1, key1) in zip(batch, batch1, strict=True):
            assert _same_ciphertext(ct, ct1) and key == key1
            assert _ciphertext_bytes(ct) == _ciphertext_bytes(ct1)
        assert keys == keys1 == [key for _, key in batch]

    def test_key_hats_are_row_contiguous(self):
        # the NTT-domain sums broadcast against the cached key rows
        pk, sk = KyberKem(k=2, rng=_rng(90)).keygen()
        assert pk.hat.flags.c_contiguous and sk.hat.flags.c_contiguous

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_encapsulate_is_batch_of_one(self, k, backend):
        kem = KyberKem(k=k, backend=backend, rng=_rng(60 + k))
        pk, _ = kem.keygen()
        state = kem.pke.rng.bit_generator.state
        single = [kem.encapsulate(pk) for _ in range(3)]
        kem.pke.rng.bit_generator.state = state
        batches = [kem.encapsulate_many(pk, 1)[0] for _ in range(3)]
        for (ct, key), (ct1, key1) in zip(single, batches):
            assert _same_ciphertext(ct, ct1) and key == key1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_encrypt_decrypt_many_match_single(self, k, backend):
        pke = KyberPke(k=k, backend=backend, rng=_rng(70 + k))
        pk, sk = pke.keygen()
        messages = _rng(71).integers(0, 2, (13, 256))
        state = pke.rng.bit_generator.state
        many = pke.encrypt_many(pk, messages)
        pke.rng.bit_generator.state = state
        for message, ct in zip(messages, many):
            assert _same_ciphertext(ct, pke.encrypt(pk, message))
        decrypted = pke.decrypt_many(sk, many)
        for message, ct, bits in zip(messages, many, decrypted):
            assert np.array_equal(bits, pke.decrypt(sk, ct))
            assert np.array_equal(bits, message)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_polynomial_reference(self, k):
        """The residue blocks reproduce the textbook construction on
        ring elements, with every noise polynomial a successive
        ``cbd_poly`` draw: ``t = A s + e``, ``u = A^T r + e1`` and
        ``v = t . r + e2 + round(q/2) m``."""
        pke = KyberPke(k=k, rng=_rng(90 + k))
        p, rng, eta = pke.params, pke.rng, pke.eta
        zero = Polynomial.zero(p)
        state = rng.bit_generator.state
        pk, sk = pke.keygen()
        message = _rng(91).integers(0, 2, 256)
        ct = pke.encrypt(pk, message)
        rng.bit_generator.state = state
        a = [[uniform_poly(p, rng) for _ in range(k)] for _ in range(k)]
        s = [cbd_poly(p, rng, eta) for _ in range(k)]
        e = [cbd_poly(p, rng, eta) for _ in range(k)]
        t = [sum((a[i][j] * s[j] for j in range(k)), zero) + e[i]
             for i in range(k)]
        assert pk.seed_matrix == a and pk.t == t and sk.s == s
        r = [cbd_poly(p, rng, eta) for _ in range(k)]
        e1 = [cbd_poly(p, rng, eta) for _ in range(k)]
        e2 = cbd_poly(p, rng, eta)
        u = [sum((a[j][i] * r[j] for j in range(k)), zero) + e1[i]
             for i in range(k)]
        v = (sum((t[i] * r[i] for i in range(k)), zero) + e2
             + Polynomial(message * (p.q // 2), p))
        assert ct.u == u and ct.v == v

    def test_accelerator_counts_every_product(self):
        acc = CryptoPIM.for_degree(256)
        pke = KyberPke(k=2, backend=acc, rng=_rng(80))
        pk, sk = pke.keygen()
        before = acc.multiplications
        cts = pke.encrypt_many(pk, _rng(81).integers(0, 2, (5, 256)))
        assert acc.multiplications - before == 5 * pke.multiplications_per_encrypt()
        pke.decrypt_many(sk, cts)
        assert acc.multiplications - before == 5 * (6 + 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ciphertext_rows_are_canonical(self, k, backend):
        """``encrypt_many`` wraps its already-reduced ``u`` and ``v`` rows
        as they are: ``uint64`` residues in ``[0, q)``, read-only, each a
        view of its own ciphertext's block and of no other's."""
        pke = KyberPke(k=k, backend=backend, rng=_rng(84 + k))
        pk, _ = pke.keygen()
        cts = pke.encrypt_many(pk, _rng(85).integers(0, 2, (5, 256)))
        polys = [(ct, poly) for ct in cts for poly in ct.u + [ct.v]]
        assert len(polys) == 5 * (k + 1)
        for ct, poly in polys:
            assert poly.coeffs.dtype == np.uint64
            assert poly.coeffs.shape == (256,)
            assert int(poly.coeffs.max()) < pke.params.q
            assert not poly.coeffs.flags.writeable
            assert [np.shares_memory(poly.coeffs, other.block)
                    for other in cts] == [other is ct for other in cts]

    def test_seeded_outputs_are_pinned(self, backend):
        """sha256 over seeded ciphertexts and shared secrets.  Only a
        deliberate change to sampling or to the scheme may move it."""
        digest = hashlib.sha256()
        for seed in (3, 11):
            kem = KyberKem(rng=_rng(seed), backend=backend)
            pk, sk = kem.keygen()
            out = kem.encapsulate_many(pk, 13) + [kem.encapsulate(pk)]
            for ct, secret in out:
                for poly in ct.u + [ct.v]:
                    digest.update(poly.coeffs.tobytes())
                digest.update(secret)
            assert kem.decapsulate_many(sk, [ct for ct, _ in out]) == \
                [secret for _, secret in out]
        assert digest.hexdigest() == ("4ad57e156704c4fad19f5e8aec60ba30"
                                      "b784fac607b7171a0400c7414672c401")

    def test_empty_batches(self):
        pke = KyberPke(rng=_rng(82))
        pk, sk = pke.keygen()
        assert pke.encrypt_many(pk, np.zeros((0, 256), dtype=np.int64)) == []
        assert pke.decrypt_many(sk, []) == []

    def test_empty_kem_batches(self, backend):
        kem = KyberKem(backend=backend, rng=_rng(83))
        pk, sk = kem.keygen()
        assert kem.encapsulate_many(pk, 0) == []
        assert kem.decapsulate_many(sk, []) == []
        assert kem.pke.encrypt_many(
            pk, np.zeros((0, 256), dtype=np.int64)) == []


class TestKyberCiphertextBlock:
    """A ciphertext is one read-only ``(k + 1, n)`` block of canonical
    residues; ``u`` and ``v`` are views of its rows."""

    @pytest.fixture(params=["engine", "cryptopim"])
    def backend(self, request):
        return CryptoPIM.for_degree(256) if request.param == "cryptopim" else None

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_blocks_are_read_only_canonical_rows(self, k, backend):
        kem = KyberKem(k=k, backend=backend, rng=_rng(120 + k))
        pk, _ = kem.keygen()
        cts = [ct for ct, _ in kem.encapsulate_many(pk, 7)]
        workspace = getattr(transform._WORKSPACES, "buffers", ())
        for ct in cts:
            block = ct.block
            assert block.shape == (k + 1, 256) and block.dtype == np.uint64
            assert not block.flags.writeable
            assert int(block.max()) < kem.pke.params.q
            assert ct.params is kem.pke.params
            assert not any(np.shares_memory(block, buf) for buf in workspace)
            rows = [p.coeffs for p in ct.u + [ct.v]]
            assert all(np.shares_memory(row, block) for row in rows)
            assert np.array_equal(np.stack(rows), block)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rebuilt_ciphertext_decapsulates_alike(self, k, backend):
        kem = KyberKem(k=k, backend=backend, rng=_rng(130 + k))
        pk, sk = kem.keygen()
        pairs = kem.encapsulate_many(pk, 5)
        rebuilt = [KyberCiphertext(u=ct.u, v=ct.v) for ct, _ in pairs]
        for (ct, _), again in zip(pairs, rebuilt):
            assert again == ct and again.block is not ct.block
            assert np.array_equal(again.block, ct.block)
            assert not again.block.flags.writeable
            assert repr(again) == repr(ct)
        assert kem.decapsulate_many(sk, rebuilt) == \
            kem.decapsulate_many(sk, [ct for ct, _ in pairs]) == \
            [key for _, key in pairs]

    def test_malformed_parts_build_without_a_block(self):
        kem = KyberKem(rng=_rng(140))
        pk, _ = kem.keygen()
        ct, _ = kem.encapsulate(pk)
        wide = Polynomial.zero(params_for_degree(512))
        for u, v in [(ct.u, None), (ct.u[0], ct.v), ([], ct.v),
                     ([ct.u[0], wide], ct.v), (ct.u, wide)]:
            bad = KyberCiphertext(u=u, v=v)
            assert bad.block is None and bad.params is None
            assert bad.u is u and bad.v is v
            assert bad != ct and repr(bad)
        # the wrong rank is a well-formed block of the wrong shape
        assert KyberCiphertext(u=ct.u[:1], v=ct.v).block.shape == (2, 256)

    def test_decode_is_the_centered_threshold_at_every_residue(self):
        """``v - s . u`` decodes to 1 exactly where its centered residue
        exceeds ``q // 4`` in magnitude: with ``s = 0``, ``v`` walks every
        residue of ``[0, q)``."""
        pke = KyberPke(k=2, rng=_rng(150))
        p = pke.params
        zero = Polynomial.zero(p)
        sk = KyberSecretKey(s=[zero, zero])
        residues = np.arange(-(-p.q // p.n) * p.n) % p.q
        cts = [KyberCiphertext(u=[zero, zero], v=Polynomial(row, p))
               for row in residues.reshape(-1, p.n)]
        bits = np.concatenate(pke.decrypt_many(sk, cts))
        centered = np.where(residues > p.q // 2, residues - p.q, residues)
        assert np.array_equal(bits, np.abs(centered) > p.q // 4)


class TestBgv:
    def test_roundtrip(self):
        bgv = BgvScheme(n=2048, rng=_rng(40))
        sk = bgv.keygen()
        message = _rng(41).integers(0, bgv.t, 2048)
        assert np.array_equal(bgv.decrypt(sk, bgv.encrypt(sk, message)), message)

    def test_homomorphic_add(self):
        bgv = BgvScheme(n=2048, rng=_rng(42))
        sk = bgv.keygen()
        rng = _rng(43)
        m1, m2 = rng.integers(0, 2, 2048), rng.integers(0, 2, 2048)
        total = bgv.add(bgv.encrypt(sk, m1), bgv.encrypt(sk, m2))
        assert np.array_equal(bgv.decrypt(sk, total), (m1 + m2) % bgv.t)

    def test_homomorphic_multiply(self):
        bgv = BgvScheme(n=2048, rng=_rng(44))
        sk = bgv.keygen()
        rng = _rng(45)
        m1, m2 = rng.integers(0, 2, 2048), rng.integers(0, 2, 2048)
        product = bgv.multiply(bgv.encrypt(sk, m1), bgv.encrypt(sk, m2))
        assert product.degree == 2
        expected = np.array(
            schoolbook_negacyclic(m1.tolist(), m2.tolist(), bgv.t))
        assert np.array_equal(bgv.decrypt(sk, product), expected)

    def test_relinearization_preserves_plaintext(self):
        bgv = BgvScheme(n=2048, rng=_rng(46))
        sk = bgv.keygen()
        rlk = bgv.relin_keygen(sk)
        rng = _rng(47)
        m1, m2 = rng.integers(0, 2, 2048), rng.integers(0, 2, 2048)
        product = bgv.multiply(bgv.encrypt(sk, m1), bgv.encrypt(sk, m2))
        relinearised = bgv.relinearize(product, rlk)
        assert relinearised.degree == 1
        assert np.array_equal(bgv.decrypt(sk, relinearised),
                              bgv.decrypt(sk, product))

    def test_noise_bound_dominates_actual(self):
        """The tracked bound must always upper-bound the measured noise."""
        bgv = BgvScheme(n=2048, rng=_rng(48))
        sk = bgv.keygen()
        rlk = bgv.relin_keygen(sk)
        rng = _rng(49)
        m1, m2 = rng.integers(0, 2, 2048), rng.integers(0, 2, 2048)
        c1, c2 = bgv.encrypt(sk, m1), bgv.encrypt(sk, m2)
        for ct in (c1, bgv.add(c1, c2), bgv.multiply(c1, c2),
                   bgv.relinearize(bgv.multiply(c1, c2), rlk)):
            assert bgv.decryption_noise(sk, ct) <= ct.noise_bound

    def test_noise_budget_decreases(self):
        bgv = BgvScheme(n=2048, rng=_rng(50))
        sk = bgv.keygen()
        m = _rng(51).integers(0, 2, 2048)
        fresh = bgv.encrypt(sk, m)
        product = bgv.multiply(fresh, fresh)
        assert bgv.noise_budget_bits(product) < bgv.noise_budget_bits(fresh)
        assert bgv.noise_budget_bits(product) > 0  # one level supported

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BgvScheme(n=2048, t=1)
        with pytest.raises(ValueError):
            BgvScheme(n=2048, relin_base=1)

    @pytest.mark.parametrize("scheme", [BgvScheme, BfvScheme])
    @pytest.mark.parametrize("base", [1, 0, -2])
    def test_relin_base_below_two_is_refused(self, scheme, base):
        # BFV once reached log(q) / log(base) and died dividing by zero
        with pytest.raises(ValueError, match="relinearization base"):
            scheme(n=2048, relin_base=base)

    def test_plaintext_shape_validation(self):
        bgv = BgvScheme(n=2048, rng=_rng(52))
        sk = bgv.keygen()
        with pytest.raises(ValueError):
            bgv.encrypt(sk, np.zeros(100, dtype=np.int64))

    def test_relinearize_requires_degree_two(self):
        bgv = BgvScheme(n=2048, rng=_rng(53))
        sk = bgv.keygen()
        rlk = bgv.relin_keygen(sk)
        fresh = bgv.encrypt(sk, np.zeros(2048, dtype=np.int64))
        with pytest.raises(ValueError):
            bgv.relinearize(fresh, rlk)
