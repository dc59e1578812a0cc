"""Kyber-style module-lattice CPA public-key encryption (simplified).

CRYSTALS-Kyber [15] fixes CryptoPIM's small operating point (n=256,
q=7681 in round 1).  Kyber works over *module* lattices: keys and
ciphertexts are length-``k`` vectors of ring elements, so one encryption
performs ``k^2 + 2k`` ring multiplications of degree 256 - a workload that
exercises the configurable architecture's ability to run many small
multiplications in parallel superbanks.

This implementation is the CPA-secure core (no Fujisaki-Okamoto wrapper,
no ciphertext compression) with the round-1 ring; it is meant as a
realistic accelerator workload and a correctness target, not a
production cipher.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..ntt.params import NttParams, params_for_degree
from ..ntt.polynomial import (MultiplierBackend, Polynomial, centered_block,
                              multiply_rows)
from ..ntt.transform import NttEngine

__all__ = ["KyberPke", "KyberPublicKey", "KyberSecretKey", "KyberCiphertext",
           "KyberKem"]


def _ntt_domain(block: np.ndarray, params: NttParams) -> np.ndarray:
    """A ``(..., n)`` key block in the NTT domain of its ring's engine."""
    rows = block.reshape(-1, params.n)
    return NttEngine.shared(params).to_ntt_many(rows).reshape(block.shape)


@dataclass(frozen=True)
class KyberPublicKey:
    seed_matrix: List[List[Polynomial]]  # the public matrix A (k x k)
    t: List[Polynomial]                  # t = A s + e

    @cached_property
    def block(self) -> np.ndarray:
        """The ``(k + 1, k, n)`` left operand of every encryption: row
        ``i < k`` is ``A^T[i]`` (``A[j][i]`` at ``[i, j]``), row ``k`` is
        ``t``."""
        k = len(self.t)
        rows = [[self.seed_matrix[j][i] for j in range(k)]
                for i in range(k)] + [self.t]
        return np.array([[p.coeffs for p in row] for row in rows])

    @cached_property
    def hat(self) -> np.ndarray:
        """``block`` in the NTT domain: the cached ``A^T`` and ``t``."""
        return _ntt_domain(self.block, self.t[0].params)


@dataclass(frozen=True)
class KyberSecretKey:
    s: List[Polynomial]

    @cached_property
    def block(self) -> np.ndarray:
        """``s`` as a ``(1, k, n)`` block, the left operand of decryption."""
        return np.stack([p.coeffs for p in self.s])[None]

    @cached_property
    def hat(self) -> np.ndarray:
        """``block`` in the NTT domain: the cached ``s``."""
        return _ntt_domain(self.block, self.s[0].params)


@dataclass(frozen=True)
class KyberCiphertext:
    u: List[Polynomial]
    v: Polynomial


class KyberPke:
    """Kyber-lite CPA-PKE with module rank ``k`` (Kyber512 uses k=2).

    Keys and ciphertexts hold :class:`Polynomial` objects, but the scheme
    itself runs on ``(count, k, n)`` residue blocks: one noise draw and
    one block multiply per batch of messages, whatever its size.

    Args:
        k: module rank.
        eta: CBD noise parameter (Kyber round 1: eta in {3, 4, 5} by rank;
            we default to 3 which gives ample decryption margin).
        backend: ring multiplier backend (CryptoPIM or software).
    """

    def __init__(self, k: int = 2, eta: int = 3,
                 backend: Optional[MultiplierBackend] = None,
                 rng: Optional[np.random.Generator] = None):
        if k < 1:
            raise ValueError("module rank k must be >= 1")
        if eta < 1:
            raise ValueError("eta must be >= 1")
        self.k = k
        self.eta = eta
        self.params: NttParams = params_for_degree(256)
        self.backend = backend
        self.rng = rng if rng is not None else np.random.default_rng()

    def _noise(self, count: int, polys: int) -> np.ndarray:
        """``(count, polys, n)`` CBD_eta residues from one generator call.

        The draw consumes the generator exactly as ``count * polys``
        successive :func:`~repro.crypto.sampling.cbd_poly` calls would
        (coins ``a`` then ``b`` per polynomial), so batches reproduce
        sequential sampling bit for bit.  ``int32`` coins take one 32-bit
        draw each, like the default ``int64``, at half the memory.
        """
        coins = self.rng.integers(
            0, 2, (count, polys, 2, self.params.n, self.eta), dtype=np.int32)
        # add the eta coin planes one by one: a reduce over the short
        # trailing axis costs several times more
        ones = coins[..., 0]
        for i in range(1, self.eta):
            ones = ones + coins[..., i]
        return ((ones[:, :, 0] - ones[:, :, 1]) % self.params.q).astype(
            np.uint64)

    def _backend(self) -> MultiplierBackend:
        return self.backend or NttEngine.shared(self.params)

    def _products(self, key: np.ndarray, operands: np.ndarray) -> np.ndarray:
        """Products of a ``(rows, n)`` key block with each ``(rows, n)``
        slice of a ``(count, rows, n)`` block, in one backend call."""
        count, rows, n = operands.shape
        left = np.broadcast_to(key, operands.shape).reshape(-1, n)
        products = multiply_rows(self._backend(), left,
                                 operands.reshape(-1, n))
        return products.reshape(count, rows, n)

    def _dot(self, key, operands: np.ndarray) -> np.ndarray:
        """``out[c, i] = sum_j key.block[i, j] * operands[c, j] mod q`` for
        a key's ``(rows, k, n)`` block and a ``(count, k, n)`` block.

        The one dispatch rule: a backend with ``to_ntt_many`` (the default
        :class:`NttEngine`) transforms each operand once, multiplies and
        sums against the key's cached ``hat`` in the NTT domain, and
        transforms each output row back - ``2k + 1`` transforms per
        encryption and ``k + 1`` per decryption instead of three per
        product.  Any other backend (CryptoPIM, the segmented and dataflow
        models) multiplies every pair in one :func:`multiply_rows` call,
        so the accelerator still sees each product.
        """
        count, k, n = operands.shape
        rows = key.block.shape[0]
        backend = self._backend()
        if hasattr(backend, "to_ntt_many"):
            hat = backend.to_ntt_many(operands.reshape(-1, n))
            sums = backend.pointwise_sum(key.hat,
                                         hat.reshape(count, 1, k, n))
            return backend.from_ntt_many(sums.reshape(-1, n)).reshape(
                count, rows, n)
        pairs = np.broadcast_to(operands[:, None], (count, rows, k, n))
        products = self._products(key.block.reshape(-1, n),
                                  pairs.reshape(count, -1, n))
        return products.reshape(count, rows, k, n).sum(axis=2) % self.params.q

    def _polys(self, block: np.ndarray) -> List[Polynomial]:
        return [Polynomial(row, self.params, self.backend) for row in block]

    # -- the scheme ---------------------------------------------------------

    def keygen(self) -> tuple[KyberPublicKey, KyberSecretKey]:
        k, n, q = self.k, self.params.n, self.params.q
        matrix = self.rng.integers(0, q, (k, k, n), dtype=np.int64)
        s, e = np.split(self._noise(1, 2 * k)[0], 2)
        a_s = self._products(s, matrix.astype(np.uint64)).sum(axis=1)
        t = (a_s + e) % q
        pk = KyberPublicKey(seed_matrix=[self._polys(row) for row in matrix],
                            t=self._polys(t))
        return pk, KyberSecretKey(s=self._polys(s))

    def encrypt(self, pk: KyberPublicKey, message_bits: np.ndarray) -> KyberCiphertext:
        """Encrypt 256 message bits: a batch of one."""
        return self.encrypt_many(pk, np.asarray(message_bits)[None])[0]

    def decrypt(self, sk: KyberSecretKey, ct: KyberCiphertext) -> np.ndarray:
        return self.decrypt_many(sk, [ct])[0]

    def multiplications_per_encrypt(self) -> int:
        """Ring products one encryption performs: ``k^2`` for ``A^T r``
        plus ``k`` for ``t . r`` - the accelerator workload size."""
        return self.k * self.k + self.k

    # -- batched traffic ------------------------------------------------------

    def encrypt_many(self, pk: KyberPublicKey,
                     messages: np.ndarray) -> List[KyberCiphertext]:
        """Encrypt a ``(count, n)`` block of message bits in one batch.

        All ``count * (k^2 + k)`` ring products - every encryption's
        ``A^T r`` and ``t . r`` - run as one batch (:meth:`_dot`), which is
        the shape a serving batch window hands the accelerator: one kernel
        dispatch per window, not per client.  Noise ``r, e1, e2`` is drawn
        per message in submission order, so results match ``encrypt``
        called in sequence with the same generator.
        """
        block = np.asarray(messages)
        if block.ndim != 2 or block.shape[1] != self.params.n:
            raise ValueError(
                f"messages must be (count, {self.params.n}) bits")
        count, k, q = block.shape[0], self.k, self.params.q
        noise = self._noise(count, 2 * k + 1)
        r, e1, e2 = noise[:, :k], noise[:, k:2 * k], noise[:, 2 * k]
        rows = self._dot(pk, r)                   # A^T r, then t . r
        u = (rows[:, :k] + e1) % q
        v = (rows[:, k] + e2
             + block.astype(np.uint64) * np.uint64(q // 2)) % q
        return [KyberCiphertext(u=self._polys(u[m]),
                                v=Polynomial(v[m], self.params, self.backend))
                for m in range(count)]

    def decrypt_many(self, sk: KyberSecretKey,
                     cts: Sequence[KyberCiphertext]) -> List[np.ndarray]:
        """Decrypt many ciphertexts; all ``count * k`` products batched."""
        if not cts:
            return []
        q = self.params.q
        u = np.stack([[p.coeffs for p in ct.u] for ct in cts])
        v = np.stack([ct.v.coeffs for ct in cts])
        s_u = self._dot(sk, u)[:, 0]
        noisy = (v + np.uint64(q) - s_u) % q
        return list((np.abs(centered_block(noisy, q)) > q // 4)
                    .astype(np.int64))


class KyberKem:
    """CPA-KEM over :class:`KyberPke`: encaps/decaps for serving traffic.

    The shared secret is ``H(m)`` for a uniformly random message ``m`` -
    the hashing shell of a KEM without the Fujisaki-Okamoto re-encryption
    check (the CCA wrapper lives in :mod:`repro.crypto.fo_transform`;
    this class is the *workload*, sized exactly like Kyber's encaps and
    decaps inner operations, for the request-serving layer).
    """

    def __init__(self, k: int = 2, eta: int = 3,
                 backend: Optional[MultiplierBackend] = None,
                 rng: Optional[np.random.Generator] = None):
        self.pke = KyberPke(k=k, eta=eta, backend=backend, rng=rng)

    @staticmethod
    def _kdf(message_bits: np.ndarray) -> bytes:
        return hashlib.sha3_256(
            np.asarray(message_bits, dtype=np.uint8).tobytes()).digest()

    def keygen(self) -> tuple[KyberPublicKey, KyberSecretKey]:
        return self.pke.keygen()

    def encapsulate(self, pk: KyberPublicKey) -> Tuple[KyberCiphertext, bytes]:
        return self.encapsulate_many(pk, 1)[0]

    def encapsulate_many(
            self, pk: KyberPublicKey,
            count: int) -> List[Tuple[KyberCiphertext, bytes]]:
        """``count`` encapsulations whose ring products share one batch."""
        bits = self.pke.rng.integers(0, 2, (count, self.pke.params.n))
        cts = self.pke.encrypt_many(pk, bits)
        return [(ct, self._kdf(bits[i])) for i, ct in enumerate(cts)]

    def decapsulate(self, sk: KyberSecretKey, ct: KyberCiphertext) -> bytes:
        return self.decapsulate_many(sk, [ct])[0]

    def decapsulate_many(self, sk: KyberSecretKey,
                         cts: List[KyberCiphertext]) -> List[bytes]:
        return [self._kdf(bits) for bits in self.pke.decrypt_many(sk, cts)]
