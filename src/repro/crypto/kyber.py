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
from ..ntt.polynomial import MultiplierBackend, Polynomial, multiply_rows
from ..ntt.transform import NttEngine
from .sampling import MAX_CBD_ETA, cbd_block

__all__ = ["KyberPke", "KyberPublicKey", "KyberSecretKey", "KyberCiphertext",
           "KyberKem"]


def _ntt_domain(block: np.ndarray, params: NttParams) -> np.ndarray:
    """A ``(..., n)`` key block in the NTT domain of its ring's engine."""
    rows = block.reshape(-1, params.n)
    return NttEngine.shared(params).to_ntt_many(rows).reshape(block.shape)


def _reduce_once(x: np.ndarray, q: int) -> np.ndarray:
    """``x mod q`` for ``uint64`` values below ``2q``, in place: a
    conditional subtract (``x - q`` wraps above ``x`` where ``x < q``),
    several times cheaper than ``uint64 %``."""
    return np.minimum(x, x - np.uint64(q), out=x)


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

    @cached_property
    def matrix(self) -> np.ndarray:
        """``hat`` as the float matrix every encryption's ``dot_many``
        multiplies by."""
        return NttEngine.shared(self.t[0].params).dot_matrix(self.hat)


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

    @cached_property
    def matrix(self) -> np.ndarray:
        """``hat`` as the float matrix every decryption's ``dot_many``
        multiplies by."""
        return NttEngine.shared(self.s[0].params).dot_matrix(self.hat)


class KyberCiphertext:
    """A ciphertext ``(u, v)`` as one read-only ``(k + 1, n)`` ``uint64``
    block of canonical residues: rows ``0..k-1`` are ``u``, row ``k`` is
    ``v``.

    ``u`` and ``v`` are :class:`Polynomial` views of the block's rows,
    built on first read.  ``KyberCiphertext(u=..., v=...)`` stacks the
    parts into a block of their own when they are ring elements of one
    ring; any other parts are kept as given, with no block and no ring
    (``block`` and ``params`` are ``None``), so a malformed ciphertext can
    still be built and is refused by whatever checks it.
    """

    __slots__ = ("block", "params", "_backend", "_u", "_v")
    block: Optional[np.ndarray]
    params: Optional[NttParams]

    def __init__(self, u: Sequence[Polynomial], v: Polynomial):
        parts = list(u) + [v] if isinstance(u, (list, tuple)) else []
        if (len(parts) > 1
                and all(isinstance(p, Polynomial) for p in parts)
                and all(p.n == v.n and p.q == v.q for p in parts)):
            block = np.stack([p.coeffs for p in parts])
            block.setflags(write=False)
            self._init(block, v.params, v._backend)
        else:
            self.block = self.params = self._backend = None
            self._u, self._v = u, v

    def _init(self, block: np.ndarray, params: NttParams,
              backend: Optional[MultiplierBackend]) -> None:
        self.block = block
        self.params = params
        self._backend = backend
        self._u = self._v = None

    @classmethod
    def _from_block(cls, block: np.ndarray, params: NttParams,
                    backend: Optional[MultiplierBackend]) -> "KyberCiphertext":
        """Adopt a read-only ``(k + 1, n)`` block of canonical residues
        this package made, without copying or checking it."""
        ct = cls.__new__(cls)
        ct._init(block, params, backend)
        return ct

    def _row(self, row: np.ndarray) -> Polynomial:
        return Polynomial._from_residues(row, self.params, self._backend)

    @property
    def u(self) -> List[Polynomial]:
        if self._u is None and self.block is not None:
            self._u = [self._row(row) for row in self.block[:-1]]
        return self._u

    @property
    def v(self) -> Polynomial:
        if self._v is None and self.block is not None:
            self._v = self._row(self.block[-1])
        return self._v

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KyberCiphertext):
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __repr__(self) -> str:
        return f"KyberCiphertext(u={self.u!r}, v={self.v!r})"


class KyberPke:
    """Kyber-lite CPA-PKE with module rank ``k`` (Kyber512 uses k=2).

    Keys hold :class:`Polynomial` objects, but the scheme itself runs on
    ``(count, k + 1, n)`` residue blocks from the noise draw to the
    result: one noise draw, one ``dot_many`` against the key's cached
    float matrix and one fused reduction per batch of messages, whatever
    its size.  Each ciphertext is one ``(k + 1, n)`` row of the batch's
    result block (:class:`KyberCiphertext`).

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
        if not 1 <= eta <= MAX_CBD_ETA:
            raise ValueError(f"eta must be in [1, {MAX_CBD_ETA}]")
        self.k = k
        self.eta = eta
        self.params: NttParams = params_for_degree(256)
        self.backend = backend
        self.rng = rng if rng is not None else np.random.default_rng()

    def _noise(self, count: int, polys: int) -> np.ndarray:
        """``(count, polys, n)`` CBD_eta residues from one byte-stream draw.

        :func:`~repro.crypto.sampling.cbd_block` reads the generator
        exactly as ``count * polys`` successive
        :func:`~repro.crypto.sampling.cbd_poly` calls would, so batches
        reproduce sequential sampling bit for bit.
        """
        return cbd_block(self.rng, self.eta, (count, polys, self.params.n),
                         self.params.q)

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
        a key's ``(rows, k, n)`` block and a ``(count, k, n)`` block, as a
        fresh ``(count, rows, n)`` block the caller may write to.

        The one dispatch rule: a backend with ``dot_many`` (the default
        :class:`NttEngine`) sums the products against the key's cached
        float ``matrix`` in one float-resident call - ``2k + 1`` transforms
        per encryption and ``k + 1`` per decryption instead of three per
        product.  Any other backend (CryptoPIM, the segmented and dataflow
        models) multiplies every pair in one :func:`multiply_rows` call,
        so the accelerator still sees each product.
        """
        count, k, n = operands.shape
        rows = key.block.shape[0]
        backend = self._backend()
        if hasattr(backend, "dot_many"):
            return backend.dot_many(key.matrix, operands)
        pairs = np.broadcast_to(operands[:, None], (count, rows, k, n))
        products = self._products(key.block.reshape(rows * k, n),
                                  pairs.reshape(count, rows * k, n))
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

        The tail is fused over the ``(count, k + 1, n)`` result: ``e1`` and
        ``e2`` are one add, the message term goes to row ``k``,
        and two conditional subtracts reduce the whole block (its entries
        are below ``2q + q // 2``).  The block is fresh, never a
        workspace, and read-only once reduced; each ciphertext is one of
        its rows.
        """
        block = np.asarray(messages)
        if block.ndim != 2 or block.shape[1] != self.params.n:
            raise ValueError(
                f"messages must be (count, {self.params.n}) bits")
        count, k, q = block.shape[0], self.k, self.params.q
        noise = self._noise(count, 2 * k + 1)     # r, e1, e2 per message
        out = self._dot(pk, noise[:, :k])         # A^T r, then t . r
        out += noise[:, k:]
        out[:, k] += block.astype(np.uint64) * np.uint64(q // 2)
        _reduce_once(_reduce_once(out, q), q)
        out.setflags(write=False)
        return [KyberCiphertext._from_block(row, self.params, self.backend)
                for row in out]

    def decrypt_many(self, sk: KyberSecretKey,
                     cts: Sequence[KyberCiphertext]) -> List[np.ndarray]:
        """Decrypt many ciphertexts; all ``count * k`` products batched."""
        return list(self._decrypt_block(sk, cts).astype(np.int64))

    def _decrypt_block(self, sk: KyberSecretKey,
                       cts: Sequence[KyberCiphertext]) -> np.ndarray:
        """The ``(count, n)`` boolean message bits of ``cts``.

        A bit is set where ``v - s . u`` is nearer ``q/2`` than 0: for a
        residue ``x`` in ``[0, q)``, ``|centered(x)| > q//4`` is the one
        range test ``q//4 < x < q - q//4``, which one wrapping ``uint64``
        subtract and compare decide.
        """
        q, n, k = self.params.q, self.params.n, self.k
        if not cts:
            return np.zeros((0, n), dtype=bool)
        low = q // 4 + 1
        blocks = np.stack([ct.block for ct in cts])
        noisy = self._dot(sk, blocks[:, :k])[:, 0]    # s . u
        np.subtract(blocks[:, k], noisy, out=noisy)    # v - s . u, wrapping
        noisy += np.uint64(q)
        _reduce_once(noisy, q)
        noisy -= np.uint64(low)                        # wraps below low
        return noisy < np.uint64(q - q // 4 - low)


class KyberKem:
    """CPA-KEM over :class:`KyberPke`: encaps/decaps for serving traffic.

    The shared secret is ``H(m)`` for a uniformly random message ``m`` -
    the hashing shell of a KEM without the Fujisaki-Okamoto re-encryption
    check (this class is the *workload*, sized exactly like Kyber's
    encaps and decaps inner operations, for the request-serving layer).
    """

    def __init__(self, k: int = 2, eta: int = 3,
                 backend: Optional[MultiplierBackend] = None,
                 rng: Optional[np.random.Generator] = None):
        self.pke = KyberPke(k=k, eta=eta, backend=backend, rng=rng)

    @staticmethod
    def _kdf(bits: np.ndarray) -> List[bytes]:
        """``H(m)`` of every row of a ``(count, n)`` block of message bits,
        each hashed from one row of a single ``uint8`` block."""
        block = np.ascontiguousarray(bits, dtype=np.uint8)
        return [hashlib.sha3_256(row).digest() for row in block]

    def keygen(self) -> tuple[KyberPublicKey, KyberSecretKey]:
        return self.pke.keygen()

    def encapsulate(self, pk: KyberPublicKey) -> Tuple[KyberCiphertext, bytes]:
        return self.encapsulate_many(pk, 1)[0]

    def encapsulate_many(
            self, pk: KyberPublicKey,
            count: int) -> List[Tuple[KyberCiphertext, bytes]]:
        """``count`` encapsulations whose ring products share one batch."""
        bits = self.pke.rng.integers(0, 2, (count, self.pke.params.n))
        return list(zip(self.pke.encrypt_many(pk, bits), self._kdf(bits)))

    def decapsulate(self, sk: KyberSecretKey, ct: KyberCiphertext) -> bytes:
        return self.decapsulate_many(sk, [ct])[0]

    def decapsulate_many(self, sk: KyberSecretKey,
                         cts: List[KyberCiphertext]) -> List[bytes]:
        return self._kdf(self.pke._decrypt_block(sk, cts))
