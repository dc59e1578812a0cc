"""Dilithium-style lattice signatures (Fiat-Shamir with aborts, simplified).

Digital signatures are the other half of the NIST post-quantum portfolio
the paper's introduction motivates; CRYSTALS-Dilithium works over
``Z_q[x]/(x^256 + 1)`` with ``q = 8380417 = 2^23 - 2^13 + 1`` - another
NTT-friendly prime, and another ring CryptoPIM's generalised shift-add
reductions handle out of the box (see the generalised-Algorithm-3 property
tests).  Signing is NTT-bound: every attempt computes the matrix-vector
product ``A y`` (``k * l`` ring multiplications), so the accelerator is
again the hot loop.

Simplifications vs the standardised scheme (this is a workload, not a
production signer): no public-key compression (t is published in full, so
no hint mechanism is needed), and the signer's second rejection check
verifies ``HighBits(w - c s2) == HighBits(w)`` directly - the condition
the standard's low-bits bound exists to guarantee - which sidesteps the
decomposition border cases while preserving both the abort loop and the
verification equation ``HighBits(A z - c t) == HighBits(w)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..ntt.modmath import nth_root_of_unity
from ..ntt.params import NttParams
from ..ntt.polynomial import MultiplierBackend, Polynomial

__all__ = ["DilithiumParams", "DilithiumSigner", "Signature"]

#: the Dilithium prime: 2^23 - 2^13 + 1 (supports 512-th roots: 2^13 | q-1)
DILITHIUM_Q = 8380417


@dataclass(frozen=True)
class DilithiumParams:
    """Scheme parameters (defaults shrunk from Dilithium2 for simulation
    speed while keeping every mechanism intact)."""

    n: int = 256
    q: int = DILITHIUM_Q
    k: int = 2          # rows of A
    l: int = 2          # columns of A
    eta: int = 2        # secret coefficient bound
    tau: int = 39       # challenge Hamming weight
    gamma1: int = 1 << 17  # mask range
    gamma2: int = (DILITHIUM_Q - 1) // 88  # decomposition step

    @property
    def beta(self) -> int:
        """Worst-case ||c * s||_inf given tau and eta."""
        return self.tau * self.eta


@dataclass(frozen=True)
class DilithiumPublicKey:
    matrix: List[List[Polynomial]]  # A (k x l)
    t: List[Polynomial]


@dataclass(frozen=True)
class DilithiumSecretKey:
    s1: List[Polynomial]
    s2: List[Polynomial]


@dataclass(frozen=True)
class Signature:
    z: List[Polynomial]
    challenge_seed: bytes
    attempts: int  # abort-loop iterations (diagnostic)


class DilithiumSigner:
    """Key generation, signing and verification."""

    def __init__(self, params: Optional[DilithiumParams] = None,
                 backend: Optional[MultiplierBackend] = None,
                 rng: Optional[np.random.Generator] = None):
        self.params = params if params is not None else DilithiumParams()
        p = self.params
        if p.n & (p.n - 1) or (p.q - 1) % (2 * p.n) != 0:
            raise ValueError("ring does not support a negacyclic NTT")
        phi = nth_root_of_unity(2 * p.n, p.q)
        self.ring = NttParams(n=p.n, q=p.q, bitwidth=max(16, p.q.bit_length()),
                              w=pow(phi, 2, p.q), phi=phi)
        self.backend = backend
        self.rng = rng if rng is not None else np.random.default_rng()

    # -- helpers ---------------------------------------------------------------

    def _attach(self, poly: Polynomial) -> Polynomial:
        return poly.with_backend(self.backend) if self.backend else poly

    def _poly(self, coeffs: np.ndarray) -> Polynomial:
        return self._attach(Polynomial(coeffs, self.ring))

    def _uniform(self) -> Polynomial:
        return self._poly(self.rng.integers(0, self.ring.q, self.ring.n))

    def _small(self, bound: int) -> Polynomial:
        return self._poly(self.rng.integers(-bound, bound + 1, self.ring.n))

    def _matvec(self, matrix: List[List[Polynomial]],
                vector: List[Polynomial]) -> List[Polynomial]:
        out = []
        for row in matrix:
            acc = self._attach(Polynomial.zero(self.ring))
            for entry, v in zip(row, vector):
                acc = acc + entry * v
            out.append(acc)
        return out

    def _high_bits(self, poly: Polynomial) -> np.ndarray:
        """Coefficient-wise high part of the centered representative."""
        alpha = 2 * self.params.gamma2
        centered = poly.centered_coeffs()
        low = ((centered + self.params.gamma2) % alpha) - self.params.gamma2
        return ((centered - low) // alpha).astype(np.int64)

    def _challenge(self, message: bytes, w1: List[np.ndarray]) -> Tuple[bytes, Polynomial]:
        """Fiat-Shamir challenge: tau +-1 coefficients from H(message, w1)."""
        hasher = hashlib.sha256()
        hasher.update(message)
        for part in w1:
            hasher.update(part.astype(np.int64).tobytes())
        seed = hasher.digest()
        return seed, self._challenge_from_seed(seed)

    def _challenge_from_seed(self, seed: bytes) -> Polynomial:
        stream = np.random.default_rng(list(seed))
        coeffs = np.zeros(self.ring.n, dtype=np.int64)
        positions = stream.choice(self.ring.n, size=self.params.tau,
                                  replace=False)
        coeffs[positions] = stream.choice([-1, 1], size=self.params.tau)
        return self._poly(coeffs)

    # -- the scheme ----------------------------------------------------------------

    def keygen(self) -> Tuple[DilithiumPublicKey, DilithiumSecretKey]:
        p = self.params
        matrix = [[self._uniform() for _ in range(p.l)] for _ in range(p.k)]
        s1 = [self._small(p.eta) for _ in range(p.l)]
        s2 = [self._small(p.eta) for _ in range(p.k)]
        t = [wi + s2i for wi, s2i in zip(self._matvec(matrix, s1), s2)]
        return DilithiumPublicKey(matrix=matrix, t=t), DilithiumSecretKey(s1=s1, s2=s2)

    def sign(self, sk: DilithiumSecretKey, pk: DilithiumPublicKey,
             message: bytes, max_attempts: int = 1000) -> Signature:
        p = self.params
        for attempt in range(1, max_attempts + 1):
            y = [self._small(p.gamma1 - 1) for _ in range(p.l)]
            w = self._matvec(pk.matrix, y)
            w1 = [self._high_bits(wi) for wi in w]
            seed, c = self._challenge(message, w1)
            z = [yi + c * s1i for yi, s1i in zip(y, sk.s1)]
            # rejection 1: z must not leak s1
            if max(zi.infinity_norm() for zi in z) >= p.gamma1 - p.beta:
                continue
            # rejection 2: the verifier's reconstruction must round the
            # same way (see module docstring)
            w_minus = [wi - c * s2i for wi, s2i in zip(w, sk.s2)]
            if any(not np.array_equal(self._high_bits(a), b)
                   for a, b in zip(w_minus, w1)):
                continue
            return Signature(z=z, challenge_seed=seed, attempts=attempt)
        raise RuntimeError("signing failed to converge (raise max_attempts)")

    def verify(self, pk: DilithiumPublicKey, message: bytes,
               signature: Signature) -> bool:
        p = self.params
        if len(signature.z) != p.l:
            return False
        if max(zi.infinity_norm() for zi in signature.z) >= p.gamma1 - p.beta:
            return False
        c = self._challenge_from_seed(signature.challenge_seed)
        az = self._matvec(pk.matrix, signature.z)
        reconstructed = [azi - c * ti for azi, ti in zip(az, pk.t)]
        w1 = [self._high_bits(ri) for ri in reconstructed]
        hasher = hashlib.sha256()
        hasher.update(message)
        for part in w1:
            hasher.update(part.astype(np.int64).tobytes())
        return hasher.digest() == signature.challenge_seed

    def multiplications_per_attempt(self) -> int:
        """Ring products per signing attempt: ``k*l`` for A*y plus ``l``
        for c*s1 plus ``k`` for c*s2."""
        p = self.params
        return p.k * p.l + p.l + p.k
