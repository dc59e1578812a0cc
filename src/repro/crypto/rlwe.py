"""Ring-LWE public-key encryption (the LPR scheme).

The basic scheme the paper's introduction motivates: all cost lives in
polynomial multiplications over ``R_q = Z_q[x]/(x^n + 1)``, which is
exactly what CryptoPIM accelerates.  The multiplier backend is pluggable:
pass a :class:`~repro.core.accelerator.CryptoPIM` instance to run every
ring product on the simulated accelerator (and collect its timing/energy
reports), or leave the default software NTT engine.

Scheme (Lyubashevsky-Peikert-Regev):

* keygen:  ``s, e <- chi``;  ``a <- U(R_q)``;  ``b = a*s + e``
* encrypt(m in {0,1}^n): ``r, e1, e2 <- chi``;
  ``u = a*r + e1``;  ``v = b*r + e2 + round(q/2) * m``
* decrypt: ``m_i = 1`` iff ``(v - u*s)_i`` is closer to ``q/2`` than to 0.

Decryption succeeds when the accumulated noise stays below ``q/4``; with
the default CBD(eta=2) noise this holds with overwhelming margin for every
parameter set in :mod:`repro.ntt.params`.

:class:`RingScheme` holds what every scheme over one ring shares (the
parameters, noise width, backend and randomness); NewHope runs on this
LPR core, and BGV and BFV build on the same base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..ntt.params import NttParams, params_for_degree
from ..ntt.polynomial import MultiplierBackend, Polynomial
from .sampling import cbd_poly, uniform_poly

__all__ = ["RlwePublicKey", "RlweSecretKey", "RlweCiphertext", "RingScheme",
           "RlweScheme"]


@dataclass(frozen=True)
class RlwePublicKey:
    a: Polynomial
    b: Polynomial


@dataclass(frozen=True)
class RlweSecretKey:
    s: Polynomial


@dataclass(frozen=True)
class RlweCiphertext:
    u: Polynomial
    v: Polynomial


class RingScheme:
    """What every scheme over one ring ``R_q`` shares: its parameters, CBD
    noise width, multiplier backend and source of randomness.

    Args:
        params: ring parameters (degree picks the paper's modulus).
        backend: ring multiplier; defaults to the software NTT engine, pass
            a CryptoPIM accelerator to simulate hardware execution.
        eta: CBD noise parameter.
        rng: source of randomness (seed it for reproducible tests).
    """

    def __init__(
        self,
        params: NttParams,
        backend: Optional[MultiplierBackend] = None,
        eta: int = 2,
        rng: Optional[np.random.Generator] = None,
    ):
        self.params = params
        self.backend = backend
        self.eta = eta
        self.rng = rng if rng is not None else np.random.default_rng()

    def _attach(self, poly: Polynomial) -> Polynomial:
        return poly.with_backend(self.backend) if self.backend else poly

    def _noise(self) -> Polynomial:
        return self._attach(cbd_poly(self.params, self.rng, self.eta))

    def _uniform(self) -> Polynomial:
        return self._attach(uniform_poly(self.params, self.rng))


class RlweScheme(RingScheme):
    """LPR public-key encryption over one parameter set (arguments as
    :class:`RingScheme`)."""

    @classmethod
    def for_degree(cls, n: int, **kwargs) -> "RlweScheme":
        return cls(params_for_degree(n), **kwargs)

    def _encode(self, bits: np.ndarray) -> Polynomial:
        return self._attach(Polynomial(
            np.asarray(bits, dtype=np.int64) * (self.params.q // 2),
            self.params))

    def keygen(self) -> tuple[RlwePublicKey, RlweSecretKey]:
        a = self._uniform()
        s = self._noise()
        e = self._noise()
        b = a * s + e
        return RlwePublicKey(a=a, b=b), RlweSecretKey(s=s)

    def encrypt(self, pk: RlwePublicKey, message_bits: np.ndarray) -> RlweCiphertext:
        """Encrypt an ``n``-bit message (one bit per coefficient)."""
        bits = np.asarray(message_bits)
        if bits.shape != (self.params.n,):
            raise ValueError(f"message must be {self.params.n} bits")
        if np.any((bits != 0) & (bits != 1)):
            raise ValueError("message entries must be 0 or 1")
        r = self._noise()
        e1 = self._noise()
        e2 = self._noise()
        u = pk.a * r + e1
        v = pk.b * r + e2 + self._encode(bits)
        return RlweCiphertext(u=u, v=v)

    def phase(self, sk: RlweSecretKey, ct: RlweCiphertext) -> Polynomial:
        """``v - u*s``: the encoded message plus the decryption noise."""
        return ct.v - ct.u * sk.s

    def decrypt(self, sk: RlweSecretKey, ct: RlweCiphertext) -> np.ndarray:
        """Recover the message bits by threshold decoding."""
        centered = self.phase(sk, ct).centered_coeffs()
        # A coefficient encodes 1 when it sits nearer q/2 than 0.
        return (np.abs(centered) > self.params.q // 4).astype(np.int64)

    def decryption_noise(self, sk: RlweSecretKey, ct: RlweCiphertext,
                         message_bits: np.ndarray) -> int:
        """Infinity-norm of the decryption noise (must stay below q/4)."""
        return (self.phase(sk, ct) - self._encode(message_bits)).infinity_norm()
