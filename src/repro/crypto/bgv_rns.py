"""Leveled BGV over an RNS modulus tower, with modulus switching.

This is the extension the paper's single q = 786433 points at: real
homomorphic evaluation needs a *chain* of moduli so that noise can be
rescaled away after each multiplication.  Everything here runs on the
:mod:`repro.ntt.rns` substrate, i.e. channel-wise on NTT-friendly primes -
each channel is exactly the workload one CryptoPIM softbank group executes.

Implemented machinery (textbook BGV, RNS flavour):

* encryption/decryption over ``Q = q_1 ... q_L``;
* homomorphic add / tensor multiply;
* **RNS relinearization**: the degree-2 component is decomposed into its
  per-prime residues ``d_i = [c_2]_{q_i}`` and recombined through
  key-switching keys encrypting ``s^2 * (Q/q_i) * [(Q/q_i)^{-1}]_{q_i}``
  (the Bajard-style RNS decomposition - digits are naturally small);
* **modulus switching**: dividing by the last prime ``p`` after adding the
  unique small correction ``delta`` with ``delta = -c (mod p)`` and
  ``delta = 0 (mod t)``, which rescales the noise by ``~1/p``.  Plaintexts
  are preserved because the tower primes satisfy ``p = 1 (mod t)``
  (automatic for ``t = 2``; checked otherwise).

With the default three 24-bit primes the scheme evaluates depth-2 binary
circuits with margin; tests exercise exactly that.  Phase, add, tensor and
key switching are :mod:`repro.crypto.algebra`, shared with BGV and BFV;
this module keeps the sampling, the CRT digits, the noise accounting and
modulus switching.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import List, Optional

import numpy as np

from ..ntt.modmath import mod_inverse
from ..ntt.rns import RnsBasis, RnsPolynomial
from . import algebra
from .algebra import RelinearizationKey

__all__ = ["RnsBgvScheme", "RnsBgvCiphertext"]


@dataclass(frozen=True)
class RnsBgvSecretKey:
    s: RnsPolynomial          # at the top basis
    s_int: tuple              # the small integer coefficients (basis-free)


@dataclass
class RnsBgvCiphertext:
    parts: List[RnsPolynomial]
    noise_bound: float

    @property
    def degree(self) -> int:
        return len(self.parts) - 1

    @property
    def level(self) -> int:
        return self.parts[0].basis.levels


class RnsBgvScheme:
    """Leveled BGV over a generated RNS tower.

    Args:
        n: ring degree (power of two).
        t: plaintext modulus; every tower prime must be ``1 (mod t)``.
        levels: number of tower primes (multiplicative depth ~ levels - 1).
        prime_bits: size of each tower prime.
        eta: CBD parameter for secrets/errors.
    """

    def __init__(self, n: int = 1024, t: int = 2, levels: int = 3,
                 prime_bits: int = 24, eta: int = 2,
                 rng: Optional[np.random.Generator] = None):
        if levels < 1:
            raise ValueError("need at least one modulus level")
        if t < 2:
            raise ValueError("plaintext modulus must be >= 2")
        self.n = n
        self.t = t
        self.eta = eta
        self.rng = rng if rng is not None else np.random.default_rng()
        self.basis = RnsBasis.generate(n, levels, bits=prime_bits)
        for p in self.basis.primes:
            if p % t != 1:
                raise ValueError(
                    f"tower prime {p} != 1 (mod t={t}): modulus switching "
                    f"would scale plaintexts"
                )
        self._expansion = 4.0 * sqrt(n)  # high-probability ring growth

    # -- sampling ---------------------------------------------------------------

    def _small_int_poly(self) -> np.ndarray:
        ones_a = self.rng.integers(0, 2, (self.n, self.eta)).sum(axis=1)
        ones_b = self.rng.integers(0, 2, (self.n, self.eta)).sum(axis=1)
        return (ones_a - ones_b).astype(np.int64)

    def _small(self, basis: RnsBasis) -> RnsPolynomial:
        return RnsPolynomial.from_integers(basis, self._small_int_poly().tolist())

    def _uniform(self, basis: RnsBasis) -> RnsPolynomial:
        residues = np.stack([
            self.rng.integers(0, q, self.n).astype(np.uint64)
            for q in basis.primes
        ])
        return RnsPolynomial(basis, residues)

    # -- keys ----------------------------------------------------------------------

    def keygen(self) -> RnsBgvSecretKey:
        s_int = self._small_int_poly()
        return RnsBgvSecretKey(
            s=RnsPolynomial.from_integers(self.basis, s_int.tolist()),
            s_int=tuple(int(x) for x in s_int),
        )

    def relin_keygen(self, sk: RnsBgvSecretKey) -> RelinearizationKey:
        """Per-prime key-switching keys for ``s^2`` at the top basis:
        component ``i`` encrypts ``(Q/q_i) * [(Q/q_i)^-1]_{q_i} * s^2``."""
        big_q = self.basis.modulus
        garner = []
        for q_i in self.basis.primes:
            q_hat = big_q // q_i
            garner.append((q_hat * mod_inverse(q_hat % q_i, q_i)) % big_q)
        return algebra.relin_keygen(
            sk.s, garner, lambda: self._uniform(self.basis),
            lambda: self._small(self.basis), noise_scale=self.t)

    # -- encryption -----------------------------------------------------------------

    def encrypt(self, sk: RnsBgvSecretKey, message: np.ndarray) -> RnsBgvCiphertext:
        msg = np.asarray(message) % self.t
        if msg.shape != (self.n,):
            raise ValueError(f"plaintext must have {self.n} coefficients")
        a = self._uniform(self.basis)
        e = self._small(self.basis)
        m_poly = RnsPolynomial.from_integers(self.basis, msg.astype(int).tolist())
        c0 = a * sk.s + e.scale(self.t) + m_poly
        return RnsBgvCiphertext(
            parts=[c0, -a],
            noise_bound=float(self.t * (self.eta + 0.5) * 2),
        )

    def _sk_at(self, sk: RnsBgvSecretKey, basis: RnsBasis) -> RnsPolynomial:
        if basis.primes == self.basis.primes:
            return sk.s
        return RnsPolynomial.from_integers(basis, list(sk.s_int))

    def _phase(self, sk: RnsBgvSecretKey, ct: RnsBgvCiphertext) -> RnsPolynomial:
        return algebra.phase(ct.parts, self._sk_at(sk, ct.parts[0].basis))

    def decrypt(self, sk: RnsBgvSecretKey, ct: RnsBgvCiphertext) -> np.ndarray:
        centered = self._phase(sk, ct).to_centered()
        return np.asarray([c % self.t for c in centered], dtype=np.int64)

    def decryption_noise(self, sk: RnsBgvSecretKey, ct: RnsBgvCiphertext) -> int:
        return self._phase(sk, ct).infinity_norm()

    def noise_budget_bits(self, ct: RnsBgvCiphertext) -> float:
        modulus = ct.parts[0].basis.modulus
        return float(np.log2(modulus / 2.0 / max(ct.noise_bound, 1e-9)))

    # -- homomorphic operations ---------------------------------------------------------

    def add(self, x: RnsBgvCiphertext, y: RnsBgvCiphertext) -> RnsBgvCiphertext:
        if x.level != y.level:
            raise ValueError("level mismatch: modulus-switch first")
        return RnsBgvCiphertext(algebra.add(x.parts, y.parts),
                                x.noise_bound + y.noise_bound)

    def multiply(self, x: RnsBgvCiphertext, y: RnsBgvCiphertext) -> RnsBgvCiphertext:
        if x.level != y.level:
            raise ValueError("level mismatch: modulus-switch first")
        [parts] = algebra.tensor([(x.parts, y.parts)])
        return RnsBgvCiphertext(
            parts, x.noise_bound * y.noise_bound * self._expansion)

    def relinearize(self, ct: RnsBgvCiphertext,
                    rlk: RelinearizationKey) -> RnsBgvCiphertext:
        if ct.degree != 2:
            raise ValueError("relinearization expects a degree-2 ciphertext")
        basis = ct.parts[0].basis
        if basis.primes != self.basis.primes:
            raise ValueError("relinearize before modulus switching")
        c0, c1, c2 = ct.parts
        # RNS digits: the channel-i residues, lifted to the whole basis;
        # the 2L key-switching products share one batched call per prime.
        digits = [
            RnsPolynomial.from_integers(basis, [int(v) for v in c2.residues[i]])
            for i in range(basis.levels)
        ]
        new0, new1 = algebra.key_switch(c0, c1, digits, rlk)
        worst_digit = max(basis.primes)
        switch_noise = (self.t * basis.levels * worst_digit * self.eta
                        * self._expansion)
        return RnsBgvCiphertext([new0, new1], ct.noise_bound + switch_noise)

    def mod_switch(self, ct: RnsBgvCiphertext) -> RnsBgvCiphertext:
        """Drop the last tower prime, rescaling the noise by ~1/p."""
        basis = ct.parts[0].basis
        if basis.levels < 2:
            raise ValueError("already at the lowest level")
        p = basis.primes[-1]
        p_inv_t = mod_inverse(p % self.t, self.t)
        assert p_inv_t == 1, "tower primes are 1 mod t by construction"
        new_parts = []
        for part in ct.parts:
            # d = centered [c]_p per coefficient
            last = part.residues[-1].astype(np.int64)
            d = np.where(last > p // 2, last - p, last)
            # correction delta = -d + p*k with k = d * p^-1 mod t (centered)
            k = (d % self.t) * p_inv_t % self.t
            k = np.where(k > self.t // 2, k - self.t, k)
            delta = -d + p * k
            # numerator (c + delta) on the remaining channels, then /p
            numerators = []
            for i, q in enumerate(basis.primes[:-1]):
                channel = (part.residues[i].astype(np.int64) + delta) % q
                numerators.append(channel.astype(np.uint64))
            new_parts.append(part.exact_divide_drop(np.stack(numerators)))
        # noise' ~ noise/p + t * (1 + ||s||_1-ish) expansion of delta
        switch_noise = self.t * (1 + self.eta * self._expansion) * (1 + self.t)
        return RnsBgvCiphertext(
            new_parts,
            ct.noise_bound / p + switch_noise,
        )
