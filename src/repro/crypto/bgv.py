"""BGV-flavoured leveled homomorphic encryption (symmetric key).

Homomorphic encryption is the workload that pushes polynomial degrees to
the 2k-32k range CryptoPIM is sized for (the paper cites Microsoft SEAL
and its q = 786433).  This module implements the BGV core over one of
those rings:

* encryption of plaintexts in ``R_t`` with noise ``t * e``
  (``c0 + c1*s = m + t*e (mod q)``);
* homomorphic addition;
* homomorphic multiplication with ciphertext-degree growth;
* **relinearization** back to degree-1 ciphertexts through base-T
  key-switching keys (the standard digit-decomposition technique);
* explicit noise accounting: every ciphertext carries a conservative
  noise *bound*, decryption exposes the *actual* noise, and tests check
  bound >= actual.

This is one modulus level (no modulus switching), which is the regime the
paper's single-q evaluation lives in; the point is exercising large-degree
multiplications, not a production HE library.  The ciphertext algebra
(phase, add, tensor, key switching) is :mod:`repro.crypto.algebra`; this
module keeps the encoding, the base-T digits and the noise accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log
from typing import List, Optional

import numpy as np

from ..ntt.params import params_for_degree
from ..ntt.polynomial import MultiplierBackend, Polynomial
from . import algebra
from .algebra import RelinearizationKey
from .rlwe import RingScheme

__all__ = ["BgvScheme", "BgvCiphertext", "BgvSecretKey"]


@dataclass(frozen=True)
class BgvSecretKey:
    s: Polynomial


@dataclass
class BgvCiphertext:
    """A ciphertext polynomial vector ``(c_0, ..., c_d)`` decrypting via
    ``sum_i c_i * s^i``, plus a conservative noise bound."""

    parts: List[Polynomial]
    noise_bound: float

    @property
    def degree(self) -> int:
        return len(self.parts) - 1


class BgvScheme(RingScheme):
    """Symmetric BGV over ``Z_q[x]/(x^n+1)`` with plaintext modulus ``t``.

    Args:
        n: ring degree (>= 2048 selects the paper's HE modulus 786433).
        t: plaintext modulus, coprime to q.  With the paper's single
            20-bit modulus the noise headroom supports one multiplicative
            level at t=2 (binary plaintexts); deeper circuits would need
            the larger RNS moduli of a full SEAL-class library.
        eta: CBD noise parameter for secrets and errors.
        relin_base: digit base T for key switching (smaller = less noise
            per relinearization, more ring multiplications).
        backend: ring multiplier (CryptoPIM or software).
    """

    def __init__(self, n: int = 2048, t: int = 2, eta: int = 2,
                 relin_base: int = 16,
                 backend: Optional[MultiplierBackend] = None,
                 rng: Optional[np.random.Generator] = None):
        params = params_for_degree(n)
        if t < 2 or t >= params.q:
            raise ValueError("plaintext modulus must satisfy 2 <= t < q")
        if params.q % t == 0:
            raise ValueError("t must be coprime to q")
        if relin_base < 2:
            raise ValueError("relinearization base must be >= 2")
        super().__init__(params, backend=backend, eta=eta, rng=rng)
        self.t = t
        self.relin_base = relin_base
        #: digits needed to decompose a coefficient of Z_q in base T
        self.relin_digits = int(ceil(log(params.q) / log(relin_base)))
        self._relin_factors = tuple(pow(relin_base, i, params.q)
                                    for i in range(self.relin_digits))

    # -- helpers ---------------------------------------------------------------

    def _fresh_noise_bound(self) -> float:
        # |t*e + m|_inf <= t*eta + t/2, padded by the embedding factor
        return self.t * (self.eta + 0.5) * 2.0

    def noise_budget_bits(self, ct: BgvCiphertext) -> float:
        """log2 of the remaining multiplicative noise headroom."""
        return float(np.log2(self.params.q / 2.0 / max(ct.noise_bound, 1e-9)))

    # -- key generation -------------------------------------------------------------

    def keygen(self) -> BgvSecretKey:
        return BgvSecretKey(s=self._noise())

    def relin_keygen(self, sk: BgvSecretKey) -> RelinearizationKey:
        """Component ``i`` encrypts ``T^i * s^2`` with noise ``t * e_i``."""
        return algebra.relin_keygen(sk.s, self._relin_factors, self._uniform,
                                    self._noise, noise_scale=self.t)

    # -- encryption ---------------------------------------------------------------------

    def encrypt(self, sk: BgvSecretKey, message: np.ndarray) -> BgvCiphertext:
        """Encrypt a plaintext vector over ``Z_t`` (length n)."""
        msg = np.asarray(message) % self.t
        if msg.shape != (self.params.n,):
            raise ValueError(f"plaintext must have {self.params.n} coefficients")
        a = self._uniform()
        e = self._noise()
        m_poly = self._attach(Polynomial(msg.astype(np.int64), self.params))
        c0 = a * sk.s + e.scale(self.t) + m_poly
        c1 = -a
        return BgvCiphertext(parts=[c0, c1],
                             noise_bound=self._fresh_noise_bound())

    def decrypt(self, sk: BgvSecretKey, ct: BgvCiphertext) -> np.ndarray:
        """Decrypt: evaluate at ``s``, center mod q, reduce mod t."""
        return algebra.phase(ct.parts, sk.s).centered_coeffs() % self.t

    def decryption_noise(self, sk: BgvSecretKey, ct: BgvCiphertext) -> int:
        """Actual infinity-norm of the phase - must stay below q/2."""
        return algebra.phase(ct.parts, sk.s).infinity_norm()

    # -- homomorphic operations ----------------------------------------------------------

    def add(self, x: BgvCiphertext, y: BgvCiphertext) -> BgvCiphertext:
        return BgvCiphertext(parts=algebra.add(x.parts, y.parts),
                             noise_bound=x.noise_bound + y.noise_bound)

    def multiply(self, x: BgvCiphertext, y: BgvCiphertext) -> BgvCiphertext:
        """Tensor product: output degree is the sum of input degrees.

        All cross products go through one batched kernel call."""
        return self.multiply_many([(x, y)])[0]

    def multiply_many(self, pairs) -> List[BgvCiphertext]:
        """Tensor products of many ciphertext pairs, one kernel dispatch.

        The serving layer's batch window closes over several independent
        eval requests; :func:`repro.crypto.algebra.tensor` flattens every
        pair's cross products into a single
        :meth:`Polynomial.multiply_pairs` call, amortising kernel dispatch
        across the whole window exactly like the raw-polymul path.
        Bit-identical to ``[self.multiply(x, y) for x, y in pairs]``.
        """
        pairs = list(pairs)
        tensored = algebra.tensor([(x.parts, y.parts) for x, y in pairs])
        # |phase| multiplies, scaled by the ring expansion factor.  The
        # worst case is n, but with high probability random phases grow
        # by ~sqrt(n); we use 4*sqrt(n) as a high-probability bound
        # (tests check actual noise stays below it) because the
        # worst-case factor would declare the paper's single 20-bit
        # modulus unusable.
        return [BgvCiphertext(parts=parts,
                              noise_bound=x.noise_bound * y.noise_bound
                              * 4.0 * float(np.sqrt(self.params.n)))
                for parts, (x, y) in zip(tensored, pairs)]

    def relinearize(self, ct: BgvCiphertext,
                    rlk: RelinearizationKey) -> BgvCiphertext:
        """Reduce a degree-2 ciphertext back to degree 1 via key switching."""
        if ct.degree != 2:
            raise ValueError("relinearization expects a degree-2 ciphertext")
        if rlk.factors != self._relin_factors:
            raise ValueError("relinearization key uses a different base")
        c0, c1, c2 = ct.parts
        # Decompose c2 into base-T digit polynomials; the 2D key-switching
        # products (digit x b_i and digit x a_i) share one batched call.
        coeffs = c2.coeffs.astype(np.int64)
        digits = [self._attach(Polynomial(
                      (coeffs // (self.relin_base ** i)) % self.relin_base,
                      self.params))
                  for i in range(self.relin_digits)]
        new0, new1 = algebra.key_switch(c0, c1, digits, rlk)
        # Key-switching noise: t * sum_i |digit_i * e_i|, with the same
        # high-probability sqrt(n) expansion per digit product.
        switch_noise = (self.t * self.relin_digits * self.relin_base
                        * self.eta * 4.0 * float(np.sqrt(self.params.n)))
        return BgvCiphertext(parts=[new0, new1],
                             noise_bound=ct.noise_bound + switch_noise)
