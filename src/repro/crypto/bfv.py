"""BFV: scale-invariant homomorphic encryption (the SEAL default).

The paper's HE anchor is Microsoft SEAL, whose default scheme is BFV, not
BGV: plaintexts are scaled *up* by ``Delta = floor(q / t)`` at encryption
and multiplications rescale by ``t / q`` with rounding, so no modulus
chain is needed for shallow circuits.  Implementing it alongside BGV lets
the repository compare the two classic noise-management styles on the
same CryptoPIM rings.

Textbook (symmetric) BFV over ``R_q = Z_q[x]/(x^n + 1)``:

* encrypt:  ``c0 = a*s + e + Delta*m``, ``c1 = -a``
* decrypt:  ``m = round(t/q * [c0 + c1*s]_q) mod t``
* add: component-wise
* multiply: tensor the ciphertexts over the *integers* (no wraparound),
  scale each component by ``t/q`` with exact rational rounding, reduce mod
  q - the wide exact intermediate is computed by CRT over an auxiliary
  NTT-prime tower (see ``_exact_products``);
* relinearize: base-T key switching, as in BGV.

Phase, add, tensor and key switching are :mod:`repro.crypto.algebra`,
shared with BGV and RNS-BGV; this module keeps the ``Delta`` encoding, the
exact product and the ``t/q`` rescaling.

With the paper's single 20-bit modulus and ``t = 2`` one multiplicative
level fits, matching the BGV module; the RNS tower generalises BGV's
depth, BFV here stays single-modulus by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log
from typing import List, Optional

import numpy as np

from ..ntt.params import params_for_degree
from ..ntt.polynomial import MultiplierBackend, Polynomial
from ..ntt.rns import RnsBasis, RnsPolynomial
from . import algebra
from .algebra import RelinearizationKey
from .rlwe import RingScheme

__all__ = ["BfvScheme", "BfvCiphertext", "BfvSecretKey"]


@dataclass(frozen=True)
class BfvSecretKey:
    s: Polynomial


@dataclass
class BfvCiphertext:
    parts: List[Polynomial]

    @property
    def degree(self) -> int:
        return len(self.parts) - 1


class BfvScheme(RingScheme):
    """Symmetric BFV over one paper ring.

    Args:
        n: ring degree (>= 2048 selects q = 786433).
        t: plaintext modulus (t << q; the single 20-bit modulus supports
            one multiplication at t = 2).
        eta: CBD noise parameter.
        relin_base: digit base for the relinearization keys.
    """

    def __init__(self, n: int = 2048, t: int = 2, eta: int = 2,
                 relin_base: int = 16,
                 backend: Optional[MultiplierBackend] = None,
                 rng: Optional[np.random.Generator] = None):
        params = params_for_degree(n)
        if not 2 <= t < params.q:
            raise ValueError("need 2 <= t < q")
        if relin_base < 2:
            raise ValueError("relinearization base must be >= 2")
        super().__init__(params, backend=backend, eta=eta, rng=rng)
        self.t = t
        self.relin_base = relin_base
        self.delta = params.q // t
        self.relin_digits = int(ceil(log(params.q) / log(relin_base)))
        self._relin_factors = tuple(pow(relin_base, i, params.q)
                                    for i in range(self.relin_digits))

    # -- keys ----------------------------------------------------------------------

    def keygen(self) -> BfvSecretKey:
        return BfvSecretKey(s=self._noise())

    def relin_keygen(self, sk: BfvSecretKey) -> RelinearizationKey:
        """Component ``i`` encrypts ``T^i * s^2`` with unscaled noise."""
        return algebra.relin_keygen(sk.s, self._relin_factors, self._uniform,
                                    self._noise, noise_scale=1)

    # -- encrypt / decrypt ------------------------------------------------------------

    def encrypt(self, sk: BfvSecretKey, message: np.ndarray) -> BfvCiphertext:
        msg = np.asarray(message) % self.t
        if msg.shape != (self.params.n,):
            raise ValueError(f"plaintext must have {self.params.n} coefficients")
        a = self._uniform()
        e = self._noise()
        scaled = self._attach(Polynomial(
            (msg.astype(np.int64) * self.delta), self.params))
        return BfvCiphertext(parts=[a * sk.s + e + scaled, -a])

    def decrypt(self, sk: BfvSecretKey, ct: BfvCiphertext) -> np.ndarray:
        phase = algebra.phase(ct.parts, sk.s).centered_coeffs().astype(object)
        q, t = self.params.q, self.t
        # m = round(t * phase / q) mod t, with exact rational rounding
        rounded = [(2 * t * int(p) + q) // (2 * q) for p in phase]
        return np.asarray([r % t for r in rounded], dtype=np.int64)

    def invariant_noise_budget_bits(self, sk: BfvSecretKey,
                                    ct: BfvCiphertext) -> float:
        """SEAL's metric: log2(q / (2t * |noise|)) with noise = distance of
        the phase from the nearest Delta multiple of a message."""
        q, t = self.params.q, self.t
        phase = algebra.phase(ct.parts, sk.s).centered_coeffs()
        worst = 0
        for p in phase:
            # distance to nearest multiple of q/t (rational, scaled by t)
            r = (t * int(p)) % q
            worst = max(worst, min(r, q - r))
        if worst == 0:
            return float(np.log2(q / 2.0))
        return float(np.log2(q / 2.0 / worst))

    # -- homomorphic operations ---------------------------------------------------------

    def add(self, x: BfvCiphertext, y: BfvCiphertext) -> BfvCiphertext:
        return BfvCiphertext(parts=algebra.add(x.parts, y.parts))

    def multiply(self, x: BfvCiphertext, y: BfvCiphertext) -> BfvCiphertext:
        """Tensor over the integers, rescale by t/q, round, reduce mod q.

        The intermediate products are exact because BFV's rounding must
        see values *before* any mod-q wraparound; exactness comes from an
        auxiliary CRT tower wide enough for |coefficients| < n*(q/2)^2.
        """
        return self.multiply_many([(x, y)])[0]

    def multiply_many(self, pairs) -> List[BfvCiphertext]:
        """Rescaled tensor products of many ciphertext pairs at once.

        Every pair's exact cross products share one
        :meth:`_exact_products` invocation (one batched kernel call per
        auxiliary CRT prime), the batch-window shape the serving layer
        dispatches.  Bit-identical to per-pair :meth:`multiply`.
        """
        q, t = self.params.q, self.t
        tensored = algebra.tensor([(x.parts, y.parts) for x, y in pairs],
                                  self._exact_products)
        # each part is an exact integer vector: round t*v/q, reduce mod q
        return [BfvCiphertext(parts=[
                    self._attach(Polynomial(
                        (((2 * t * row + q) // (2 * q)) % q).astype(np.int64),
                        self.params))
                    for row in parts])
                for parts in tensored]

    def _aux(self) -> RnsBasis:
        """The auxiliary CRT tower wide enough for |coeffs| < n*(q/2)^2."""
        if not hasattr(self, "_aux_basis"):
            bound = 2 * self.params.n * (self.params.q // 2) ** 2
            levels = 1
            while True:
                basis = RnsBasis.generate(self.params.n, levels, bits=24)
                if basis.modulus > 2 * bound:
                    break
                levels += 1
            self._aux_basis = basis
        return self._aux_basis

    def _exact_products(self, pairs) -> List[np.ndarray]:
        """Exact integer negacyclic products of the centered lifts of
        polynomial pairs, as object arrays of Python ints.

        Computed with NTTs over an auxiliary CRT tower wide enough to
        avoid any wraparound (|result| < n * (q/2)^2), then reconstructed
        centered - exactness is what lets the t/q rounding be performed on
        true integers.  All pairs share one batched kernel call per
        tower prime.
        """
        basis = self._aux()

        def lift(poly: Polynomial) -> RnsPolynomial:
            return RnsPolynomial.from_integers(
                basis, poly.centered_coeffs().tolist())

        products = RnsPolynomial.multiply_pairs(
            [(lift(x), lift(y)) for x, y in pairs])
        return [np.array(p.to_centered(), dtype=object) for p in products]

    def relinearize(self, ct: BfvCiphertext,
                    rlk: RelinearizationKey) -> BfvCiphertext:
        if ct.degree != 2:
            raise ValueError("relinearization expects a degree-2 ciphertext")
        c0, c1, c2 = ct.parts
        coeffs = c2.coeffs.astype(np.int64)
        digits = [self._attach(Polynomial(
                      (coeffs // (self.relin_base ** i)) % self.relin_base,
                      self.params))
                  for i in range(self.relin_digits)]
        return BfvCiphertext(parts=list(algebra.key_switch(c0, c1, digits, rlk)))
