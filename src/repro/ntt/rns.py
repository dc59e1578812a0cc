"""Residue number system (RNS) arithmetic over towers of NTT primes.

The paper's single 20-bit modulus q = 786433 limits homomorphic depth to
one multiplication.  Production HE libraries (the SEAL the paper cites)
compose a large ciphertext modulus ``Q = q_1 * q_2 * ... * q_L`` from
NTT-friendly primes and keep every polynomial in *residue* form - one
coefficient vector per prime - so all arithmetic stays on small words and
every residue channel maps onto CryptoPIM hardware unchanged (one softbank
group per prime, same NTT dataflow).

This module provides that substrate:

* :class:`RnsBasis` - a tower of distinct NTT primes for one ring degree,
  with CRT reconstruction and base-extension helpers;
* :class:`RnsPolynomial` - an element of ``Z_Q[x]/(x^n + 1)`` stored as a
  residue matrix, with negacyclic ring operations channel-wise;
* exact division by a basis prime (the core of BGV modulus switching).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .batch import FLOAT_MAX_Q, check_kernel_modulus
from .modmath import is_prime, mod_inverse, nth_root_of_unity
from .params import NttParams
from .transform import NttEngine

__all__ = ["find_ntt_primes", "RnsBasis", "RnsPolynomial"]


def find_ntt_primes(n: int, count: int, bits: int = 20) -> List[int]:
    """Find ``count`` distinct primes ``p = k * 2n + 1`` near ``2^bits``.

    Such primes support the full negacyclic NTT at degree ``n``.  They
    must stay below ``FLOAT_MAX_Q = 2^26``, the limit of the engine's
    float64 datapath.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    step = 2 * n
    primes: List[int] = []
    candidate = ((1 << bits) // step) * step + 1
    while len(primes) < count:
        # the float64 datapath multiplies two residues exactly below 2^52;
        # the old 62-bit cap let 124-bit products wrap silently
        if candidate >= FLOAT_MAX_Q:
            raise ValueError(
                f"ran out of representable primes: candidates crossed the "
                f"2^26 kernel datapath cap (FLOAT_MAX_Q)")
        if is_prime(candidate):
            primes.append(candidate)
        candidate += step
    return primes


class RnsBasis:
    """A tower of NTT primes for degree ``n``: the modulus ``Q = prod q_i``.

    Channel ``i`` carries arithmetic mod ``q_i`` through its own NTT
    engine, so every prime must be below ``FLOAT_MAX_Q = 2^26``; the
    basis refuses wider ones when it is built.  It supports CRT
    reconstruction and dropping its last prime (for modulus switching).
    """

    def __init__(self, n: int, primes: Sequence[int]):
        if not primes:
            raise ValueError("basis needs at least one prime")
        if len(set(primes)) != len(primes):
            raise ValueError("basis primes must be distinct")
        self.n = n
        self.primes: Tuple[int, ...] = tuple(primes)
        for q in self.primes:
            check_kernel_modulus(q)
            if q >= FLOAT_MAX_Q:
                raise ValueError(
                    f"{q} crosses the 2^26 kernel datapath cap "
                    f"(FLOAT_MAX_Q) of the engine's float64 datapath")
            if not is_prime(q):
                raise ValueError(f"{q} is not prime")
            if (q - 1) % (2 * n) != 0:
                raise ValueError(f"{q} has no 2n-th root for n={n}")
        self.modulus = 1
        for q in self.primes:
            self.modulus *= q
        self._engines = [self._engine_for(q) for q in self.primes]
        # CRT constants: Q_i = Q / q_i, and their inverses mod q_i
        self._crt_q_i = [self.modulus // q for q in self.primes]
        self._crt_inv = [mod_inverse(Qi % q, q)
                         for Qi, q in zip(self._crt_q_i, self.primes)]

    @classmethod
    def generate(cls, n: int, levels: int, bits: int = 20) -> "RnsBasis":
        return cls(n, find_ntt_primes(n, levels, bits))

    def _engine_for(self, q: int) -> NttEngine:
        phi = nth_root_of_unity(2 * self.n, q)
        params = NttParams(n=self.n, q=q, bitwidth=max(16, q.bit_length()),
                           w=pow(phi, 2, q), phi=phi)
        return NttEngine.shared(params)

    @property
    def levels(self) -> int:
        return len(self.primes)

    def engine(self, channel: int) -> NttEngine:
        return self._engines[channel]

    def drop_last(self) -> "RnsBasis":
        """The basis with its last prime removed (one modulus level down)."""
        if self.levels < 2:
            raise ValueError("cannot drop below one prime")
        return RnsBasis(self.n, self.primes[:-1])

    # -- CRT ------------------------------------------------------------------

    def to_residues(self, coeffs: Sequence[int]) -> np.ndarray:
        """Integer coefficients (any size) -> residue matrix (levels x n)."""
        rows = []
        for q in self.primes:
            rows.append(np.asarray([int(c) % q for c in coeffs], dtype=np.uint64))
        return np.stack(rows)

    def reconstruct(self, residues: np.ndarray) -> List[int]:
        """Residue matrix -> integer coefficients in ``[0, Q)`` via CRT."""
        if residues.shape != (self.levels, self.n):
            raise ValueError("residue matrix shape mismatch")
        out = []
        for j in range(self.n):
            acc = 0
            for i, q in enumerate(self.primes):
                acc += int(residues[i, j]) * self._crt_inv[i] * self._crt_q_i[i]
            out.append(acc % self.modulus)
        return out

    def reconstruct_centered(self, residues: np.ndarray) -> List[int]:
        """CRT reconstruction into the centered interval (-Q/2, Q/2]."""
        half = self.modulus // 2
        return [c - self.modulus if c > half else c
                for c in self.reconstruct(residues)]

    def __repr__(self) -> str:
        return f"RnsBasis(n={self.n}, primes={list(self.primes)})"


class RnsPolynomial:
    """An element of ``Z_Q[x]/(x^n + 1)`` in residue representation."""

    __slots__ = ("basis", "residues")

    def __init__(self, basis: RnsBasis, residues: np.ndarray):
        residues = np.asarray(residues, dtype=np.uint64)
        if residues.shape != (basis.levels, basis.n):
            raise ValueError(
                f"expected ({basis.levels}, {basis.n}) residues, "
                f"got {residues.shape}"
            )
        self.basis = basis
        self.residues = residues

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_integers(cls, basis: RnsBasis,
                      coeffs: Sequence[int]) -> "RnsPolynomial":
        return cls(basis, basis.to_residues(coeffs))

    @classmethod
    def zero(cls, basis: RnsBasis) -> "RnsPolynomial":
        return cls(basis, np.zeros((basis.levels, basis.n), dtype=np.uint64))

    # -- ring operations ---------------------------------------------------------

    def _check(self, other: "RnsPolynomial") -> None:
        if self.basis.primes != other.basis.primes or self.basis.n != other.basis.n:
            raise ValueError("RNS basis mismatch")

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check(other)
        out = np.empty_like(self.residues)
        for i, q in enumerate(self.basis.primes):
            out[i] = (self.residues[i] + other.residues[i]) % np.uint64(q)
        return RnsPolynomial(self.basis, out)

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check(other)
        out = np.empty_like(self.residues)
        for i, q in enumerate(self.basis.primes):
            out[i] = (self.residues[i] + np.uint64(q) - other.residues[i]) % np.uint64(q)
        return RnsPolynomial(self.basis, out)

    def __neg__(self) -> "RnsPolynomial":
        return RnsPolynomial.zero(self.basis) - self

    def __mul__(self, other) -> "RnsPolynomial":
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        out = np.empty_like(self.residues)
        for i in range(self.basis.levels):
            engine = self.basis.engine(i)
            out[i] = engine.multiply(self.residues[i], other.residues[i])
        return RnsPolynomial(self.basis, out)

    __rmul__ = __mul__

    @staticmethod
    def multiply_pairs(pairs) -> List["RnsPolynomial"]:
        """Multiply many same-basis pairs, batching each residue channel.

        The RNS limbs of one product cannot share a kernel call (each
        channel has its own modulus), but across a *batch* of products
        channel ``i`` is a single ``(batch, n)`` block for engine ``i`` -
        exactly the work one CryptoPIM softbank group streams.  Results
        are bit-identical to ``[x * y for x, y in pairs]``.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        basis = pairs[0][0].basis
        for x, y in pairs:
            x._check(y)
            pairs[0][0]._check(x)
        count = len(pairs)
        out = np.empty((count, basis.levels, basis.n), dtype=np.uint64)
        for i in range(basis.levels):
            a_block = np.stack([x.residues[i] for x, _ in pairs])
            b_block = np.stack([y.residues[i] for _, y in pairs])
            out[:, i, :] = basis.engine(i).multiply_many(a_block, b_block)
        return [RnsPolynomial(basis, out[k]) for k in range(count)]

    def scale(self, scalar: int) -> "RnsPolynomial":
        out = np.empty_like(self.residues)
        for i, q in enumerate(self.basis.primes):
            out[i] = (self.residues[i] * np.uint64(scalar % q)) % np.uint64(q)
        return RnsPolynomial(self.basis, out)

    # -- modulus-switch support ----------------------------------------------------

    def exact_divide_drop(self, numerators: np.ndarray) -> "RnsPolynomial":
        """Given that the *integer* polynomial ``numerators`` (per-channel
        residues of a value divisible by the last prime ``p``) represents
        ``p * self'``, return ``self'`` on the dropped basis.

        Caller guarantees divisibility; each remaining channel divides by
        ``p^-1 mod q_i``.
        """
        basis_low = self.basis.drop_last()
        p = self.basis.primes[-1]
        out = np.empty((basis_low.levels, basis_low.n), dtype=np.uint64)
        for i, q in enumerate(basis_low.primes):
            p_inv = np.uint64(mod_inverse(p % q, q))
            out[i] = (np.asarray(numerators[i], dtype=np.uint64) * p_inv) % np.uint64(q)
        return RnsPolynomial(basis_low, out)

    # -- views --------------------------------------------------------------------------

    def to_integers(self) -> List[int]:
        return self.basis.reconstruct(self.residues)

    def to_centered(self) -> List[int]:
        return self.basis.reconstruct_centered(self.residues)

    def infinity_norm(self) -> int:
        return max((abs(c) for c in self.to_centered()), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RnsPolynomial):
            return NotImplemented
        return (self.basis.primes == other.basis.primes
                and bool(np.array_equal(self.residues, other.residues)))

    def __hash__(self):  # pragma: no cover - unused, keeps eq consistent
        return hash((self.basis.primes, self.residues.tobytes()))

    def __repr__(self) -> str:
        return (f"RnsPolynomial(n={self.basis.n}, "
                f"levels={self.basis.levels})")
