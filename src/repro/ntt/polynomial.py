"""Ring element type for ``R_q = Z_q[x]/(x^n + 1)``.

A thin immutable wrapper over a numpy coefficient vector with operator
overloads, used by the crypto layer and the examples.  Multiplication
dispatches to a pluggable backend (software NTT by default, CryptoPIM
accelerator when the caller wants timed hardware simulation).
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol, Sequence, Union

import numpy as np

from .params import NttParams, params_for_degree
from .transform import NttEngine

__all__ = ["MultiplierBackend", "Polynomial", "multiply_rows", "centered_block"]


class MultiplierBackend(Protocol):
    """Anything that can multiply two coefficient vectors in ``R_q``."""

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:  # pragma: no cover
        ...


def multiply_rows(backend: MultiplierBackend, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Row-wise products of two ``(rows, n)`` blocks as one ``uint64`` block:
    one ``multiply_many`` call where the backend has it (:class:`NttEngine`),
    else per-row ``multiply`` (CryptoPIM, the segmented and dataflow
    models).  Bit-identical either way."""
    many = getattr(backend, "multiply_many", None)
    if many is not None:
        return np.asarray(many(a, b), dtype=np.uint64)
    return np.array([backend.multiply(x, y) for x, y in zip(a, b)],
                    dtype=np.uint64).reshape(np.shape(a))


def centered_block(residues: np.ndarray, q: int) -> np.ndarray:
    """Residues in ``[0, q)`` mapped to ``(-q/2, q/2]`` as ``int64``, the
    convention of :func:`repro.ntt.modmath.centered`, for any shape."""
    x = np.asarray(residues).astype(np.int64)
    return np.where(x > q // 2, x - q, x)


class Polynomial:
    """An element of ``Z_q[x]/(x^n + 1)``.

    Coefficients are stored reduced to ``[0, q)`` as ``uint64``.  Instances
    are treated as immutable: operators return new objects.
    """

    __slots__ = ("params", "coeffs", "_backend")

    def __init__(
        self,
        coeffs: Union[Sequence[int], np.ndarray],
        params: NttParams,
        backend: Optional[MultiplierBackend] = None,
    ):
        arr = np.asarray(
            [c % params.q for c in coeffs] if not isinstance(coeffs, np.ndarray) else coeffs,
            dtype=np.uint64,
        )
        if isinstance(coeffs, np.ndarray):
            arr = arr % params.q
        if arr.shape != (params.n,):
            raise ValueError(f"expected {params.n} coefficients, got {arr.shape}")
        self.params = params
        self.coeffs = arr
        self.coeffs.setflags(write=False)
        self._backend = backend

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, params: NttParams, backend: Optional[MultiplierBackend] = None) -> "Polynomial":
        return cls(np.zeros(params.n, dtype=np.uint64), params, backend)

    @classmethod
    def constant(
        cls, value: int, params: NttParams, backend: Optional[MultiplierBackend] = None
    ) -> "Polynomial":
        coeffs = np.zeros(params.n, dtype=np.uint64)
        coeffs[0] = value % params.q
        return cls(coeffs, params, backend)

    @classmethod
    def for_degree(cls, n: int, coeffs: Iterable[int]) -> "Polynomial":
        return cls(list(coeffs), params_for_degree(n))

    # -- batched multiplication ----------------------------------------------

    @staticmethod
    def multiply_pairs(pairs) -> list:
        """Multiply many same-ring polynomial pairs in one batched call.

        All operands must live in the same ring; the first operand's
        backend performs the whole batch through :func:`multiply_rows`.
        Results are bit-identical to ``[x * y for x, y in pairs]``.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        first = pairs[0][0]
        for x, y in pairs:
            x._check_compatible(y)
            first._check_compatible(x)
        products = multiply_rows(first.backend(),
                                 np.stack([x.coeffs for x, _ in pairs]),
                                 np.stack([y.coeffs for _, y in pairs]))
        return [Polynomial(row, first.params, first._backend) for row in products]

    # -- helpers ---------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def q(self) -> int:
        return self.params.q

    def backend(self) -> MultiplierBackend:
        if self._backend is None:
            self._backend = NttEngine.shared(self.params)
        return self._backend

    def with_backend(self, backend: MultiplierBackend) -> "Polynomial":
        return Polynomial(self.coeffs, self.params, backend)

    def _wrap(self, coeffs: np.ndarray) -> "Polynomial":
        return Polynomial(coeffs % self.q, self.params, self._backend)

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.params.n != other.params.n or self.params.q != other.params.q:
            raise ValueError(
                f"incompatible rings: (n={self.n}, q={self.q}) vs "
                f"(n={other.n}, q={other.q})"
            )

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        return self._wrap(self.coeffs + other.coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        return self._wrap(self.coeffs + np.uint64(self.q) - other.coeffs)

    def __neg__(self) -> "Polynomial":
        return self._wrap(np.uint64(self.q) - self.coeffs)

    def __mul__(self, other: Union["Polynomial", int]) -> "Polynomial":
        if isinstance(other, int):
            return self.scale(other)
        self._check_compatible(other)
        product = self.backend().multiply(self.coeffs, other.coeffs)
        return self._wrap(np.asarray(product, dtype=np.uint64))

    def __rmul__(self, other: int) -> "Polynomial":
        return self.scale(other)

    def scale(self, scalar: int) -> "Polynomial":
        return self._wrap((self.coeffs * np.uint64(scalar % self.q)) % np.uint64(self.q))

    def shift_monomial(self, k: int) -> "Polynomial":
        """Multiply by ``x^k`` using the negacyclic wraparound ``x^n = -1``."""
        n, q = self.n, self.q
        k %= 2 * n
        sign_flip = k >= n
        k %= n
        rolled = np.roll(self.coeffs, k)
        out = rolled.copy()
        if k:
            out[:k] = (q - rolled[:k]) % q
        if sign_flip:
            out = (np.uint64(q) - out) % np.uint64(q)
        return self._wrap(out)

    # -- views -------------------------------------------------------------------

    def centered_coeffs(self) -> np.ndarray:
        """Coefficients mapped to the symmetric interval ``(-q/2, q/2]``."""
        return centered_block(self.coeffs, self.q)

    def infinity_norm(self) -> int:
        """Max absolute centered coefficient - the noise magnitude measure."""
        return int(np.max(np.abs(self.centered_coeffs()))) if self.n else 0

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.params.n == other.params.n
            and self.params.q == other.params.q
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __hash__(self) -> int:
        return hash((self.params.n, self.params.q, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        head = ", ".join(str(int(c)) for c in self.coeffs[:6])
        tail = ", ..." if self.n > 6 else ""
        return f"Polynomial(n={self.n}, q={self.q}, [{head}{tail}])"
