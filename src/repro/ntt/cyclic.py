"""Cyclic convolution and NTT-based big-integer multiplication.

The paper's rings are negacyclic (``x^n + 1``), but the same transform
machinery serves the *cyclic* ring ``x^n - 1`` (plain circular
convolution) - and, through zero-padding, exact linear convolution, whose
flagship application is Schonhage-Strassen-style big-integer
multiplication.  Both run on the production negacyclic datapath (one
:class:`~repro.ntt.rns.RnsPolynomial` product), which shows the substrate
is a general NTT library, not a single-purpose kernel, and provides an
independent correctness anchor (Python's built-in big-int product).
"""

from __future__ import annotations

from typing import List, Sequence

from .rns import RnsBasis, RnsPolynomial

__all__ = ["cyclic_convolve", "linear_convolve", "bigint_multiply"]


def cyclic_convolve(a: Sequence[int], b: Sequence[int], q: int) -> List[int]:
    """Circular convolution of two equal-length vectors mod ``q``.

    The exact linear product of the residues, folded mod ``x^n - 1``
    (coefficient ``k + n`` lands on ``k``) and reduced mod ``q``.
    """
    a, b = list(a), list(b)
    n = len(a)
    if len(b) != n:
        raise ValueError("operands must have equal length")
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    linear = linear_convolve([v % q for v in a], [v % q for v in b])
    linear += [0] * (2 * n - len(linear))
    return [(linear[k] + linear[k + n]) % q for k in range(n)]


def linear_convolve(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Exact integer linear convolution via CRT-NTT (no wraparound).

    One negacyclic :class:`RnsPolynomial` product at a power-of-two size
    of at least ``len(a) + len(b) - 1``, where nothing wraps, under a CRT
    basis wide enough for the exact result.
    """
    a, b = list(a), list(b)
    if not a or not b:
        return []
    if any(v < 0 for v in a + b):
        raise ValueError("linear_convolve expects non-negative inputs")
    out_len = len(a) + len(b) - 1
    size = 4  # the RNS basis machinery needs degree >= 4; padding is free
    while size < out_len:
        size *= 2
    bound = min(len(a), len(b)) * max(a + [1]) * max(b + [1])
    levels = 1
    while True:
        basis = RnsBasis.generate(size, levels, bits=24)
        if basis.modulus > 2 * bound:
            break
        levels += 1
    product = (RnsPolynomial.from_integers(basis, a + [0] * (size - len(a)))
               * RnsPolynomial.from_integers(basis, b + [0] * (size - len(b))))
    return product.to_integers()[:out_len]


def bigint_multiply(x: int, y: int, limb_bits: int = 16) -> int:
    """Multiply two non-negative integers through NTT convolution.

    Splits each operand into ``limb_bits`` limbs, linearly convolves the
    limb vectors, and carries - the classical FFT multiplication.  An
    independent end-to-end exercise of the transform stack, checked
    against Python's native big-int product in tests.
    """
    if x < 0 or y < 0:
        raise ValueError("bigint_multiply expects non-negative integers")
    if x == 0 or y == 0:
        return 0
    mask = (1 << limb_bits) - 1

    def limbs(v: int) -> List[int]:
        out = []
        while v:
            out.append(v & mask)
            v >>= limb_bits
        return out

    product_limbs = linear_convolve(limbs(x), limbs(y))
    result = 0
    for i, limb in enumerate(reversed(product_limbs)):
        result = (result << limb_bits) + int(limb)
    return result
