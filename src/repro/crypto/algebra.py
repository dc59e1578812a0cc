"""Ciphertext algebra shared by BGV, BFV and RNS-BGV.

A ring-LWE ciphertext is a part vector ``(c_0, ..., c_d)`` that decrypts
through its phase ``c_0 + c_1*s + ... + c_d*s^d``.  The operations on
part vectors are written here once, over any ring type with ``+``, ``-``,
``*``, ``scale`` and a static ``multiply_pairs``
(:class:`~repro.ntt.polynomial.Polynomial` and
:class:`~repro.ntt.rns.RnsPolynomial`):

* :func:`phase` - the decryption phase, computing only the powers of
  ``s`` it uses;
* :func:`add` - part-wise sum of two ciphertexts of any degrees;
* :func:`tensor` - the cross products of many ciphertext pairs, all in
  one batched ``multiply_pairs`` call;
* :func:`relin_keygen` and :func:`key_switch` - a
  :class:`RelinearizationKey` for ``s^2`` and the fold of a scheme's
  digits through it, all ``2 * digits`` products in one batched call.

The schemes keep only what differs between them: encodings, noise
accounting, the digits they decompose into (base ``T`` or CRT channels),
BFV's ``t/q`` rescaling and RNS modulus switching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["RelinearizationKey", "phase", "add", "tensor", "relin_keygen",
           "key_switch"]


@dataclass(frozen=True)
class RelinearizationKey:
    """Key-switching key for ``s^2``: component ``i`` is the encryption
    ``b_i = a_i*s + scale*e_i + factors[i]*s^2`` (``a_i`` uniform)."""

    factors: Tuple[int, ...]
    b: List
    a: List


def phase(parts: Sequence, s):
    """``c_0 + c_1*s + ... + c_d*s^d``; multiplies by ``s`` only for the
    powers the parts use."""
    acc = parts[0]
    power = None
    for part in parts[1:]:
        power = s if power is None else power * s
        acc = acc + part * power
    return acc


def add(x: Sequence, y: Sequence) -> list:
    """Part-wise sum; the shorter ciphertext is padded with zero parts."""
    longest, shortest = (x, y) if len(x) >= len(y) else (y, x)
    parts = list(longest)
    for i, part in enumerate(shortest):
        parts[i] = parts[i] + part
    return parts


def tensor(pairs, multiply_pairs: Optional[Callable] = None) -> List[list]:
    """Tensor products of many ciphertext pairs: output part ``k`` of a
    pair sums ``x_i * y_j`` over ``i + j = k``.

    Every pair's cross products go through one ``multiply_pairs`` call,
    the ring type's own unless the caller passes another (BFV passes its
    exact integer product), so one kernel dispatch serves a whole batch.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    flat = [(xi, yj) for x, y in pairs for xi in x for yj in y]
    multiply = multiply_pairs or type(flat[0][0]).multiply_pairs
    products = iter(multiply(flat))
    out = []
    for x, y in pairs:
        parts: list = [None] * (len(x) + len(y) - 1)
        for i in range(len(x)):
            for j in range(len(y)):
                product = next(products)
                k = i + j
                parts[k] = product if parts[k] is None else parts[k] + product
        out.append(parts)
    return out


def relin_keygen(s, factors: Sequence[int], uniform: Callable[[], object],
                 noise: Callable[[], object],
                 noise_scale: int) -> RelinearizationKey:
    """Encrypt ``factor * s^2`` for every factor, drawing ``uniform()``
    then ``noise()`` per component."""
    s_squared = s * s
    b, a = [], []
    for factor in factors:
        a_i = uniform()
        e_i = noise()
        b.append(a_i * s + e_i.scale(noise_scale) + s_squared.scale(factor))
        a.append(a_i)
    return RelinearizationKey(factors=tuple(factors), b=b, a=a)


def key_switch(c0, c1, digits: Sequence, key: RelinearizationKey):
    """Fold ``digits`` (with ``sum_i digits[i] * factors[i] = c_2``) into
    ``(c0, c1)``: ``c0 + sum d_i*b_i`` and ``c1 - sum d_i*a_i``."""
    count = len(digits)
    products = type(digits[0]).multiply_pairs(
        list(zip(digits, key.b)) + list(zip(digits, key.a)))
    for i in range(count):
        c0 = c0 + products[i]
        c1 = c1 - products[count + i]
    return c0, c1
