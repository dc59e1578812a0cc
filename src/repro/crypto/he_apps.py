"""Homomorphic-encryption application kernels.

Small, verifiable building blocks computed *under encryption* with the
BGV scheme - the "data in use" applications the paper's abstract
motivates.  Each helper is a few ciphertext operations arranged around a
classic packing trick:

* **encrypted dot product** - pack one vector normally and the other
  negacyclically reversed; coefficient ``n - 1`` of the ring product is
  exactly ``<x, y>`` (all cross terms land elsewhere);
* **encrypted polynomial evaluation** - Horner over an encrypted value's
  powers, with plaintext coefficients (scalar multiplications are free
  of relinearization);
* **encrypted equality voting** - XOR aggregation over ``t = 2``
  plaintexts: summing ciphertexts of indicator bits counts disagreements
  mod 2.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .algebra import RelinearizationKey
from .bgv import BgvCiphertext, BgvScheme, BgvSecretKey

__all__ = ["pack_forward", "pack_reversed", "encrypted_dot_product",
           "encrypted_poly_eval", "encrypted_xor_aggregate"]


def pack_forward(values: Sequence[int], n: int) -> np.ndarray:
    """Vector -> plaintext coefficients (zero-padded)."""
    values = list(values)
    if len(values) > n:
        raise ValueError("vector longer than the ring degree")
    out = np.zeros(n, dtype=np.int64)
    out[: len(values)] = values
    return out


def pack_reversed(values: Sequence[int], n: int) -> np.ndarray:
    """Vector packed so that the ring product's coefficient ``n - 1``
    equals the dot product with a forward-packed vector.

    Placing ``y_j`` at position ``n - 1 - j`` makes
    ``c_{n-1} = sum_j x_j * y_j`` with no negacyclic wraparound (all
    contributing index sums are exactly ``n - 1 < n``).
    """
    values = list(values)
    n_values = len(values)
    if n_values > n:
        raise ValueError("vector longer than the ring degree")
    out = np.zeros(n, dtype=np.int64)
    for j, v in enumerate(values):
        out[n - 1 - j] = v
    return out


def encrypted_dot_product(scheme: BgvScheme, sk: BgvSecretKey,
                          rlk: RelinearizationKey,
                          x: Sequence[int], y: Sequence[int]) -> int:
    """Compute ``<x, y> mod t`` under encryption (one ct-ct multiply)."""
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    n = scheme.params.n
    ct_x = scheme.encrypt(sk, pack_forward(x, n))
    ct_y = scheme.encrypt(sk, pack_reversed(y, n))
    product = scheme.relinearize(scheme.multiply(ct_x, ct_y), rlk)
    return int(scheme.decrypt(sk, product)[n - 1])


def encrypted_poly_eval(scheme: BgvScheme, sk: BgvSecretKey,
                        coefficients: Sequence[int],
                        ct_value: BgvCiphertext) -> BgvCiphertext:
    """Evaluate ``p(v) = c0 + c1*v`` homomorphically (degree-1 Horner).

    Plaintext-by-ciphertext products are scalar scalings of the parts, so
    the only noise growth is additive.  (Higher degrees would chain
    ct-ct multiplies and relinearizations - the noise budget of the
    paper's single modulus supports one such level.)
    """
    coefficients = list(coefficients)
    if len(coefficients) != 2:
        raise ValueError("single-modulus budget supports degree-1 evaluation")
    c0, c1 = (c % scheme.t for c in coefficients)
    n = scheme.params.n
    scaled = BgvCiphertext(
        parts=[part.scale(c1) for part in ct_value.parts],
        noise_bound=ct_value.noise_bound * max(c1, 1),
    )
    const = scheme.encrypt(sk, pack_forward([c0], n))
    return scheme.add(scaled, const)


def encrypted_xor_aggregate(scheme: BgvScheme, sk: BgvSecretKey,
                            bit_vectors: List[Sequence[int]]) -> np.ndarray:
    """XOR many encrypted bit vectors without decrypting intermediates.

    With ``t = 2``, homomorphic addition IS coefficient-wise XOR.
    """
    if scheme.t != 2:
        raise ValueError("XOR aggregation needs plaintext modulus 2")
    if not bit_vectors:
        raise ValueError("nothing to aggregate")
    n = scheme.params.n
    acc = scheme.encrypt(sk, pack_forward(list(bit_vectors[0]), n))
    for bits in bit_vectors[1:]:
        acc = scheme.add(acc, scheme.encrypt(sk, pack_forward(list(bits), n)))
    return scheme.decrypt(sk, acc)
