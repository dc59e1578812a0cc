"""Alternative NTT dataflows: the bitrev-free DIF/DIT pair.

The paper (following NewHope [19]) uses the same Gentleman-Sande kernel
for both directions and pays two explicit bit-reversals (free in CryptoPIM,
a real permutation elsewhere).  The classic alternative pairs a
decimation-in-frequency forward with a decimation-in-time inverse so that
*no* bit-reversal is ever materialised:

* :func:`ntt_dif` - GS/DIF butterflies, **natural-order input**,
  bit-reversed output, butterfly distances n/2, n/4, ..., 1;
* :func:`intt_dit` - CT/DIT butterflies, **bit-reversed input**,
  natural-order output, distances 1, 2, ..., n/2.

:func:`negacyclic_multiply_no_bitrev` composes them (pointwise products
happen in bit-reversed order, which is harmless).  Tests assert exact
agreement with the paper-faithful kernel of :mod:`repro.ntt.transform`,
which is the point: two independent dataflow derivations of the same
transform cross-validate each other.  The production float64 datapath of
:mod:`repro.ntt.batch` keeps the same orders (natural in, bit-reversed
between the transforms, natural out) with Cooley-Tukey forward and
Gentleman-Sande inverse butterflies and the phi twist folded into its
twiddles; the tests check it against these functions.
"""

from __future__ import annotations

from typing import List, Sequence

from .bitrev import bitrev_permute
from .params import NttParams

__all__ = [
    "ntt_dif",
    "intt_dit",
    "negacyclic_multiply_no_bitrev",
]


def ntt_dif(values: Sequence[int], params: NttParams) -> List[int]:
    """Forward DIF NTT: natural-order input -> bit-reversed-order output."""
    q, n = params.q, params.n
    if len(values) != n:
        raise ValueError(f"expected {n} values")
    a = [v % q for v in values]
    twiddles = params.forward_twiddles()  # natural order w^0 .. w^(n/2-1)
    half = n // 2
    while half >= 1:
        step = n // (2 * half)  # twiddle stride for this stage
        for start in range(0, n, 2 * half):
            for j in range(half):
                w = twiddles[j * step]
                x = a[start + j]
                y = a[start + j + half]
                a[start + j] = (x + y) % q
                a[start + j + half] = (w * (x - y)) % q
        half //= 2
    return a


def intt_dit(values: Sequence[int], params: NttParams) -> List[int]:
    """Inverse DIT NTT: bit-reversed-order input -> natural-order output.

    Includes the ``n^-1`` scaling, so ``intt_dit(ntt_dif(a)) == a``.
    """
    q, n = params.q, params.n
    if len(values) != n:
        raise ValueError(f"expected {n} values")
    a = [v % q for v in values]
    twiddles = params.inverse_twiddles()  # w^0, w^-1, ...
    half = 1
    while half < n:
        step = n // (2 * half)
        for start in range(0, n, 2 * half):
            for j in range(half):
                w = twiddles[j * step]
                x = a[start + j]
                y = (w * a[start + j + half]) % q
                a[start + j] = (x + y) % q
                a[start + j + half] = (x - y) % q
        half *= 2
    n_inv = params.n_inv
    return [(v * n_inv) % q for v in a]


def negacyclic_multiply_no_bitrev(
    a: Sequence[int], b: Sequence[int], params: NttParams
) -> List[int]:
    """Algorithm 1 without any explicit bit-reversal.

    Forward DIF leaves both transforms in bit-reversed order; the pointwise
    product is order-agnostic; inverse DIT consumes bit-reversed input
    directly.
    """
    q = params.q
    phi = params.phi_powers()
    a_t = [(x * p) % q for x, p in zip(a, phi)]
    b_t = [(x * p) % q for x, p in zip(b, phi)]
    a_hat = ntt_dif(a_t, params)
    b_hat = ntt_dif(b_t, params)
    c_hat = [(x * y) % q for x, y in zip(a_hat, b_hat)]
    c_t = intt_dit(c_hat, params)
    phi_inv = params.phi_inv_powers()
    return [(x * p) % q for x, p in zip(c_t, phi_inv)]
