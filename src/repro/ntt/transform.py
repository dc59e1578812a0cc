"""Gentleman-Sande number theoretic transform (Algorithms 1 and 2).

The paper computes both the forward and the inverse transform with the same
Gentleman-Sande (GS) kernel, following the NewHope reference implementation
[19]: the kernel consumes its input in *bit-reversed* order, produces
*natural* order output, and walks butterfly distances ``1, 2, 4, ...``
(Algorithm 2, ``j' = j + (1 << i)``).  Twiddle factors ``w^i`` are stored in
bit-reversed order (Algorithm 1 line 2) and indexed as
``twiddle[j >> (i + 1)]``.

Negacyclic multiplication in ``Z_q[x]/(x^n + 1)`` (Algorithm 1) wraps the
kernel with the ``phi^i`` twist: scale inputs by ``phi^i``, transform,
multiply pointwise, inverse-transform, scale by ``n^-1 * phi^-i``.

Implementations with identical results:

* pure-Python on ``list[int]`` - the readable ground truth;
* vectorised numpy ``*_np`` functions on ``uint64`` arrays (the exact
  ``%`` datapath, one polynomial at a time);
* :class:`NttEngine` - the production batched engine used by the PIM
  simulator's functional mode, the crypto layer and the CPU baseline.
  Its datapath follows the width of ``q`` (:mod:`repro.ntt.batch`); for
  every ``q < 2^26`` - all the paper's moduli - it folds the ``phi``
  twist into the twiddles and never gathers a row.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .batch import (
    StagePlan,
    bitrev_gather_rows,
    canonical_float,
    check_kernel_modulus,
    ct_forward_float,
    float_schedule,
    gs_inverse_float,
    gs_kernel_batch,
    kernel_dtype,
    modmul_float,
    reduce_float,
    stage_plan,
)
from .bitrev import bitrev_indices, bitrev_permute, bitrev_permute_array
from .params import NttParams, params_for_degree

__all__ = [
    "ntt_gs",
    "intt_gs",
    "negacyclic_multiply",
    "ntt_gs_np",
    "intt_gs_np",
    "negacyclic_multiply_np",
    "NttEngine",
]


# ---------------------------------------------------------------------------
# Pure-Python reference kernel
# ---------------------------------------------------------------------------

def _gs_kernel(values: List[int], twiddles_bitrev: Sequence[int], q: int) -> List[int]:
    """In-place GS butterflies on a bit-reversed-order input list.

    Returns the same list, now holding the transform in natural order.
    This is a literal transcription of Algorithm 2.
    """
    n = len(values)
    if n & (n - 1) or n < 2:
        raise ValueError(f"length must be a power of two >= 2, got {n}")
    log_n = n.bit_length() - 1
    for i in range(log_n):
        distance = 1 << i
        for j in range(n):
            if j & distance:
                continue  # j indexes the top element of each butterfly pair
            j_pair = j + distance
            w = twiddles_bitrev[j >> (i + 1)]
            t = values[j]
            values[j] = (t + values[j_pair]) % q
            values[j_pair] = (w * (t - values[j_pair])) % q
    return values


def ntt_gs(values: Sequence[int], params: NttParams) -> List[int]:
    """Forward GS NTT.

    Args:
        values: coefficients in **natural** order (the bit-reversal of
            Algorithm 1 line 4 is applied internally, mirroring how
            CryptoPIM folds it into the row-write).
    Returns:
        The transform ``A[k] = sum_j a_j w^{jk} mod q`` in natural order.
    """
    work = bitrev_permute(list(values))
    return _gs_kernel(work, params.forward_twiddles_bitrev(), params.q)


def intt_gs(values: Sequence[int], params: NttParams) -> List[int]:
    """Inverse GS NTT (without the negacyclic ``phi`` post-twist).

    Applies the same kernel with ``w^-1`` twiddles and multiplies by
    ``n^-1``, so that ``intt_gs(ntt_gs(a)) == a``.
    """
    work = bitrev_permute(list(values))
    _gs_kernel(work, params.inverse_twiddles_bitrev(), params.q)
    return [(v * params.n_inv) % params.q for v in work]


def negacyclic_multiply(
    a: Sequence[int], b: Sequence[int], params: NttParams
) -> List[int]:
    """Algorithm 1: multiply two polynomials in ``Z_q[x]/(x^n + 1)``."""
    n, q = params.n, params.q
    if len(a) != n or len(b) != n:
        raise ValueError(f"operands must have exactly n={n} coefficients")
    phi = params.phi_powers()
    a_twisted = [(x * p) % q for x, p in zip(a, phi)]
    b_twisted = [(x * p) % q for x, p in zip(b, phi)]
    a_hat = ntt_gs(a_twisted, params)
    b_hat = ntt_gs(b_twisted, params)
    c_hat = [(x * y) % q for x, y in zip(a_hat, b_hat)]
    c_twisted = intt_gs(c_hat, params)
    phi_inv = params.phi_inv_powers()
    return [(x * p) % q for x, p in zip(c_twisted, phi_inv)]


# ---------------------------------------------------------------------------
# Vectorised numpy kernel
# ---------------------------------------------------------------------------

def _gs_kernel_np(values: np.ndarray, twiddles_bitrev: np.ndarray, q: int) -> np.ndarray:
    """Vectorised Algorithm 2 on a bit-reversed uint64 array (in place).

    A batch-of-one view of :func:`repro.ntt.batch.gs_kernel_batch` on its
    exact ``%`` datapath, sharing the cached stage plan.
    """
    gs_kernel_batch(values[None], np.asarray(twiddles_bitrev, dtype=np.uint64), q)
    return values


def ntt_gs_np(values: np.ndarray, params: NttParams) -> np.ndarray:
    """Vectorised forward NTT; natural-order in, natural-order out."""
    work = bitrev_permute_array(np.asarray(values, dtype=np.uint64) % params.q)
    tw = np.asarray(params.forward_twiddles_bitrev(), dtype=np.uint64)
    return _gs_kernel_np(work, tw, params.q)


def intt_gs_np(values: np.ndarray, params: NttParams) -> np.ndarray:
    """Vectorised inverse NTT including the ``n^-1`` scaling."""
    work = bitrev_permute_array(np.asarray(values, dtype=np.uint64) % params.q)
    tw = np.asarray(params.inverse_twiddles_bitrev(), dtype=np.uint64)
    _gs_kernel_np(work, tw, params.q)
    return (work * params.n_inv) % params.q


def negacyclic_multiply_np(
    a: np.ndarray, b: np.ndarray, params: NttParams
) -> np.ndarray:
    """Vectorised Algorithm 1."""
    q = params.q
    phi = np.asarray(params.phi_powers(), dtype=np.uint64)
    a_hat = ntt_gs_np((np.asarray(a, dtype=np.uint64) * phi) % q, params)
    b_hat = ntt_gs_np((np.asarray(b, dtype=np.uint64) * phi) % q, params)
    c_twisted = intt_gs_np((a_hat * b_hat) % q, params)
    phi_inv = np.asarray(params.phi_inv_powers(), dtype=np.uint64)
    return (c_twisted * phi_inv) % q


# ---------------------------------------------------------------------------
# Engine facade
# ---------------------------------------------------------------------------

def _signed_table(values, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """Residues as centered float64 (``|w| <= q//2``) plus ``fl(w / q)``."""
    w = np.asarray(values, dtype=np.int64)
    w = np.where(w > q // 2, w - q, w).astype(np.float64)
    return w, w / q


def _stage_layout(twiddles_bitrev: Sequence[int]) -> List[int]:
    """Lay out a bit-reversed cyclic twiddle table so the stage with ``G``
    groups reads its ``G`` twiddles from ``[G:2G]`` (index 0 unused)."""
    table = [1]
    groups = 1
    while groups <= len(twiddles_bitrev):
        table.extend(twiddles_bitrev[:groups])
        groups *= 2
    return table


class NttEngine:
    """Convenience bundle of one parameter set plus cached twiddle tables.

    This is the software multiplier used by the crypto layer and by the CPU
    baseline; the PIM accelerator exposes the same ``multiply`` signature so
    the two are interchangeable backends.

    Besides the per-pair ``forward``/``inverse``/``multiply``, the engine
    offers ``forward_many``/``inverse_many``/``multiply_many`` over
    ``(batch, n)`` blocks: one set of numpy stage operations covers the
    whole batch (the software analogue of the paper's parallel superbanks).
    Single-pair calls are batches of one.

    The datapath follows the width of ``q`` (see :mod:`repro.ntt.batch`):
    the gather-free float64 pair for ``q < 2^26``, exact ``%`` on
    ``uint64`` above.  Both return canonical residues in ``[0, q)``,
    bit-identical to the pure-Python oracle.
    """

    def __init__(self, params: NttParams):
        check_kernel_modulus(params.q)
        self.params = params
        n, q = params.n, params.q
        self._plan: StagePlan = stage_plan(n)
        self._dtype = kernel_dtype(q)
        if self._dtype == np.float64:
            self._schedule = float_schedule(n, q)
            rev = self._plan.bitrev
            #: negacyclic tables, phi folded in: zeta[k] = phi^brv(k)
            self._zeta = _signed_table(
                np.asarray(params.phi_powers())[rev], q)
            self._zeta_inv = _signed_table(
                np.asarray(params.phi_inv_powers())[rev], q)
            #: cyclic tables for the standalone transforms
            self._cyclic = _signed_table(
                _stage_layout(params.forward_twiddles_bitrev()), q)
            self._cyclic_inv = _signed_table(
                _stage_layout(params.inverse_twiddles_bitrev()), q)
            self._n_inv = _signed_table([params.n_inv], q)
            return
        dt = self._dtype
        self._phi = np.asarray(params.phi_powers(), dtype=dt)
        self._fwd_tw = np.asarray(params.forward_twiddles_bitrev(), dtype=dt)
        self._inv_tw = np.asarray(params.inverse_twiddles_bitrev(), dtype=dt)
        #: n^-1 * phi^-i fused post-scale (the table the PIM stores too)
        self._post = np.asarray(params.phi_inv_powers_scaled(), dtype=dt)

    @classmethod
    def for_degree(cls, n: int) -> "NttEngine":
        return cls(params_for_degree(n))

    @staticmethod
    @lru_cache(maxsize=64)
    def shared(params: NttParams) -> "NttEngine":
        """One engine per parameter set (it holds only read-only tables),
        however many polynomials multiply in that ring."""
        return NttEngine(params)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def q(self) -> int:
        return self.params.q

    def forward(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.uint64).reshape(1, -1)
        return self.forward_many(arr)[0]

    def inverse(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.uint64).reshape(1, -1)
        return self.inverse_many(arr)[0]

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic product of two coefficient vectors."""
        a2 = np.asarray(a, dtype=np.uint64).reshape(1, -1)
        b2 = np.asarray(b, dtype=np.uint64).reshape(1, -1)
        return self.multiply_many(a2, b2)[0]

    # -- batched operations -------------------------------------------------

    def _as_batch(self, values: np.ndarray) -> np.ndarray:
        """One reduction mod ``q`` into a fresh column-major block of the
        datapath dtype (the layout every kernel stage runs on)."""
        arr = np.asarray(values, dtype=np.uint64)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ValueError(
                f"expected a (batch, {self.n}) array, got shape {arr.shape}"
            )
        # written as the C-contiguous (n, batch) transpose: numpy then walks
        # the output contiguously, which is the cheaper side of the transpose
        cols = np.empty(arr.shape[::-1], dtype=self._dtype)
        np.remainder(arr.T, np.uint64(self.q), out=cols)
        return cols.T

    def _finish_float(self, x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Bounded signed values -> canonical uint64 residues."""
        q = float(self.q)
        return canonical_float(reduce_float(x, q, scratch), q).astype(np.uint64)

    def forward_many(self, values: np.ndarray) -> np.ndarray:
        """Forward NTT of every row of a ``(batch, n)`` block."""
        work = self._as_batch(values)
        plan = self._plan
        if self._dtype != np.float64:
            return gs_kernel_batch(bitrev_gather_rows(work, plan),
                                   self._fwd_tw, self.q, plan)
        ct_forward_float(work, *self._cyclic, self._schedule, plan)
        out = self._finish_float(work, np.empty_like(work))
        return bitrev_gather_rows(out, plan)

    def inverse_many(self, values: np.ndarray) -> np.ndarray:
        """Inverse NTT (with ``n^-1`` scaling) of every row."""
        q, plan = self.q, self._plan
        work = bitrev_gather_rows(self._as_batch(values), plan)
        if self._dtype != np.float64:
            gs_kernel_batch(work, self._inv_tw, q, plan)
            return (work * self.params.n_inv) % q
        gs_inverse_float(work, *self._cyclic_inv, self._schedule, plan)
        scratch = np.empty_like(work)
        modmul_float(work, *self._n_inv, float(q), work, scratch)
        return canonical_float(work, float(q)).astype(np.uint64)

    def multiply_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic products of ``(batch, n)`` operand blocks, row-wise.

        Bit-identical to calling :meth:`multiply` on each row, at the cost
        of roughly one transform's worth of numpy dispatch for the whole
        batch.  On the float datapath the phi twists live in the twiddles
        and the pointwise product runs in bit-reversed order, so nothing is
        gathered; the ``uint64`` datapath bit-reverses rows and scales by
        the fused ``n^-1 * phi^-i`` column the PIM itself stores.
        """
        q = self.q
        a2 = self._as_batch(a)
        b2 = self._as_batch(b)
        if a2.shape[0] != b2.shape[0]:
            raise ValueError(
                f"operand batches differ: {a2.shape[0]} vs {b2.shape[0]}"
            )
        plan = self._plan
        if self._dtype != np.float64:
            a_hat = gs_kernel_batch(
                bitrev_gather_rows((a2 * self._phi) % q, plan),
                self._fwd_tw, q, plan)
            b_hat = gs_kernel_batch(
                bitrev_gather_rows((b2 * self._phi) % q, plan),
                self._fwd_tw, q, plan)
            c_twisted = gs_kernel_batch(
                bitrev_gather_rows((a_hat * b_hat) % q, plan),
                self._inv_tw, q, plan)
            return (c_twisted * self._post) % q
        schedule = self._schedule
        qf = float(q)
        ct_forward_float(a2, *self._zeta, schedule, plan)
        ct_forward_float(b2, *self._zeta, schedule, plan)
        if any(schedule.reduce_operands):
            scratch = np.empty_like(a2)
            for block, reduce in zip((a2, b2), schedule.reduce_operands):
                if reduce:
                    reduce_float(block, qf, scratch)
        # pointwise product in bit-reversed order; b2 becomes scratch
        np.multiply(a2, b2, out=a2)
        reduce_float(a2, qf, b2)
        gs_inverse_float(a2, *self._zeta_inv, schedule, plan)
        modmul_float(a2, *self._n_inv, qf, a2, b2)
        return canonical_float(a2, qf).astype(np.uint64)
