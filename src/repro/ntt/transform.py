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
  ``%`` oracle, one polynomial at a time);
* :class:`NttEngine` - the production batched engine used by the PIM
  simulator's functional mode, the crypto layer and the CPU baseline.
  It runs the float64 datapath of :mod:`repro.ntt.batch` for every
  ``q < 2^26`` - all the paper's moduli - as a few exact radix-``2^s``
  matrix passes per transform, folds the ``phi`` twist and ``n^-1`` into
  the pass matrices and never gathers a row of a product.  Operands that
  meet many times can stay in its NTT domain (``to_ntt_many``,
  ``pointwise_sum``, ``from_ntt_many``).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import cached_property, lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .batch import (
    FLOAT_MAX_Q,
    StagePlan,
    bitrev_gather_rows,
    canonical_float,
    check_kernel_modulus,
    ct_forward_float,
    float_schedule,
    gs_inverse_float,
    gs_kernel_batch,
    pass_matrices,
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
    "SLICE_MIN_ELEMENTS",
    "row_slices",
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
# Host cores as superbanks
# ---------------------------------------------------------------------------

#: The one slicing rule.  A ``*_many`` block of at least this many elements
#: (``rows * n``) is split by rows across the host's usable cores, one
#: contiguous row range per core, each range keeping at least half this
#: many elements; smaller blocks, and every block on a 1-core host, run
#: whole on the calling thread.  numpy releases the GIL inside the float
#: kernel's ufuncs and ``matmul`` calls, and every GEMM of a pass stays
#: below OpenBLAS's own threading threshold (``GEMM_MAX_MACS``), so the
#: ranges run in parallel - the software analogue of the paper's
#: side-by-side superbanks (Section III-D.2).
#:
#: ``multiply_many`` medians on the fault-free merged-radix kernel (float
#: temporaries in per-thread workspaces), 2-vCPU x86-64 host, whole block
#: vs two slices alternated call by call, outputs bit-identical:
#:
#: ===========  ========  ========  ======  =====================
#: n x rows     elements  whole     sliced
#: ===========  ========  ========  ======  =====================
#: 256 x 64       16,384  0.39 ms   0.56    0.69x (GIL-bound)
#: 2048 x 16      32,768  1.11      1.51    0.74x
#: 1024 x 64      65,536  1.79      1.98    0.90x
#: 4096 x 16      65,536  2.54      2.96    0.86x
#: 256 x 512     131,072  3.77      3.56    1.06x
#: 1024 x 128    131,072  4.19      4.04    1.04x
#: 2048 x 64     131,072  5.35      4.90    1.09x
#: 4096 x 64     262,144  13.0      12.0    1.08x
#: 8192 x 64     524,288  32.8      31.0    1.06x
#: ===========  ========  ========  ======  =====================
#:
#: From 2^17 elements every degree gains; up to 2^16 none does.  A second
#: run read 1.01-1.09x from 2^17 and 0.67-0.92x below it.
#: There is deliberately no knob: no environment variable, constructor
#: argument or per-call flag.
SLICE_MIN_ELEMENTS = 1 << 17


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


#: cores this process may run on, read once at import
_CORES = _usable_cores()
#: the process-wide slice pool, one thread per core; built on first use
_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(_CORES, thread_name_prefix="ntt-slice")
        return _POOL


def _forget_pool() -> None:
    """A forked child inherits the pool object but none of its threads."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_forget_pool)


#: each thread's three flat float64 buffers, shared by every engine
_WORKSPACES = threading.local()


def _workspace(rows: int, n: int) -> Tuple[np.ndarray, ...]:
    """This thread's three float blocks as column-major ``(rows, n)`` views.

    The buffers grow to the largest ``rows * n`` the thread has run and are
    reused from call to call, so a thread holds at most ``3 * 8`` bytes
    times that many elements: 3 MiB per thread for the two 32 x 4096 row
    ranges of a sliced 64 x 4096 product.  Bodies never re-enter the
    engine, so no two calls on one thread use them at once.
    """
    size = rows * n
    buffers = getattr(_WORKSPACES, "buffers", None)
    if buffers is None or buffers[0].size < size:
        buffers = _WORKSPACES.buffers = tuple(np.empty(size) for _ in range(3))
    return tuple(buf[:size].reshape(n, rows).T for buf in buffers)


def row_slices(rows: int, n: int) -> int:
    """How many row ranges a ``(rows, n)`` block runs as (see
    :data:`SLICE_MIN_ELEMENTS`); 1 means whole, on the calling thread."""
    elements = rows * n
    if _CORES < 2 or elements < SLICE_MIN_ELEMENTS:
        return 1
    return min(_CORES, rows, 2 * elements // SLICE_MIN_ELEMENTS)


# ---------------------------------------------------------------------------
# Engine facade
# ---------------------------------------------------------------------------

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
    ``(batch, n)`` blocks: one set of numpy operations - a few radix
    passes, one ``matmul`` each - covers the whole batch (the software
    analogue of the paper's parallel superbanks).
    Single-pair calls are batches of one.  Blocks past
    :data:`SLICE_MIN_ELEMENTS` are further split by rows across the host's
    cores; each public call validates on the calling thread, and the row
    ranges run the private ``_*_rows`` bodies, never the public methods.

    Operands that meet many times stay in the NTT domain:
    ``to_ntt_many``, ``pointwise_sum`` and ``from_ntt_many`` are the three
    steps of ``multiply_many`` with the forward transforms and the inverse
    shared across products.  NTT-domain rows are canonical ``uint64``
    residues in the kernel's native bit-reversed order.

    Every method runs the gather-free float64 datapath of
    :mod:`repro.ntt.batch`, so ``q`` must be below ``FLOAT_MAX_Q = 2^26``;
    wider moduli are composed from such primes by
    :class:`repro.ntt.rns.RnsBasis`.  Results are canonical residues in
    ``[0, q)``, bit-identical to the pure-Python oracle.  Every table is
    read-only.
    """

    def __init__(self, params: NttParams):
        check_kernel_modulus(params.q)
        n, q = params.n, params.q
        if q >= FLOAT_MAX_Q:
            raise ValueError(
                f"modulus {q} is at or above FLOAT_MAX_Q = 2^26, the limit "
                f"of the float64 engine datapath; compose wider moduli from "
                f"NTT primes below it with RnsBasis")
        self.params = params
        self._plan: StagePlan = stage_plan(n)
        self._schedule = float_schedule(n, q)
        rev = self._plan.bitrev
        #: negacyclic passes, phi folded in: zeta[k] = phi^brv(k)
        self._zeta = self._matrices(np.asarray(params.phi_powers())[rev],
                                    inverse=False)
        self._zeta_inv = self._matrices(
            np.asarray(params.phi_inv_powers())[rev], inverse=True)

    def _matrices(self, table, inverse: bool) -> Tuple[np.ndarray, ...]:
        """The pass matrices of a stage-laid-out twiddle table, ``n^-1``
        folded into the inverse's last pass."""
        return pass_matrices(table, self.n, self._schedule, inverse=inverse,
                             scale=self.params.n_inv if inverse else 1)

    # The cyclic passes serve only the standalone transforms, so they are
    # built on first use: products and NTT-domain operands never read them.
    # Two threads racing on the first use build identical read-only tables.

    @cached_property
    def _cyclic(self) -> Tuple[np.ndarray, ...]:
        return self._matrices(
            _stage_layout(self.params.forward_twiddles_bitrev()),
            inverse=False)

    @cached_property
    def _cyclic_inv(self) -> Tuple[np.ndarray, ...]:
        return self._matrices(
            _stage_layout(self.params.inverse_twiddles_bitrev()),
            inverse=True)

    @classmethod
    def for_degree(cls, n: int) -> "NttEngine":
        return cls.shared(params_for_degree(n))

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

    def forward_many(self, values: np.ndarray) -> np.ndarray:
        """Forward NTT of every row of a ``(batch, n)`` block."""
        return self._run(self._forward_rows, self._rows(values))

    def inverse_many(self, values: np.ndarray) -> np.ndarray:
        """Inverse NTT (with ``n^-1`` scaling) of every row."""
        return self._run(self._inverse_rows, self._rows(values))

    def multiply_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic products of ``(batch, n)`` operand blocks, row-wise.

        Bit-identical to calling :meth:`multiply` on each row, at the cost
        of roughly one transform's worth of numpy dispatch for the whole
        batch.  The phi twists live in the twiddles and the pointwise
        product runs in bit-reversed order, so nothing is gathered, and the
        operands stay float64 from the first transform to the last.
        """
        a2 = self._rows(a)
        b2 = self._rows(b)
        if a2.shape[0] != b2.shape[0]:
            raise ValueError(
                f"operand batches differ: {a2.shape[0]} vs {b2.shape[0]}"
            )
        return self._run(self._multiply_rows, a2, b2)

    # -- NTT-domain operands ------------------------------------------------

    def to_ntt_many(self, values: np.ndarray) -> np.ndarray:
        """Every row of a ``(batch, n)`` block into the NTT domain.

        Row ``r`` of the result is ``ntt_gs`` of the phi-twisted row in
        bit-reversed order: the negacyclic forward transform of
        :meth:`multiply_many`, as canonical ``uint64`` residues.  The
        result is row-contiguous (C order), so the broadcast products and
        sums of :meth:`pointwise_sum` run on contiguous rows.
        """
        return self._run(self._to_ntt_rows, self._rows(values), order="C")

    def from_ntt_many(self, values: np.ndarray) -> np.ndarray:
        """Every NTT-domain row of a ``(batch, n)`` block back to
        coefficients: the inverse of :meth:`to_ntt_many`, ``n^-1``
        scale and phi untwist included."""
        return self._run(self._from_ntt_rows, self._rows(values))

    def pointwise_sum(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``sum(a * b, axis=-2) mod q`` over NTT-domain operands.

        ``a`` and ``b`` broadcast like numpy arrays whose last axis has
        length ``n``; axis ``-2`` of the broadcast shape holds the terms.
        ``from_ntt_many`` of a result row is the sum of the negacyclic
        products of the rows it was made from.  Each product is exact and
        reduced before the sum, which ``FloatSchedule.sum_terms`` bounds.
        """
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        if min(a.ndim, b.ndim) < 2 or a.shape[-1] != self.n \
                or b.shape[-1] != self.n:
            raise ValueError(
                f"expected (..., terms, {self.n}) operands, got shapes "
                f"{a.shape} and {b.shape}")
        try:
            terms = np.broadcast_shapes(a.shape, b.shape)[-2]
        except ValueError:
            raise ValueError(f"operand shapes {a.shape} and {b.shape} do "
                             f"not broadcast") from None
        if terms > self._schedule.sum_terms:
            raise ValueError(
                f"{terms} terms exceed the float datapath's sum bound of "
                f"{self._schedule.sum_terms} for q = {self.q}")
        products = np.multiply(self._residues(a, np.empty(a.shape)),
                               self._residues(b, np.empty(b.shape)))
        reduce_float(products, float(self.q), np.empty_like(products))
        total = products.sum(axis=-2)
        return self._emit(self._canonical(total, np.empty_like(total)), None)

    def _rows(self, values: np.ndarray) -> np.ndarray:
        """The caller's block as ``uint64``, shape-checked."""
        arr = np.asarray(values, dtype=np.uint64)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ValueError(
                f"expected a (batch, {self.n}) array, got shape {arr.shape}"
            )
        return arr

    def _run(self, body: Callable[..., np.ndarray], *blocks: np.ndarray,
             order: str = "F") -> np.ndarray:
        """``body`` over the :func:`row_slices` row ranges of ``blocks``.

        A whole block returns the fresh array ``body(*blocks, None)``
        makes; its float temporaries live in the calling thread's
        :func:`_workspace`, not on the heap.  A sliced one fills one
        preallocated result through ``body(*row_ranges, out_range)``: the
        calling thread runs the first range itself and the pool the rest,
        each thread in its own workspace.  Bodies never re-enter the
        public methods, so a range never re-slices (and never waits on its
        own pool).  ``order`` is the layout of a sliced result: the one
        ``body`` returns for a whole block.
        """
        rows = blocks[0].shape[0]
        slices = row_slices(rows, self.n)
        if slices == 1:
            return body(*blocks, None)
        out = np.empty((rows, self.n), dtype=np.uint64, order=order)
        bounds = [rows * i // slices for i in range(slices + 1)]

        def run(lo: int, hi: int) -> None:
            body(*(block[lo:hi] for block in blocks), out[lo:hi])

        futures = [_pool().submit(run, lo, hi)
                   for lo, hi in zip(bounds[1:-1], bounds[2:])]
        try:
            run(bounds[0], bounds[1])
        finally:
            wait(futures)
        for future in futures:
            future.result()
        return out

    def _residues(self, arr: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``arr mod q`` written into the float64 array ``out``."""
        if arr.size and arr.max() >= self.q:
            np.remainder(arr, np.uint64(self.q), out=out)
        else:  # already canonical: a cast, about 4x cheaper than uint64 %
            np.copyto(out, arr, casting="unsafe")
        return out

    def _as_batch(self, arr: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One reduction mod ``q`` into the column-major float64 block
        ``out`` (the layout every kernel pass runs on)."""
        # written as the C-contiguous (n, batch) transpose: numpy then walks
        # the output contiguously, which is the cheaper side of the transpose
        return self._residues(arr.T, out.T).T

    def _canonical(self, x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Bounded signed float values -> canonical residues, in place;
        ``scratch`` is a spare block of ``x``'s shape."""
        q = float(self.q)
        return canonical_float(reduce_float(x, q, scratch), q, scratch)

    @staticmethod
    def _emit(x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """Canonical float residues as a fresh ``uint64`` array in ``x``'s
        layout, or written into the caller's row range of a sliced
        result."""
        if out is None:
            return x.astype(np.uint64)
        np.copyto(out, x, casting="unsafe")
        return out

    # -- float-resident bodies ----------------------------------------------
    #
    # Each body runs in its thread's three workspace blocks and hands the
    # spare of one step to the next; only the returned uint64 array is new.

    def _forward(self, values: np.ndarray, matrices, work: np.ndarray,
                 spare: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rows mod ``q`` through the Cooley-Tukey passes of ``matrices``,
        in the blocks ``work`` and ``spare``: ``(result, free)``,
        ``result`` in bit-reversed order, bounded but unreduced."""
        return ct_forward_float(self._as_batch(values, work), spare,
                                matrices, self._schedule, self._plan)

    def _inverse(self, work: np.ndarray, spare: np.ndarray, matrices,
                 out: Optional[np.ndarray]) -> np.ndarray:
        """A bit-reversed float64 block (``|x| <= q - 1``) through the
        Gentleman-Sande passes of ``matrices``, ``n^-1`` folded into the
        last, to canonical residues; ``spare`` is a free block of its
        shape."""
        work, spare = gs_inverse_float(work, spare, matrices,
                                       self._schedule, self._plan)
        return self._emit(self._canonical(work, spare), out)

    def _forward_rows(self, values: np.ndarray,
                      out: Optional[np.ndarray]) -> np.ndarray:
        w0, w1, w2 = _workspace(values.shape[0], self.n)
        spectrum = self._canonical(*self._forward(values, self._cyclic,
                                                  w0, w1))
        return self._emit(bitrev_gather_rows(spectrum, self._plan, w2), out)

    def _inverse_rows(self, values: np.ndarray,
                      out: Optional[np.ndarray]) -> np.ndarray:
        w0, w1, w2 = _workspace(values.shape[0], self.n)
        work = bitrev_gather_rows(self._as_batch(values, w2), self._plan, w0)
        return self._inverse(work, w1, self._cyclic_inv, out)

    def _to_ntt_rows(self, values: np.ndarray,
                     out: Optional[np.ndarray]) -> np.ndarray:
        w0, w1, _ = _workspace(values.shape[0], self.n)
        hat = self._canonical(*self._forward(values, self._zeta, w0, w1))
        if out is None:
            # row-contiguous, so broadcast products and sums over NTT-domain
            # rows run on contiguous runs; the cast does the transpose
            return np.ascontiguousarray(hat, dtype=np.uint64)
        return self._emit(hat, out)

    def _from_ntt_rows(self, values: np.ndarray,
                       out: Optional[np.ndarray]) -> np.ndarray:
        w0, w1, _ = _workspace(values.shape[0], self.n)
        return self._inverse(self._as_batch(values, w0), w1,
                             self._zeta_inv, out)

    def _multiply_rows(self, a: np.ndarray, b: np.ndarray,
                       out: Optional[np.ndarray]) -> np.ndarray:
        q = float(self.q)
        w0, w1, w2 = _workspace(a.shape[0], self.n)
        a2, free = self._forward(a, self._zeta, w0, w1)
        b2, free = self._forward(b, self._zeta, w2, free)
        for block, reduce in zip((a2, b2), self._schedule.reduce_operands):
            if reduce:
                reduce_float(block, q, free)
        # pointwise product in bit-reversed order; b2 is then free too
        np.multiply(a2, b2, out=a2)
        reduce_float(a2, q, free)
        return self._inverse(a2, b2, self._zeta_inv, out)
