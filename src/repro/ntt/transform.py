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
  the pass matrices and never gathers a row of a product.  An operand
  that meets many others can stay in its NTT domain (``to_ntt_many``),
  and ``dot_many`` sums its products with a batch in one float-resident
  body.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import cached_property, lru_cache
from math import prod
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
    "STAGE_MIN_ROWS",
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
#: ``multiply_many`` medians on the staged kernel (float temporaries in
#: per-thread workspaces, aliasing entries staged), 2-vCPU x86-64 host,
#: whole block vs two slices alternated call by call, 300 calls each,
#: outputs bit-identical; times are the median of three runs, the last
#: column each run's ratio:
#:
#: ===========  ========  ========  ======  ================
#: n x rows     elements  whole     sliced
#: ===========  ========  ========  ======  ================
#: 256 x 64       16,384  0.13 ms   0.26    0.49-0.59x (GIL)
#: 2048 x 16      32,768  0.35      0.43    0.79-1.02x
#: 1024 x 64      65,536  0.60      0.55    1.07-1.21x
#: 4096 x 16      65,536  0.74      0.70    1.04-1.22x
#: 256 x 512     131,072  1.11      0.78    1.35-1.48x
#: 1024 x 128    131,072  1.24      0.90    1.37-1.51x
#: 2048 x 64     131,072  1.79      1.17    1.28-1.53x
#: 4096 x 64     262,144  3.29      2.19    1.37-1.55x
#: 8192 x 64     524,288  7.66      6.49    1.18-1.47x
#: ===========  ========  ========  ======  ================
#:
#: From 2^17 every degree gains; at 2^15 slicing still loses.  2^16 now
#: mostly gains (256 x 256 read 0.93x and 1.29x), but the unstaged kernel
#: did too in the same session (1.13-1.34x, against 0.86-0.90x in the
#: previous table): the host's state moved, not the crossover.
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


#: The one staging rule.  A row-major ``uint64`` block of at least this
#: many rows whose row stride is a multiple of :data:`_ALIAS_BYTES` (every
#: contiguous block from n = 512 up) puts all its rows in the same L1
#: sets, so the transposed cast into the kernel's column-major layout
#: misses on nearly every read.  Such a block enters in two steps: a
#: row-by-row reduction (:meth:`NttEngine._residues`) into a row-major
#: staging view whose rows are ``n + _SKEW`` float64 apart, one cache line
#: of skew per row, then a transposed copy into the work block.  Every
#: other block keeps the single transposed cast.  The rule reads only the
#: block's shape and strides.
#:
#: ``multiply_many`` medians (one core, 2-vCPU x86-64 host, 400 calls
#: each, direct and staged entry alternated call by call, outputs
#: bit-identical), staged time as a speedup over direct:
#:
#: ======  =====  =====  =====  =====  =====
#: rows    n=512  1024   2048   4096   8192
#: ======  =====  =====  =====  =====  =====
#: 12      0.88x  0.94x  0.99x  1.00x  1.00x
#: 16      0.94   0.98   1.02   1.04   1.04
#: 20      0.92   1.02   1.05   1.05   1.07
#: 24      0.99   1.04   1.07   1.06   1.05
#: 32      1.06   1.08   1.11   1.11   1.07
#: ======  =====  =====  =====  =====  =====
#:
#: Repeats at n = 512 and 1024 read 0.94-0.98x at 16 rows and 1.02-1.07x
#: at 24.  The entry cast alone gains more (64 x 4096: 508 -> 275 us;
#: 64 x 8192: 8.4 -> 0.32 ms) but loses below 16 rows (1 x 4096: 0.41x).
#: n = 256 rows are 2 KiB apart and bypass staging: forced through it,
#: ``multiply_many`` read 0.87-0.91x at 16-26 rows and 1.05-1.08x at 64-192.
#: C-order exits (``to_ntt_many``) stay one cast: a staged exit read
#: 0.91-0.92x on ``to_ntt_many`` at 64 x 512 through 64 x 4096.
#: There is deliberately no knob: no environment variable, constructor
#: argument or flag.
STAGE_MIN_ROWS = 24
#: rows whose stride is a multiple of this many bytes alias in L1
_ALIAS_BYTES = 4096
#: a staging row's pitch beyond ``n``: 8 float64, one 64-byte cache line
_SKEW = 8
#: float64 between a thread's three workspace buffers: 9 cache lines, an
#: odd number, so the three streams of a pass do not share L1 sets either
_STAGGER = 72

#: each thread's three flat float64 buffers, shared by every engine
_WORKSPACES = threading.local()


def _workspace(rows: int, n: int) -> Tuple[np.ndarray, ...]:
    """This thread's three float blocks as column-major ``(rows, n)`` views.

    The buffers grow to the largest ``rows * (n + _SKEW)`` the thread has
    run - room for a :func:`_staging` view - and are reused from call to
    call, so a thread holds at most ``3 * 8 B * rows * (n + 8)`` (and the
    stagger): about 3 MiB per thread for the two 32 x 4096 row ranges of
    a sliced 64 x 4096 product.  The three are carved from one array,
    :data:`_STAGGER` elements apart.  Bodies never re-enter the engine,
    so no two calls on one thread use them at once.
    """
    size = rows * (n + _SKEW)
    buffers = getattr(_WORKSPACES, "buffers", None)
    if buffers is None or buffers[0].size < size:
        flat = np.empty(3 * size + 2 * _STAGGER)
        buffers = _WORKSPACES.buffers = tuple(
            flat[i * (size + _STAGGER):][:size] for i in range(3))
    return tuple(buf[:rows * n].reshape(n, rows).T for buf in buffers)


def _staging(block: np.ndarray, via: np.ndarray) -> Optional[np.ndarray]:
    """The staging view for the caller's row-major ``block``, or ``None``
    where :data:`STAGE_MIN_ROWS`'s rule keeps the direct cast.  The view
    is row-major ``(rows, n)`` with rows ``n + _SKEW`` apart, laid over the
    buffer of ``via``, a free :func:`_workspace` block of ``block``'s shape
    (its buffer holds ``rows * (n + _SKEW)`` elements)."""
    rows, n = block.shape
    if rows < STAGE_MIN_ROWS or block.strides[0] % _ALIAS_BYTES:
        return None
    return as_strided(via, (rows, n), (via.itemsize * (n + _SKEW),
                                       via.itemsize))


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

    Operands that meet many times stay in the NTT domain: ``to_ntt_many``
    transforms a key once, and ``dot_many`` sums its products with a
    batch of operands - ``multiply_many`` with the key's forward
    transforms done beforehand and one inverse per sum instead of one per
    product.  NTT-domain rows are canonical ``uint64`` residues in the
    kernel's native bit-reversed order.

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
        result is row-contiguous (C order), so a key's rows reshape to the
        ``(rows, k, n)`` left operand of :meth:`dot_many` without a copy.
        """
        return self._run(self._to_ntt_rows, self._rows(values), order="C")

    def dot_matrix(self, left_hat: np.ndarray) -> np.ndarray:
        """A shared ``(rows, k, n)`` NTT-domain key as the read-only
        float64 ``(n, k, rows)`` matrix :meth:`dot_many` multiplies by:
        one ``(k, rows)`` matrix of canonical residues per position.

        A key that meets many batches keeps it and passes it to
        :meth:`dot_many` in place of ``left_hat``, so no call re-casts or
        re-scans the key.
        """
        left = np.asarray(left_hat, dtype=np.uint64)
        if left.ndim != 3 or left.shape[-1] != self.n:
            raise ValueError(
                f"expected a (rows, k, {self.n}) key, got shape {left.shape}")
        rows, k, n = left.shape
        matrix = self._residues(left.transpose(2, 1, 0),
                                np.empty((n, k, rows)))
        matrix.setflags(write=False)
        return matrix

    def dot_many(self, left_hat: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``out[c, i] = sum_j left[i, j] * right[c, j]``, negacyclic
        products summed in the NTT domain, for a whole batch at once.

        ``left_hat`` is an NTT-domain block (rows of :meth:`to_ntt_many`)
        of shape ``(rows, k, n)`` - one key shared by every member - or
        ``(count, rows, k, n)``, one left operand per member; a length-1
        ``count`` or ``k`` axis broadcasts.  A float64 ``left_hat`` is a
        shared key's :meth:`dot_matrix`, taken as it is.  ``right`` is a
        ``(count, k, n)`` block of coefficients.  Returns the ``(count,
        rows, n)`` coefficients of the sums, canonical, row-contiguous and
        fresh: the caller may write to them.

        The body stays float64 in the thread's workspaces (the left's
        float matrix is its one allocation, none for a key's
        :meth:`dot_matrix`) from its entry cast to its exit
        cast: ``count * k`` forward transforms, one
        exact ``matmul`` against ``left`` per chunk of
        ``FloatSchedule.dot_terms`` terms (the sum is reduced between
        chunks, so any ``k`` is exact), and ``count * rows`` inverse
        transforms - ``2k + 1`` per Kyber encryption where per-product
        ``multiply_many`` would run ``3 (k^2 + k)``.
        """
        left = np.asarray(left_hat)
        right = np.asarray(right, dtype=np.uint64)
        keyed = left.dtype == np.float64    # a key's (n, k, rows) matrix
        if keyed:
            valid = left.ndim == 3 and left.shape[0] == self.n
        else:
            left = left.astype(np.uint64, copy=False)
            valid = left.ndim in (3, 4) and left.shape[-1] == self.n
        if not valid or right.ndim != 3 or right.shape[2] != self.n:
            raise ValueError(
                f"expected a (rows, k, {self.n}) or (count, rows, k, "
                f"{self.n}) left operand and a (count, k, {self.n}) right "
                f"one, got shapes {left.shape} and {right.shape}")
        count, k, n = right.shape
        rows = left.shape[-1] if keyed else left.shape[-3]
        try:
            left = np.broadcast_to(
                left, (n, k, rows) if keyed else (count, rows, k, n))
        except ValueError:
            raise ValueError(
                f"left operand {left.shape} does not broadcast against a "
                f"right operand of {k} terms for {count} members") from None
        shape = (count, rows, n)
        if count == 0:
            return np.empty(shape, dtype=np.uint64)
        if keyed:
            matrix = left
        elif left.strides[0] == 0 or count == 1:   # one key for every member
            matrix = self.dot_matrix(left[0])
        else:
            # one (k, rows) matrix per member and position, member-major so
            # that a sliced call's row ranges split them by member
            matrices = self._residues(left.transpose(0, 3, 2, 1),
                                      np.empty((count, n, k, rows)))
            return self._run(self._dot_rows, right, matrices, order="C",
                             shape=shape)
        return self._run(lambda ops, out: self._dot_rows(ops, matrix, out),
                         right, order="C", shape=shape)

    def _rows(self, values: np.ndarray) -> np.ndarray:
        """The caller's block as ``uint64``, shape-checked."""
        arr = np.asarray(values, dtype=np.uint64)
        if arr.ndim != 2 or arr.shape[1] != self.n:
            raise ValueError(
                f"expected a (batch, {self.n}) array, got shape {arr.shape}"
            )
        return arr

    def _run(self, body: Callable[..., np.ndarray], *blocks: np.ndarray,
             order: str = "F",
             shape: Optional[Tuple[int, ...]] = None) -> np.ndarray:
        """``body`` over the :func:`row_slices` row ranges of ``blocks``.

        A whole block returns the fresh array ``body(*blocks, None)``
        makes; its float temporaries live in the calling thread's
        :func:`_workspace`, not on the heap.  A sliced one fills one
        preallocated result through ``body(*row_ranges, out_range)``: the
        calling thread runs the first range itself and the pool the rest,
        each thread in its own workspace.  Bodies never re-enter the
        public methods, so a range never re-slices (and never waits on its
        own pool).  ``order`` and ``shape`` are the layout and shape of a
        sliced result, ``(rows, n)`` by default: the ones ``body`` returns
        for a whole block.  The slicing rule counts the result's elements.
        """
        rows = blocks[0].shape[0]
        shape = shape or (rows, self.n)
        slices = row_slices(rows, prod(shape[1:]))
        if slices == 1:
            return body(*blocks, None)
        out = np.empty(shape, dtype=np.uint64, order=order)
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

    def _as_batch(self, arr: np.ndarray, out: np.ndarray,
                  via: np.ndarray) -> np.ndarray:
        """One reduction mod ``q`` into the column-major float64 block
        ``out`` (the layout every kernel pass runs on), staged through the
        free block ``via`` where :func:`_staging` says so."""
        stage = _staging(arr, via)
        if stage is None:
            # written as the C-contiguous (n, batch) transpose: numpy then
            # walks the output contiguously, the cheaper side of the
            # transpose
            return self._residues(arr.T, out.T).T
        np.copyto(out.T, self._residues(arr, stage).T)
        return out

    def _canonical(self, x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Bounded signed float values -> canonical residues, in place;
        ``scratch`` is a spare block of ``x``'s shape."""
        q = float(self.q)
        return canonical_float(reduce_float(x, q, scratch), q, scratch)

    @staticmethod
    def _emit(x: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """Canonical float residues as a fresh ``uint64`` array in ``x``'s
        layout, or written into ``out``: a sliced result's row range, or
        a whole C-order result.  The exit is one cast even where ``out``'s
        rows alias (see :data:`STAGE_MIN_ROWS`)."""
        if out is None:
            return x.astype(np.uint64)
        np.copyto(out, x, casting="unsafe")
        return out

    # -- float-resident bodies ----------------------------------------------
    #
    # Each body runs in its thread's three workspace blocks and hands the
    # spare of one step to the next; only the returned uint64 array is new.

    def _forward(self, work: np.ndarray, spare: np.ndarray,
                 matrices) -> Tuple[np.ndarray, np.ndarray]:
        """A float64 block of residues through the Cooley-Tukey passes of
        ``matrices``, in the blocks ``work`` and ``spare``:
        ``(result, free)``, ``result`` in bit-reversed order, bounded but
        unreduced."""
        return ct_forward_float(work, spare, matrices, self._schedule,
                                self._plan)

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
        spectrum = self._canonical(*self._forward(
            self._as_batch(values, w0, w1), w1, self._cyclic))
        return self._emit(bitrev_gather_rows(spectrum, self._plan, w2), out)

    def _inverse_rows(self, values: np.ndarray,
                      out: Optional[np.ndarray]) -> np.ndarray:
        w0, w1, w2 = _workspace(values.shape[0], self.n)
        work = bitrev_gather_rows(self._as_batch(values, w2, w0), self._plan,
                                  w0)
        return self._inverse(work, w1, self._cyclic_inv, out)

    def _to_ntt_rows(self, values: np.ndarray,
                     out: Optional[np.ndarray]) -> np.ndarray:
        w0, w1, _ = _workspace(values.shape[0], self.n)
        hat = self._canonical(*self._forward(
            self._as_batch(values, w0, w1), w1, self._zeta))
        if out is None:
            # row-contiguous, so broadcast products and sums over NTT-domain
            # rows run on contiguous runs; the cast does the transpose
            out = np.empty(hat.shape, dtype=np.uint64)
        return self._emit(hat, out)

    def _dot_rows(self, right: np.ndarray, matrix: np.ndarray,
                  out: Optional[np.ndarray]) -> np.ndarray:
        """The sums of a ``(count, k, n)`` block against a shared ``(n, k,
        rows)`` key matrix, or per-member ``(count, n, k, rows)`` ones."""
        count, k, n = right.shape
        rows = matrix.shape[-1]
        q = float(self.q)
        w0, w1, _ = _workspace(count * k, n)
        ops, free = self._forward(
            self._as_batch(right.reshape(count * k, n), w0, w1), w1,
            self._zeta)
        reduce_float(ops, q, free)
        # the free block and the third one, as (count * rows, n) blocks
        b0, b1, sums = _workspace(count * rows, n)
        spare = b1 if np.may_share_memory(ops, w0) else b0
        # each position's (count, k) @ (k, rows), on the (n, batch) views
        hat = ops.T.reshape(n, count, k)
        acc = sums.T.reshape(n, count, rows)
        part = spare.T.reshape(n, count, rows)
        if matrix.ndim == 4:   # per member: batched over (position, member)
            matrix = matrix.transpose(1, 0, 2, 3)
            hat, acc, part = hat[:, :, None], acc[:, :, None], part[:, :, None]
        step = self._schedule.dot_terms
        np.matmul(hat[..., :step], matrix[..., :step, :], out=acc)
        for lo in range(step, k, step):
            reduce_float(sums, q, spare)
            np.matmul(hat[..., lo:lo + step], matrix[..., lo:lo + step, :],
                      out=part)
            np.add(acc, part, out=acc)
        if out is None:
            out = np.empty((count, rows, n), dtype=np.uint64)
        self._inverse(reduce_float(sums, q, spare), spare, self._zeta_inv,
                      out.reshape(count * rows, n))
        return out

    def _multiply_rows(self, a: np.ndarray, b: np.ndarray,
                       out: Optional[np.ndarray]) -> np.ndarray:
        q = float(self.q)
        w0, w1, w2 = _workspace(a.shape[0], self.n)
        # b first, staged through w0, which a then fills through w1
        b2 = self._as_batch(b, w2, w0)
        a2, free = self._forward(self._as_batch(a, w0, w1), w1, self._zeta)
        b2, free = self._forward(b2, free, self._zeta)
        for block, reduce in zip((a2, b2), self._schedule.reduce_operands):
            if reduce:
                reduce_float(block, q, free)
        # pointwise product in bit-reversed order; b2 is then free too
        np.multiply(a2, b2, out=a2)
        reduce_float(a2, q, free)
        return self._inverse(a2, b2, self._zeta_inv, out)
