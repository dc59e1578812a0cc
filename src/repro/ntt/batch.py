"""Batched (2-D) NTT kernels and the cached per-degree stage plan.

Section III-D.2 of the paper reconfigures small degrees into *multiple
parallel superbanks*, so the natural unit of work at production scale is a
*batch* of polynomials, not a single pair.  Related in-memory accelerators
(BP-NTT's bit-parallel in-SRAM batching, NTT-PIM's row-centric mapping) win
precisely by amortising per-transform control overhead across many
polynomials.  This module gives the software simulator the same shape: one
set of numpy operations processes a whole ``(batch, n)`` block.

The production datapath serves every modulus below :data:`FLOAT_MAX_Q`:

========================  =================================================
``q < 2^26``              :func:`ct_forward_float` / :func:`gs_inverse_float`
                          on signed ``float64`` with lazy reduction: the
                          butterfly stages merged into radix-``2^s``
                          passes, each one exact ``matmul``; phi folded
                          into the matrices, no row gathers.  This covers
                          every paper modulus (7681, 12289, 786433),
                          Dilithium's 8380417 and 24-bit RNS primes.
========================  =================================================

Wider moduli are composed from such primes by
:class:`repro.ntt.rns.RnsBasis`.  The exact-``%`` :func:`gs_kernel_batch`
(``q < 2^31``) remains only as the oracle under the single-polynomial
``*_np`` functions.

Pieces:

* :func:`stage_plan` - an ``lru_cache``-d per-degree **stage plan**: the
  bit-reversal gather plus every butterfly stage's reshape geometry
  ``(groups, distance)``, built once per degree.
* :func:`gs_kernel_batch` - Algorithm 2 vectorised over a 2-D ``uint64``
  block, in place, with exact ``%`` butterflies; each row is one polynomial
  in bit-reversed order on entry and natural order on exit.
* :func:`float_schedule` - the static per-``(n, q)`` pass layout and
  reduction schedule of the float datapath, with its 2^52 bounds (the
  NTT-domain sum's too) proved once by :func:`check_schedule`.
* :func:`pass_matrices` - each pass's ``r x r`` matrices, the product of
  the butterfly stages it merges, built once per engine.
* :func:`ct_forward_float` / :func:`gs_inverse_float` - the merged
  Cooley-Tukey forward (natural in, bit-reversed out) and Gentleman-Sande
  inverse (bit-reversed in, natural out) on ``float64`` blocks.

Kernels take **column-major** ``(batch, n)`` blocks (Fortran order: the
batch index varies fastest).  A radix pass then views the ``(n, batch)``
transpose as ``(blocks, r, rest)``, so every block is one matrix product
over contiguous runs of at least ``batch`` values; the oracle's stages
view it as ``(groups, 2, distance, batch)`` the same way.

The float kernels fire the stage hook once per radix pass with ``stage``
the log2 of the pass's smallest butterfly distance, so the cells of
:class:`repro.obs.KernelProfiler` are passes, the same for the forward and
the inverse; the oracle fires none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import Callable, Optional, Tuple

import numpy as np

from .bitrev import bitrev_indices

__all__ = [
    "StagePlan",
    "stage_plan",
    "bitrev_gather_rows",
    "gs_kernel_batch",
    "FloatSchedule",
    "float_schedule",
    "check_schedule",
    "pass_matrices",
    "MAX_PASS_LOG",
    "GEMM_MAX_MACS",
    "ct_forward_float",
    "gs_inverse_float",
    "reduce_float",
    "canonical_float",
    "check_kernel_modulus",
    "set_stage_hook",
    "StageHook",
    "KERNEL_MAX_Q_BITS",
    "FLOAT_MAX_Q",
]

#: profiling callback fired once per radix pass of the float kernels with
#: ``(n, stage, batch, seconds)``, ``stage`` the log2 of the pass's smallest
#: butterfly distance; see :class:`repro.obs.KernelProfiler`
StageHook = Callable[[int, int, int, float], None]

_STAGE_HOOK: Optional[StageHook] = None


def set_stage_hook(hook: Optional[StageHook]) -> Optional[StageHook]:
    """Install (or clear, with ``None``) the kernel stage hook.

    Returns the previously installed hook so profilers can nest and
    restore.  The hook fires once per radix pass of
    :func:`ct_forward_float` / :func:`gs_inverse_float` (``len(
    float_schedule(n, q).passes)`` per transform, 2 at n = 256 and 3 at
    n = 4096 for the paper's moduli); the uninstalled cost is one
    ``is not None`` branch per pass - nothing measurable.
    """
    global _STAGE_HOOK
    previous = _STAGE_HOOK
    _STAGE_HOOK = hook
    return previous

#: moduli below this bound run on the float64 lazy-reduction datapath, the
#: only engine datapath: every paper modulus and 24-bit RNS primes.  A
#: twiddle product of two unreduced-but-bounded residues must stay below
#: 2^52, which leaves no headroom for lazy sums once q reaches 2^26.
FLOAT_MAX_Q = 1 << 26
#: widest modulus the exact ``%`` oracle kernel accepts.  The ``%`` path
#: multiplies the *biased* butterfly difference ``t + q - bot < 2q`` by a
#: twiddle ``< q``, so intermediates need ``2*bits(q) + 1`` bits; 31-bit
#: moduli are the largest whose products provably fit uint64.  (MOD001 in
#: ``repro.analyze`` enforces the same budget statically.)
KERNEL_MAX_Q_BITS = 31
#: every integer the float datapath forms stays at or below this magnitude
_FLOAT_CAP = 1 << 52


def check_kernel_modulus(q: int) -> int:
    """Validate ``q`` against the uint64 datapath width contract."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    if q.bit_length() > KERNEL_MAX_Q_BITS:
        raise ValueError(
            f"modulus {q} needs {q.bit_length()} bits but the uint64 kernel "
            f"datapath is exact only up to KERNEL_MAX_Q_BITS = "
            f"{KERNEL_MAX_Q_BITS}: the butterfly computes "
            f"twiddle * (t + q - bot) with the difference in [0, 2q), and "
            f"beyond 31-bit moduli that product wraps 64 bits and the "
            f"following % reduces garbage")
    return q


@dataclass(frozen=True, eq=False)
class StagePlan:
    """Precomputed butterfly geometry for one power-of-two degree ``n``.

    Attributes:
        n: polynomial degree.
        log_n: number of butterfly stages.
        bitrev: ``int64`` gather for the bit-reversed write (Algorithm 1
            line 4; a row-address permutation in the hardware).
        shapes: ``(groups, distance)`` for butterfly distance ``2^i`` at
            index ``i``.  Kernels run on column-major blocks, so the stage
            views the ``(n, batch)`` transpose as ``(groups, 2, distance,
            batch)``: group ``g``'s tops and bots are contiguous runs of
            ``distance * batch`` values sharing one twiddle.
    """

    n: int
    log_n: int
    bitrev: np.ndarray
    shapes: Tuple[Tuple[int, int], ...]


@lru_cache(maxsize=64)
def stage_plan(n: int) -> StagePlan:
    """Build (and cache) the stage plan for degree ``n``.

    Repeat calls return the *same object*, so every transform of a given
    degree - single or batched, any modulus - shares one set of tables.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"degree must be a power of two >= 2, got {n}")
    log_n = n.bit_length() - 1
    rev = np.asarray(bitrev_indices(n), dtype=np.int64)
    rev.setflags(write=False)
    shapes = tuple((n >> (i + 1), 1 << i) for i in range(log_n))
    return StagePlan(n=n, log_n=log_n, bitrev=rev, shapes=shapes)


def bitrev_gather_rows(values: np.ndarray, plan: StagePlan) -> np.ndarray:
    """Row-wise bit-reversal gather of a ``(batch, n)`` array into a fresh
    column-major block."""
    return values.T[plan.bitrev].T


def _columns(values: np.ndarray, plan: StagePlan | None
             ) -> Tuple[np.ndarray, StagePlan]:
    """The ``(n, batch)`` C-contiguous view of a column-major block."""
    if values.ndim != 2:
        raise ValueError(f"expected a (batch, n) array, got shape {values.shape}")
    if not values.flags.f_contiguous:
        raise ValueError(
            "kernel blocks must be column-major (Fortran-contiguous): "
            "bitrev_gather_rows and the engine's marshalling produce them")
    n = values.shape[1]
    if plan is None:
        plan = stage_plan(n)
    elif plan.n != n:
        raise ValueError(f"plan is for n={plan.n}, values have n={n}")
    return values.T, plan


def gs_kernel_batch(
    values: np.ndarray,
    twiddles_bitrev: np.ndarray,
    q: int,
    plan: StagePlan | None = None,
) -> np.ndarray:
    """Vectorised Algorithm 2 over a column-major ``(batch, n)`` block, in
    place.

    Rows enter in bit-reversed order and leave holding the transform in
    natural order.  Every butterfly reduces with ``%``: this is the exact
    oracle under the single-polynomial ``*_np`` functions, not an engine
    datapath.
    """
    check_kernel_modulus(q)
    cols, plan = _columns(values, plan)
    batch = cols.shape[1]
    if batch == 0:
        return values  # empty batch: nothing to transform
    tw = twiddles_bitrev
    for groups, distance in plan.shapes:
        v = cols.reshape(groups, 2, distance, batch)
        bot = v[:, 1]
        t = v[:, 0].copy()
        w = tw[:groups].reshape(groups, 1, 1)
        v[:, 0] = (t + bot) % q
        # (t - bot) can be negative; lift by q before the unsigned subtract
        v[:, 1] = (w * ((t + q - bot) % q)) % q
    return values


# ---------------------------------------------------------------------------
# float64 lazy-reduction datapath (q < 2^26): merged radix passes
# ---------------------------------------------------------------------------

#: widest pass the schedule picks, as ``s`` in radix ``2^s``.  A pass costs
#: one ``matmul`` whatever its radix, but ``2^s`` multiply-adds per value.
#: ``multiply_many`` medians on one core of a 2-vCPU x86-64 host (OpenBLAS
#: 0.3.31) with the width capped at s = 3 / 4 / 5 / 6: 0.128 / 0.103 /
#: 0.110 / 0.102 ms at n = 256 x 13 (3, 2, 2 and 2 passes), 2.66 / 2.58 /
#: 2.64 / 2.70 ms at n = 1024 x 64 (4, 3, 2, 2) and 17.1 / 15.8 / 15.3 /
#: 16.4 ms at n = 4096 x 64 (4, 3, 3, 2).
MAX_PASS_LOG = 5


def reduce_float(x: np.ndarray, q: float, scratch: np.ndarray) -> np.ndarray:
    """``x -= rint(x * fl(1/q)) * q`` in place: a signed residue of ``x``.

    ``x`` holds integers in float64 with ``|x| <= 2^52`` (the caller's
    :class:`FloatSchedule` guarantees it).  Then:

    * ``fl(x * fl(1/q))`` differs from the real ``x/q`` by at most
      ``|x/q| * 2^-52 * (1 + 2^-53) <= (1 + 2^-52)/q``, so with
      ``k = rint(...)``, ``|k - x/q| <= 1/2 + 1.01/q``;
    * hence ``|k*q| <= |x| + q/2 + 1.01 < 2^53`` is exact, and the
      difference ``r = x - k*q = q * (x/q - k)`` is an exactly
      representable integer with ``|r| <= q/2 + 1.01``, that is
      ``|r| <= q//2 + 1``.

    ``r == x (mod q)`` exactly.  ``scratch`` must not alias ``x``.
    """
    np.multiply(x, 1.0 / q, out=scratch)
    np.rint(scratch, out=scratch)
    np.multiply(scratch, q, out=scratch)
    np.subtract(x, scratch, out=x)
    return x


def canonical_float(x: np.ndarray, q: float,
                    scratch: np.ndarray) -> np.ndarray:
    """Map signed residues with ``|x| < q`` to ``[0, q)`` in place.

    ``x -= floor(x * fl(1/q)) * q``: for ``-q < x < 0`` the float quotient
    lies strictly inside ``(-1, 0)`` and for ``0 <= x < q`` inside
    ``[0, 1)`` (the rounding error is far below ``1/q``), so the floor is
    exactly -1 or 0 and every step is exact.  Branch-free: a masked add
    (``where=x < 0``) mispredicts on residues of random sign and ran 4-6x
    slower.  ``scratch`` must not alias ``x``.
    """
    np.multiply(x, 1.0 / q, out=scratch)
    np.floor(scratch, out=scratch)
    np.multiply(scratch, q, out=scratch)
    np.subtract(x, scratch, out=x)
    return x


@dataclass(frozen=True, eq=False)
class FloatSchedule:
    """How the float datapath runs one ``(n, q)``: its radix passes and
    where it reduces.

    A pass merges ``s`` consecutive butterfly stages into one product with
    an ``r x r`` matrix per block, ``r = 2^s``, whose entries are centred
    residues (``|m| <= q//2``).  Each output is a sum of ``r`` products
    ``m * x``.  While ``r * (q//2) * max|x| <= 2^52`` every product and
    every partial sum is an integer of magnitude at most 2^52, exact in
    float64 in whatever order BLAS adds them, with or without FMA, on any
    number of threads.  Values are tracked by a bound on their magnitude:
    a pass multiplies it by ``r * (q//2)``, an explicit reduction
    (:func:`reduce_float`) leaves ``q//2 + 1``.  Reductions are inserted
    exactly where a following pass or product would otherwise pass 2^52.

    Attributes:
        q: the modulus.
        passes: ``(lo, s)`` per pass in stage order: the pass merges the
            butterfly stages of distances ``2^lo .. 2^(lo + s - 1)``.  The
            forward runs them last to first, the inverse first to last.
        forward: per forward pass, in execution order: reduce the block
            before the pass.
        reduce_operands: reduce ``(a, b)`` before the pointwise product.
        inverse: per inverse pass, in execution order: reduce the block
            before the pass.
        sum_terms: the most products one NTT-domain sum may add.  Its
            operands are canonical, so each product ``<= (q-1)^2 < 2^52``
            is exact and reduces to ``|r| <= q//2 + 1``; ``sum_terms`` such
            terms stay within 2^52 for the one reduction after the sum.
            Every ``q < 2^26`` allows at least 2^27 terms.
    """

    q: int
    passes: Tuple[Tuple[int, int], ...]
    forward: Tuple[bool, ...]
    reduce_operands: Tuple[bool, bool]
    inverse: Tuple[bool, ...]
    sum_terms: int


def float_schedule(n: int, q: int) -> FloatSchedule:
    """The float datapath's schedule for ``(n, q)``, checked.

    Picks the fewest passes no wider than :data:`MAX_PASS_LOG` whose radix
    is provably exact on reduced values (radix 4 for primes near 2^26),
    balances their widths and gives the narrowest ones the low stages,
    where a pass has the most blocks and hence the most matrices; then
    proves it with :func:`check_schedule`, which also refuses any ``q``
    outside the float datapath.
    """
    log_n = stage_plan(n).log_n
    widest = MAX_PASS_LOG
    while widest > 1 and ((q // 2) * (q // 2 + 1) << widest) > _FLOAT_CAP:
        widest -= 1
    count = -(-log_n // widest)
    return check_schedule(n, q, sorted(
        log_n // count + (i < log_n % count) for i in range(count)))


def check_schedule(n: int, q: int, widths) -> FloatSchedule:
    """The schedule that runs passes of ``widths`` (``s`` per pass, low
    stages first) for ``(n, q)``, with every reduction placed and every
    bound proved.

    Inputs enter both transforms and the NTT-domain sum canonical
    (``[0, q)``).  Raises ``ValueError`` if ``q`` is outside the float
    datapath, the widths do not cover the ``log2(n)`` stages, or a pass or
    product could reach 2^52 even on reduced inputs.
    """
    if not 2 <= q < FLOAT_MAX_Q:
        raise ValueError(
            f"the float64 datapath serves 2 <= q < 2^26, got q = {q}")
    log_n = stage_plan(n).log_n
    widths = tuple(int(s) for s in widths)
    if min(widths, default=0) < 1 or sum(widths) != log_n:
        raise ValueError(f"pass widths {widths} do not cover the {log_n} "
                         f"butterfly stages of n = {n}")
    passes = tuple((sum(widths[:i]), s) for i, s in enumerate(widths))
    tw = q // 2          # centred matrix entry magnitude
    red = q // 2 + 1     # reduction output magnitude

    def run(order, bound: int) -> Tuple[Tuple[bool, ...], int]:
        reduce = []
        for lo, s in order:
            before = (bound * tw << s) > _FLOAT_CAP
            if before:
                bound = red
            if (bound * tw << s) > _FLOAT_CAP:
                raise ValueError(
                    f"float datapath pass bound 2^{s} * {tw} * {bound} "
                    f"exceeds 2^52 for stages {lo}..{lo + s - 1} of "
                    f"n = {n}, q = {q}")
            reduce.append(before)
            bound = bound * tw << s
        return tuple(reduce), bound

    forward, bound = run(passes[::-1], q - 1)
    ops = [bound, bound]
    reduce_operands = [False, False]
    for i in range(2):
        if ops[0] * ops[1] > _FLOAT_CAP:
            ops[i] = red
            reduce_operands[i] = True
    if ops[0] * ops[1] > _FLOAT_CAP:
        raise ValueError(f"float datapath product bound {ops[0]} * "
                         f"{ops[1]} exceeds 2^52 for n = {n}, q = {q}")
    inverse, _ = run(passes, max(q - 1, red))
    if (q - 1) * (q - 1) > _FLOAT_CAP:   # NTT-domain sum: canonical operands
        raise ValueError(f"float datapath product bound ({q} - 1)^2 "
                         f"exceeds 2^52")
    return FloatSchedule(q=q, passes=passes, forward=forward,
                         reduce_operands=(reduce_operands[0],
                                          reduce_operands[1]),
                         inverse=inverse, sum_terms=_FLOAT_CAP // red)


def pass_matrices(twiddles, n: int, schedule: FloatSchedule, *,
                  inverse: bool, scale: int = 1) -> Tuple[np.ndarray, ...]:
    """The ``(blocks, r, r)`` matrices of every pass, in execution order.

    ``twiddles`` is a stage-laid-out table: the butterfly stage with ``G``
    groups reads ``twiddles[G:2G]``.  Each pass's matrices are the product
    of the ``s`` butterfly stages they merge, built by running those
    stages as row operations on identity matrices, all blocks at once:

    * forward (Cooley-Tukey, ``top + w*bot | top - w*bot``): the pass on
      stages ``lo .. lo+s-1`` views the ``(n, batch)`` block as
      ``(n >> (lo+s), r, 2^lo * batch)``;
    * inverse (Gentleman-Sande, ``top + bot | w*(top - bot)``): the same
      view, stages run from ``lo`` up.

    The last pass in execution order is also scaled by ``scale`` (the
    engine folds the inverse's ``n^-1`` in there).

    Entries are centred (``|m| <= q//2``) ``float64``, read-only.  They
    are built in float64 too, every stage reduced by :func:`reduce_float`
    (all values stay within ``q//2 + 1``, so every product is below 2^52
    and exact), then centred exactly.
    """
    q = schedule.q
    qf = float(q)
    tw = np.asarray(twiddles, dtype=np.int64) % q
    tw = np.where(tw > q // 2, tw - q, tw).astype(np.float64)
    order = schedule.passes if inverse else schedule.passes[::-1]
    result = []
    for lo, s in order:
        r = 1 << s
        blocks = n >> (lo + s)
        m = np.tile(np.eye(r), (blocks, 1, 1))
        scratch = np.empty_like(m)
        for t in range(s):
            if inverse:      # distance 2^(lo+t): groups of 2^(t+1) rows
                groups = n >> (lo + t + 1)
                v = m.reshape(blocks, r >> (t + 1), 2, 1 << t, r)
            else:            # distance 2^(lo+s-1-t): 2^t groups per block
                groups = blocks << t
                v = m.reshape(blocks, 1 << t, 2, r >> (t + 1), r)
            w = tw[groups:2 * groups].reshape(v.shape[:2] + (1, 1))
            top, bot = v[:, :, 0].copy(), v[:, :, 1]
            if inverse:
                v[:, :, 0] = top + bot
                v[:, :, 1] = reduce_float(w * (top - bot), qf,
                                          np.empty_like(top))
            else:
                bot = reduce_float(w * bot, qf, np.empty_like(top))
                v[:, :, 0] = top + bot
                v[:, :, 1] = top - bot
            reduce_float(m, qf, scratch)
        result.append(m)
    wide = result[-1]
    np.multiply(wide, float(scale % q), out=wide)
    reduce_float(wide, qf, np.empty_like(wide))
    frozen = []
    for m in result:
        canonical_float(m, qf, np.empty_like(m))
        np.subtract(m, qf, out=m, where=m > q // 2)
        m.setflags(write=False)
        frozen.append(m)
    return tuple(frozen)


#: the most multiply-adds (``m * n * k``) one GEMM of a pass may hold.
#: OpenBLAS runs a GEMM up to 65536 * 4 = 2^18 on the calling thread and
#: hands larger ones to its worker threads; on a 2-vCPU x86-64 VM that
#: made the ``16 x 16 @ 16 x 16384`` pass of a 4096 x 64 block take 8 ms
#: instead of 0.34 ms as sixteen ``16 x 16 @ 16 x 1024`` products.  Host
#: threads come from row slicing (:mod:`repro.ntt.transform`) instead.
GEMM_MAX_MACS = 1 << 18


def _passes(values: np.ndarray, spare: np.ndarray,
            matrices: Tuple[np.ndarray, ...], passes,
            reduce: Tuple[bool, ...], q: int, plan: StagePlan | None
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Run ``matrices`` as radix passes over a column-major block.

    A pass views the ``(n, batch)`` transpose as ``(blocks, r, rest)`` -
    one contiguous run of ``rest`` values per row of each block - and
    multiplies every block by its matrix into the spare block, in one
    ``matmul`` call whose GEMMs each hold at most :data:`GEMM_MAX_MACS`
    (``rest`` is cut into equal column chunks where needed); the two
    blocks then swap roles.
    """
    cols, plan = _columns(values, plan)
    other, _ = _columns(spare, plan)
    if other.shape != cols.shape:
        raise ValueError(f"spare block {spare.shape} does not match the "
                         f"values block {values.shape}")
    n, batch = cols.shape
    if batch == 0:
        return values, spare
    qf = float(q)
    hook = _STAGE_HOOK
    for mats, (lo, _), before in zip(matrices, passes, reduce):
        began = perf_counter() if hook is not None else 0.0
        if before:
            reduce_float(cols, qf, other)
        blocks, r = mats.shape[:2]
        rest = cols.size // (blocks * r)
        chunks = 1
        while r * r * rest > GEMM_MAX_MACS * chunks \
                and rest % (2 * chunks) == 0:
            chunks *= 2
        if chunks == 1:
            np.matmul(mats, cols.reshape(blocks, r, rest),
                      out=other.reshape(blocks, r, rest))
        else:
            shape = (blocks, r, chunks, rest // chunks)
            np.matmul(mats[:, None],
                      cols.reshape(shape).transpose(0, 2, 1, 3),
                      out=other.reshape(shape).transpose(0, 2, 1, 3))
        cols, other = other, cols
        if hook is not None:
            hook(n, lo, batch, perf_counter() - began)
    return cols.T, other.T


def ct_forward_float(values: np.ndarray, spare: np.ndarray,
                     matrices: Tuple[np.ndarray, ...],
                     schedule: FloatSchedule, plan: StagePlan | None = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Merged Cooley-Tukey forward NTT of a column-major float64 block.

    Rows enter in natural order and leave in bit-reversed order, bounded
    but unreduced.  ``matrices`` come from :func:`pass_matrices` on a
    forward table: ``zeta[k] = phi^brv(k)`` gives the negacyclic transform
    with the phi twist folded in, ``zeta[G + g] = w^brv(g)`` the cyclic
    one.  ``schedule.forward`` says where to reduce.  ``spare`` is a
    column-major block of the same shape; the passes alternate between
    the two.  Returns ``(result, free)``: the block holding the transform
    and the other one, whose contents are garbage.
    """
    return _passes(values, spare, matrices, schedule.passes[::-1],
                   schedule.forward, schedule.q, plan)


def gs_inverse_float(values: np.ndarray, spare: np.ndarray,
                     matrices: Tuple[np.ndarray, ...],
                     schedule: FloatSchedule, plan: StagePlan | None = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Merged Gentleman-Sande inverse NTT of a column-major float64 block.

    Rows enter in bit-reversed order and leave in natural order, bounded
    but unreduced.  ``matrices`` come from :func:`pass_matrices` on the
    inverse of the forward table, with whatever scale (``n^-1``) was
    folded into the last pass.  ``schedule.inverse`` says where to reduce.
    ``spare`` and the result are as for :func:`ct_forward_float`.
    """
    return _passes(values, spare, matrices, schedule.passes,
                   schedule.inverse, schedule.q, plan)
