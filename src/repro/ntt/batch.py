"""Batched (2-D) NTT kernels and the cached per-degree stage plan.

Section III-D.2 of the paper reconfigures small degrees into *multiple
parallel superbanks*, so the natural unit of work at production scale is a
*batch* of polynomials, not a single pair.  Related in-memory accelerators
(BP-NTT's bit-parallel in-SRAM batching, NTT-PIM's row-centric mapping) win
precisely by amortising per-transform control overhead across many
polynomials.  This module gives the software simulator the same shape: one
set of numpy stage operations processes a whole ``(batch, n)`` block.

The production datapath serves every modulus below :data:`FLOAT_MAX_Q`:

========================  =================================================
``q < 2^26``              :func:`ct_forward_float` / :func:`gs_inverse_float`
                          on signed ``float64`` with lazy reduction: phi
                          folded into the twiddles, no row gathers.  This
                          covers every paper modulus (7681, 12289, 786433),
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
* :func:`float_schedule` - the static per-``(n, q)`` reduction schedule of
  the float datapath, with its 2^52 bounds (the NTT-domain sum's too)
  checked once.
* :func:`ct_forward_float` / :func:`gs_inverse_float` - the merged
  Cooley-Tukey forward (natural in, bit-reversed out) and Gentleman-Sande
  inverse (bit-reversed in, natural out) on ``float64`` blocks.

Kernels take **column-major** ``(batch, n)`` blocks (Fortran order: the
batch index varies fastest).  A stage then views the ``(n, batch)``
transpose as ``(groups, 2, distance, batch)``, so even the distance-1
stages run numpy loops over contiguous runs of at least ``batch`` values;
on a row-major block those stages would loop over runs of ``distance``.

Every kernel fires the stage hook once per butterfly stage with
``stage = log2(distance)``, so :class:`repro.obs.KernelProfiler` cells mean
the same thing on every datapath.
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
    "ct_forward_float",
    "gs_inverse_float",
    "modmul_float",
    "reduce_float",
    "canonical_float",
    "check_kernel_modulus",
    "set_stage_hook",
    "StageHook",
    "KERNEL_MAX_Q_BITS",
    "FLOAT_MAX_Q",
]

#: profiling callback fired once per butterfly stage with
#: ``(n, stage, batch, seconds)``; see :class:`repro.obs.KernelProfiler`
StageHook = Callable[[int, int, int, float], None]

_STAGE_HOOK: Optional[StageHook] = None


def set_stage_hook(hook: Optional[StageHook]) -> Optional[StageHook]:
    """Install (or clear, with ``None``) the kernel stage hook.

    Returns the previously installed hook so profilers can nest and
    restore.  The uninstalled cost is one ``is not None`` branch per
    stage (``log2(n)`` per transform) - nothing measurable.
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
    n, batch = cols.shape
    if batch == 0:
        return values  # empty batch: nothing to transform
    tw = twiddles_bitrev
    hook = _STAGE_HOOK
    for stage, (groups, distance) in enumerate(plan.shapes):
        began = perf_counter() if hook is not None else 0.0
        v = cols.reshape(groups, 2, distance, batch)
        bot = v[:, 1]
        t = v[:, 0].copy()
        w = tw[:groups].reshape(groups, 1, 1)
        v[:, 0] = (t + bot) % q
        # (t - bot) can be negative; lift by q before the unsigned subtract
        v[:, 1] = (w * ((t + q - bot) % q)) % q
        if hook is not None:
            hook(n, stage, batch, perf_counter() - began)
    return values


# ---------------------------------------------------------------------------
# float64 lazy-reduction datapath (q < 2^26)
# ---------------------------------------------------------------------------

def modmul_float(x: np.ndarray, w, w_over_q, q: float,
                 out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``out = x*w - rint(x * (w/q)) * q``: a signed residue of ``x*w``.

    ``x`` and ``w`` hold integers in float64 with ``|x*w| <= 2^52`` (the
    caller's :class:`FloatSchedule` guarantees it), and ``w_over_q`` is
    ``fl(w / q)``.  Then:

    * ``x*w`` is an integer below 2^53, so its float product is exact;
    * ``fl(x * fl(w/q))`` differs from the real ``x*w/q`` by at most
      ``|x*w/q| * 2^-52 * (1 + 2^-53) <= (1 + 2^-52)/q``, so with
      ``k = rint(...)``, ``|k - x*w/q| <= 1/2 + 1.01/q``;
    * hence ``|k*q| <= |x*w| + q/2 + 1.01 < 2^53`` is exact too, and the
      difference ``r = x*w - k*q = q * (x*w/q - k)`` is an exactly
      representable integer with ``|r| <= q/2 + 1.01``, that is
      ``|r| <= q//2 + 1``.

    ``r == x*w (mod q)`` exactly.  ``scratch`` must not alias ``x``;
    ``out`` may.
    """
    np.multiply(x, w_over_q, out=scratch)
    np.rint(scratch, out=scratch)
    np.multiply(scratch, q, out=scratch)
    np.multiply(x, w, out=out)
    np.subtract(out, scratch, out=out)
    return out


def canonical_float(x: np.ndarray, q: float) -> np.ndarray:
    """Map signed residues with ``|x| < q`` to ``[0, q)`` in place."""
    np.add(x, q, out=x, where=x < 0)
    return x


@dataclass(frozen=True, eq=False)
class FloatSchedule:
    """Where the float datapath reduces, for one ``(n, q)``.

    Values are tracked by a bound on their magnitude.  A twiddle product
    (``|w| <= q//2``) or an explicit reduction ``x - rint(x/q)*q`` leaves
    ``|r| <= q//2 + 1`` (:func:`modmul_float`); a butterfly sum or
    difference adds the bounds of its inputs.  Reductions are inserted
    exactly where a following product would otherwise pass 2^52.

    Attributes:
        q: the modulus.
        forward: per Cooley-Tukey stage, in execution order (distances
            ``n/2 .. 1``): reduce the whole block before the stage.
        reduce_operands: reduce ``(a, b)`` before the pointwise product.
        inverse: per Gentleman-Sande stage, in execution order (distances
            ``1 .. n/2``): reduce the tops after the stage.
        sum_terms: the most products one NTT-domain sum may add.  Its
            operands are canonical, so each product ``<= (q-1)^2 < 2^52``
            is exact and reduces to ``|r| <= q//2 + 1``; ``sum_terms`` such
            terms stay within 2^52 for the one reduction after the sum.
            Every ``q < 2^26`` allows at least 2^27 terms.
    """

    q: int
    forward: Tuple[bool, ...]
    reduce_operands: Tuple[bool, bool]
    inverse: Tuple[bool, ...]
    sum_terms: int


def float_schedule(n: int, q: int) -> FloatSchedule:
    """Compute and check the reduction schedule of the float datapath.

    Inputs enter both transforms and the NTT-domain sum canonical
    (``[0, q)``); the scaled output of the inverse and of the pointwise
    product are signed residues.
    Raises ``ValueError`` if ``q`` is outside the float datapath or any
    product of the schedule could reach 2^52.
    """
    if not 2 <= q < FLOAT_MAX_Q:
        raise ValueError(
            f"the float64 datapath serves 2 <= q < 2^26, got q = {q}")
    log_n = stage_plan(n).log_n
    tw = q // 2          # centered twiddle magnitude
    red = q // 2 + 1     # product / reduction output magnitude

    def product(x: int, w: int) -> None:
        if x * w > _FLOAT_CAP:
            raise ValueError(
                f"float datapath product bound {x} * {w} exceeds 2^52 "
                f"for n = {n}, q = {q}")

    forward = []
    bound = q - 1
    for _ in range(log_n):
        reduce = bound * tw > _FLOAT_CAP
        if reduce:
            bound = red
        product(bound, tw)
        forward.append(reduce)
        bound += red

    ops = [bound, bound]
    reduce_operands = [False, False]
    for i in range(2):
        if ops[0] * ops[1] > _FLOAT_CAP:
            ops[i] = red
            reduce_operands[i] = True
    product(ops[0], ops[1])

    inverse = []
    bound = q - 1
    for i in range(log_n):
        product(2 * bound, tw)           # w * (top - bot)
        top = 2 * bound
        # the next stage multiplies a difference of two such values; the
        # last one feeds the n^-1 scale
        nxt = top * tw * (2 if i + 1 < log_n else 1)
        reduce = nxt > _FLOAT_CAP
        inverse.append(reduce)
        bound = red if reduce else top
    product(bound, tw)                   # n^-1 scale
    product(q - 1, q - 1)                # NTT-domain sum: canonical operands
    return FloatSchedule(q=q, forward=tuple(forward),
                         reduce_operands=(reduce_operands[0],
                                          reduce_operands[1]),
                         inverse=tuple(inverse),
                         sum_terms=_FLOAT_CAP // red)


def reduce_float(x: np.ndarray, q: float, scratch: np.ndarray) -> np.ndarray:
    """``x -= rint(x / q) * q`` in place: :func:`modmul_float` with ``w = 1``,
    so ``|x| <= 2^52`` leaves ``|x| <= q//2 + 1``."""
    return modmul_float(x, 1.0, 1.0 / q, q, x, scratch)


def _scratch(batch: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.empty(batch * n // 2), np.empty(batch * n // 2)


def ct_forward_float(values: np.ndarray, zeta: np.ndarray,
                     zeta_over_q: np.ndarray, schedule: FloatSchedule,
                     plan: StagePlan | None = None) -> np.ndarray:
    """Merged Cooley-Tukey forward NTT on a column-major float64 block, in
    place.

    Rows enter in natural order and leave in bit-reversed order.  The
    stage with ``G`` groups (distance ``n / 2G``) reads ``zeta[G:2G]``:
    ``zeta[k] = phi^brv(k)`` gives the negacyclic transform with the phi
    twist folded in, ``zeta[G + g] = w^brv(g)`` the cyclic one.  Butterfly
    sums stay unreduced; ``schedule.forward`` says where to reduce.
    """
    cols, plan = _columns(values, plan)
    n, batch = cols.shape
    if batch == 0:
        return values
    q = float(schedule.q)
    t_buf, k_buf = _scratch(batch, n)
    hook = _STAGE_HOOK
    for stage in reversed(range(plan.log_n)):
        began = perf_counter() if hook is not None else 0.0
        groups, distance = plan.shapes[stage]
        v = cols.reshape(groups, 2, distance, batch)
        top = v[:, 0]
        bot = v[:, 1]
        t = t_buf.reshape(groups, distance, batch)
        k = k_buf.reshape(groups, distance, batch)
        if schedule.forward[plan.log_n - 1 - stage]:
            reduce_float(top, q, k)
            reduce_float(bot, q, k)
        w = zeta[groups:2 * groups].reshape(groups, 1, 1)
        wq = zeta_over_q[groups:2 * groups].reshape(groups, 1, 1)
        modmul_float(bot, w, wq, q, t, k)
        np.subtract(top, t, out=bot)
        np.add(top, t, out=top)
        if hook is not None:
            hook(n, stage, batch, perf_counter() - began)
    return values


def gs_inverse_float(values: np.ndarray, zeta_inv: np.ndarray,
                     zeta_inv_over_q: np.ndarray, schedule: FloatSchedule,
                     plan: StagePlan | None = None) -> np.ndarray:
    """Gentleman-Sande inverse NTT on a column-major float64 block, in
    place, unscaled.

    Rows enter in bit-reversed order and leave in natural order, each
    value ``n`` times the inverse transform.  The stage with ``G`` groups
    reads ``zeta_inv[G:2G]``, the inverses of the forward table.  Tops
    stay unreduced; ``schedule.inverse`` says where to reduce them.
    """
    cols, plan = _columns(values, plan)
    n, batch = cols.shape
    if batch == 0:
        return values
    q = float(schedule.q)
    t_buf, k_buf = _scratch(batch, n)
    hook = _STAGE_HOOK
    for stage, (groups, distance) in enumerate(plan.shapes):
        began = perf_counter() if hook is not None else 0.0
        v = cols.reshape(groups, 2, distance, batch)
        top = v[:, 0]
        bot = v[:, 1]
        t = t_buf.reshape(groups, distance, batch)
        k = k_buf.reshape(groups, distance, batch)
        np.subtract(top, bot, out=t)
        np.add(top, bot, out=top)
        w = zeta_inv[groups:2 * groups].reshape(groups, 1, 1)
        wq = zeta_inv_over_q[groups:2 * groups].reshape(groups, 1, 1)
        modmul_float(t, w, wq, q, bot, k)
        if schedule.inverse[stage]:
            reduce_float(top, q, k)
        if hook is not None:
            hook(n, stage, batch, perf_counter() - began)
    return values
