"""The chip's cycle ledger and the workload scheduler that folds over it.

Section III-D.2's configurability exists so one chip can serve real
protocol workloads: many small multiplications (public-key traffic) or a
few huge ones (homomorphic evaluation).  :class:`ChipTimeline` is the
*analytic* account of what that chip has done: every dispatched batch
advances a virtual cycle clock by the one completion law,
:func:`repro.core.controller.pipelined_completion_cycles`, charging the
:data:`RECONFIGURATION_CYCLES` switch-rewiring penalty whenever
consecutive batches change degree (the softbank/superbank
re-arrangement).  The serving layer keeps one timeline per fleet shard;
:class:`ChipScheduler` folds a mixed job stream over a fresh one and
reports the makespan and utilization - the quantities a deployment study
would need on top of the paper's single-kernel numbers.

Per-item completion cycles fall out of the law: item ``i`` of a
``count``-item batch lands on superbank ``i % S`` in pipeline slot
``i // S`` and streams its ``segs`` 32k segments back to back, so it
completes at ``start + (depth + (i // S + 1) * segs - 1) * stage_cycles``
(``segs`` is 1 up to the native 32k degree).  A batch finishes when its
most-loaded superbank drains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.chip import ChipConfiguration, CryptoPimChip, MAX_NATIVE_DEGREE
from ..pim.device import PAPER_DEVICE
from .controller import completion_offsets
from .pipeline import PipelineModel

__all__ = ["MultiplicationJob", "BatchTiming", "ChipTimeline",
           "ScheduleReport", "ChipScheduler", "chip_completion_cycles"]

#: cycles to rewire softbank/superbank switch state between degree groups
RECONFIGURATION_CYCLES = 1000


def chip_completion_cycles(config: ChipConfiguration, count: int) -> List[int]:
    """Cycles from the first issue at which each of ``count``
    multiplications completes on a chip arranged as ``config``: the one
    completion law with the arrangement's parallel superbanks, each
    product streamed as its 32k segments on the native-degree pipeline."""
    return list(_chip_offsets(config, count))


def _chip_offsets(config: ChipConfiguration, count: int) -> Tuple[int, ...]:
    """:func:`chip_completion_cycles` as the law's memoised tuple."""
    model = PipelineModel.for_degree(min(config.n, MAX_NATIVE_DEGREE))
    return completion_offsets(model, count, config.superbanks,
                              config.segments_per_polynomial)


@dataclass(frozen=True)
class MultiplicationJob:
    """A batch of ``count`` degree-``n`` polynomial multiplications."""

    n: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("job count must be >= 1")


@dataclass(frozen=True)
class BatchTiming:
    """Analytic timing of one dispatched batch."""

    n: int
    count: int
    superbanks: int
    start_cycle: int
    reconfiguration_cycles: int
    completion_cycles: List[int]   # absolute chip cycle per item, in order
    seq: int = 0                   # 1-based dispatch index on its timeline

    @property
    def end_cycle(self) -> int:
        return self.completion_cycles[-1] if self.completion_cycles else self.start_cycle

    @property
    def clock_start(self) -> int:
        """Where the chip clock stood when this batch was charged -
        ``start_cycle`` minus any reconfiguration rewiring paid first."""
        return self.start_cycle - self.reconfiguration_cycles

    @property
    def per_superbank(self) -> int:
        """Items on the most-loaded superbank (its pipeline slots)."""
        return ceil(self.count / self.superbanks)

    @property
    def occupancy(self) -> float:
        """Fraction of the configured superbanks' pipeline slots used."""
        slots = self.superbanks * self.per_superbank
        return self.count / slots if slots else 0.0


@dataclass
class ChipTimeline:
    """Virtual cycle clock of one chip.

    Cycle accounting is exhaustive: every clock tick is exactly one of
    *busy* (compute inside a batch span), *reconfiguration* (switch
    rewiring between degree changes) or *idle* (externally injected gaps,
    e.g. a fleet shard waiting for work), so
    ``busy_cycles + reconfig_cycles + idle_cycles == clock_cycles`` holds
    at all times.
    """

    chip: CryptoPimChip = field(default_factory=CryptoPimChip)
    clock_cycles: int = 0
    configured_n: Optional[int] = None
    reconfigurations: int = 0
    busy_cycles: int = 0
    reconfig_cycles: int = 0
    idle_cycles: int = 0
    batches: int = 0
    items: int = 0

    def dispatch(self, n: int, count: int) -> BatchTiming:
        """Advance the chip clock by one batch of ``count`` degree-``n``
        multiplications and return per-item completion times."""
        if count < 1:
            raise ValueError("a dispatched batch must contain >= 1 item")
        config = self.chip.configure(n)
        reconfig = 0
        if self.configured_n is not None and self.configured_n != n:
            reconfig = RECONFIGURATION_CYCLES
            self.reconfigurations += 1
            self.reconfig_cycles += reconfig
        start = self.clock_cycles + reconfig
        completions = list(map(start.__add__, _chip_offsets(config, count)))
        self.configured_n = n
        self.clock_cycles = completions[-1]
        self.busy_cycles += completions[-1] - start
        self.batches += 1
        self.items += count
        return BatchTiming(
            n=n,
            count=count,
            superbanks=config.superbanks,
            start_cycle=start,
            reconfiguration_cycles=reconfig,
            completion_cycles=completions,
            seq=self.batches,
        )

    def span_estimate(self, n: int) -> int:
        """Cycles of one full degree-``n`` pipeline pass (one item's
        completion) - the natural unit of backlog for fleet routing
        heuristics."""
        return _chip_offsets(self.chip.configure(n), 1)[0]

    def advance_idle(self, cycles: int) -> None:
        """Advance the clock through ``cycles`` of explicit idleness
        (a fleet shard waiting while its siblings work)."""
        if cycles < 0:
            raise ValueError("idle cycles must be >= 0")
        self.clock_cycles += cycles
        self.idle_cycles += cycles

    def snapshot(self) -> dict:
        """Machine-readable state.

        ``utilization`` is **compute over total** (``busy / clock``);
        reconfiguration rewiring is accounted separately as
        ``reconfig_cycles`` so degree-mixed traffic is not silently folded
        into either busy or idle time.  The exported fields satisfy
        ``busy_cycles + reconfig_cycles + idle_cycles == clock_cycles``.
        """
        return {
            "clock_cycles": self.clock_cycles,
            "busy_cycles": self.busy_cycles,
            "reconfig_cycles": self.reconfig_cycles,
            "idle_cycles": self.idle_cycles,
            "utilization": (self.busy_cycles / self.clock_cycles
                            if self.clock_cycles else 0.0),
            "batches": self.batches,
            "items": self.items,
            "reconfigurations": self.reconfigurations,
            "configured_n": self.configured_n,
        }


@dataclass(frozen=True)
class ScheduleReport:
    groups: List[BatchTiming]
    makespan_cycles: int
    makespan_us: float
    total_multiplications: int

    @property
    def aggregate_throughput_per_s(self) -> float:
        return self.total_multiplications / (self.makespan_us * 1e-6)

    def __str__(self) -> str:
        lines = [f"schedule: {len(self.groups)} groups, "
                 f"{self.total_multiplications} multiplications, "
                 f"makespan {self.makespan_us:.1f} us "
                 f"({self.aggregate_throughput_per_s:,.0f} mult/s)"]
        for g in self.groups:
            lines.append(f"  n={g.n:6d} x{g.count:<6d} on {g.superbanks} "
                         f"superbanks ({g.per_superbank}/superbank): "
                         f"cycles {g.start_cycle}..{g.end_cycle}")
        return "\n".join(lines)


class ChipScheduler:
    """Schedules multiplication jobs onto one CryptoPIM chip."""

    def __init__(self, chip: CryptoPimChip | None = None):
        self.chip = chip if chip is not None else CryptoPimChip()

    def schedule(self, jobs: Sequence[MultiplicationJob]) -> ScheduleReport:
        """Greedy degree-grouped schedule: jobs of equal n are merged and
        the groups dispatched on a fresh timeline in ascending degree."""
        if not jobs:
            raise ValueError("nothing to schedule")
        merged: Dict[int, int] = {}
        for job in jobs:
            merged[job.n] = merged.get(job.n, 0) + job.count
        timeline = ChipTimeline(chip=self.chip)
        groups = [timeline.dispatch(n, merged[n]) for n in sorted(merged)]
        return ScheduleReport(
            groups=groups,
            makespan_cycles=timeline.clock_cycles,
            makespan_us=PAPER_DEVICE.cycles_to_us(timeline.clock_cycles),
            total_multiplications=timeline.items,
        )
