"""Chip-level workload scheduler.

Section III-D.2's configurability exists so one chip can serve real
protocol workloads: many small multiplications (public-key traffic) or a
few huge ones (homomorphic evaluation).  This module schedules a mixed
stream of multiplication jobs onto the chip's superbanks and reports the
makespan, pipeline-fill overheads and utilization - the quantities a
deployment study would need on top of the paper's single-kernel numbers.

Model: jobs of the same degree share one chip configuration; the chip is
reconfigured between degree groups (a fixed reconfiguration penalty, since
softbank/superbank wiring is switch state).  Within a group, each
superbank streams its share through its pipeline; a group finishes when
its most-loaded superbank drains.  Degrees above 32k stream each product
as its 32k segments back to back.  Group durations come from the one
completion law, :func:`repro.core.controller.pipelined_completion_cycles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, List, Sequence

from ..arch.chip import ChipConfiguration, CryptoPimChip, MAX_NATIVE_DEGREE
from ..pim.device import PAPER_DEVICE
from .controller import pipelined_completion_cycles
from .pipeline import PipelineModel

__all__ = ["MultiplicationJob", "GroupSchedule", "ScheduleReport",
           "ChipScheduler", "chip_completion_cycles"]

#: cycles to rewire softbank/superbank switch state between degree groups
RECONFIGURATION_CYCLES = 1000


def chip_completion_cycles(config: ChipConfiguration, count: int) -> List[int]:
    """Cycles from the first issue at which each of ``count``
    multiplications completes on a chip arranged as ``config``: the one
    completion law with the arrangement's parallel superbanks, each
    product streamed as its 32k segments on the native-degree pipeline."""
    model = PipelineModel.for_degree(min(config.n, MAX_NATIVE_DEGREE))
    return pipelined_completion_cycles(
        model, count, config.parallel_multiplications,
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
class GroupSchedule:
    """Timing of one same-degree group."""

    n: int
    count: int
    superbanks: int
    per_superbank: int
    start_cycle: int
    duration_cycles: int

    @property
    def end_cycle(self) -> int:
        return self.start_cycle + self.duration_cycles


@dataclass(frozen=True)
class ScheduleReport:
    groups: List[GroupSchedule]
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

    def _group(self, n: int, count: int, start_cycle: int) -> GroupSchedule:
        config = self.chip.configure(n)
        superbanks = config.parallel_multiplications
        return GroupSchedule(
            n=n,
            count=count,
            superbanks=superbanks,
            per_superbank=ceil(count / superbanks),
            start_cycle=start_cycle,
            duration_cycles=chip_completion_cycles(config, count)[-1],
        )

    def group_duration_cycles(self, n: int, count: int) -> int:
        """Pipeline fill + steady-state drain for ``count`` multiplications
        spread over the configured superbanks."""
        return self._group(n, count, 0).duration_cycles

    def schedule(self, jobs: Sequence[MultiplicationJob]) -> ScheduleReport:
        """Greedy degree-grouped schedule (jobs of equal n are merged)."""
        if not jobs:
            raise ValueError("nothing to schedule")
        merged: Dict[int, int] = {}
        for job in jobs:
            merged[job.n] = merged.get(job.n, 0) + job.count
        groups: List[GroupSchedule] = []
        clock = 0
        for n in sorted(merged):
            if groups:  # reconfiguration between degree groups
                clock += RECONFIGURATION_CYCLES
            groups.append(self._group(n, merged[n], clock))
            clock = groups[-1].end_cycle
        return ScheduleReport(
            groups=groups,
            makespan_cycles=clock,
            makespan_us=PAPER_DEVICE.cycles_to_us(clock),
            total_multiplications=sum(merged.values()),
        )
