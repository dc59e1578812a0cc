"""Sharing one simulated chip across parameter sets.

The service may hold open queues for several degrees (Kyber's n=256
public-key traffic next to n=2048 homomorphic eval), but there is exactly
one chip.  :class:`ChipGate` serialises batch execution behind an asyncio
lock - the software analogue of the single physical bank array - and
:class:`ChipTimeline` keeps the *analytic* account of what that chip has
done: every dispatched batch advances a virtual cycle clock by the one
completion law, :func:`repro.core.controller.pipelined_completion_cycles`,
charging the :data:`~repro.core.scheduler.RECONFIGURATION_CYCLES`
switch-rewiring penalty whenever consecutive batches change degree
(Section III-D.2's softbank/superbank re-arrangement).

Per-request simulated completion cycles fall out of that law: request
``i`` of a ``count``-item batch lands on superbank ``i % S`` in pipeline
slot ``i // S`` and streams its ``segs`` 32k segments back to back, so it
completes at ``start + (depth + (i // S + 1) * segs - 1) * stage_cycles``
(``segs`` is 1 for the native degrees the service accepts).
:class:`~repro.core.scheduler.ChipScheduler` reads the same law.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from math import ceil
from typing import List, Optional

from ..arch.chip import CryptoPimChip
from ..core.scheduler import RECONFIGURATION_CYCLES, chip_completion_cycles
from ..pim.device import PAPER_DEVICE

__all__ = ["BatchTiming", "ChipTimeline", "ChipGate"]


@dataclass(frozen=True)
class BatchTiming:
    """Analytic timing of one dispatched batch."""

    n: int
    count: int
    superbanks: int
    start_cycle: int
    reconfiguration_cycles: int
    completion_cycles: List[int]   # absolute chip cycle per item, in order
    completion_us: List[float]
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
    def charged_cycles(self) -> int:
        """Every cycle this batch advanced the clock (busy + reconfig);
        the exact amount a shard-execute trace span must account for."""
        return self.end_cycle - self.clock_start

    @property
    def occupancy(self) -> float:
        """Fraction of the configured superbanks' pipeline slots used."""
        slots = self.superbanks * ceil(self.count / self.superbanks)
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
        completions = [start + c for c in chip_completion_cycles(config, count)]
        self.configured_n = n
        self.clock_cycles = completions[-1]
        self.busy_cycles += completions[-1] - start
        self.batches += 1
        self.items += count
        return BatchTiming(
            n=n,
            count=count,
            superbanks=config.parallel_multiplications,
            start_cycle=start,
            reconfiguration_cycles=reconfig,
            completion_cycles=completions,
            completion_us=[PAPER_DEVICE.cycles_to_us(c) for c in completions],
            seq=self.batches,
        )

    def span_estimate(self, n: int) -> int:
        """Cycles of one full degree-``n`` pipeline pass (one item's
        completion) - the natural unit of backlog for fleet routing
        heuristics."""
        return chip_completion_cycles(self.chip.configure(n), 1)[0]

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


class ChipGate:
    """Async mutual exclusion over the shared chip plus its timeline.

    Queue workers race for the gate; holding it means "my batch occupies
    the bank array now".  Execution order is the lock's FIFO order, which
    keeps the reconfiguration accounting faithful: a degree change between
    consecutive holders costs switch-rewiring cycles on the timeline.
    """

    def __init__(self, chip: Optional[CryptoPimChip] = None):
        self.timeline = ChipTimeline(chip=chip or CryptoPimChip())
        self._lock = asyncio.Lock()

    async def __aenter__(self) -> "ChipGate":
        await self._lock.acquire()
        return self

    async def __aexit__(self, *exc: object) -> None:
        self._lock.release()

    def capacity_for(self, n: int) -> int:
        """Parallel-superbank capacity - the default batch window size."""
        return self.timeline.chip.configure(n).parallel_multiplications
