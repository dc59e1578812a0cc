"""Bounded trace journal: reservoir retention + complete aggregates.

Overload runs produce unbounded request streams; the journal keeps the
memory cost O(reservoir) while losing nothing statistical:

* **aggregates** are updated for *every* finished trace - per-stage
  wall/cycle totals, counts, and maxima are exact over the full run;
* **retained traces** are a uniform reservoir sample of size
  ``capacity`` (Vitter's algorithm R);
* **slowest traces** are kept separately in a bounded min-heap of size
  ``keep_slowest``, so tail-latency forensics survive sampling - the
  100 fast requests the reservoir keeps are no help when the question
  is about p99.9.

Determinism: sampling uses a seeded :class:`random.Random`, so two runs
with identical request streams retain identical traces.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Dict, List, Optional, Tuple

from .span import Span

__all__ = ["StageStats", "TraceJournal"]


class StageStats:
    """Exact per-stage aggregates over every finished trace."""

    __slots__ = ("count", "wall_s", "wall_max_s", "cycle_total")

    def __init__(self) -> None:
        self.count = 0
        self.wall_s = 0.0
        self.wall_max_s = 0.0
        self.cycle_total = 0

    def observe(self, wall_s: float, cycles: int) -> None:
        self.count += 1
        self.wall_s += wall_s
        # seed the max from the first sample: stage durations are
        # non-negative today, but the stats must not assume it
        self.wall_max_s = wall_s if self.count == 1 else max(
            self.wall_max_s, wall_s)
        self.cycle_total += cycles

    @property
    def wall_mean_s(self) -> float:
        return self.wall_s / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "wall_s": self.wall_s,
            "wall_mean_s": self.wall_mean_s,
            "wall_max_s": self.wall_max_s,
            "cycles": self.cycle_total,
        }


class TraceJournal:
    """Receives finished root spans from a :class:`~repro.obs.span.Tracer`."""

    def __init__(self, capacity: int = 1024, keep_slowest: int = 32,
                 seed: int = 0x0B5):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.keep_slowest = keep_slowest
        self._rng = random.Random(seed)
        self._reservoir: List[Span] = []
        self._seen = 0        # traces offered to the reservoir
        self.completed = 0    # traces recorded (all of them)
        self.dropped = 0      # traces not retained in the reservoir
        self.stages: Dict[str, StageStats] = {}
        self.roots = StageStats()
        # min-heap of (duration, tiebreak, span): root is the fastest
        # of the kept-slowest, evicted first
        self._slowest: List[Tuple[float, int, Span]] = []
        self._tiebreak = itertools.count()

    # -- ingest ---------------------------------------------------------------

    def record(self, root: Span) -> None:
        """Fold a finished trace into the aggregates and maybe retain it."""
        self.completed += 1
        self.roots.observe(root.duration_s, root.cycles)
        for span in root.walk():
            if span is root:
                continue
            stats = self.stages.get(span.name)
            if stats is None:
                stats = self.stages[span.name] = StageStats()
            stats.observe(span.duration_s, span.cycles)
        self._retain_slowest(root)
        self._retain_sample(root)

    def _retain_slowest(self, root: Span) -> None:
        if self.keep_slowest <= 0:
            return
        entry = (root.duration_s, next(self._tiebreak), root)
        if len(self._slowest) < self.keep_slowest:
            heapq.heappush(self._slowest, entry)
        elif entry[0] > self._slowest[0][0]:
            heapq.heapreplace(self._slowest, entry)

    def _retain_sample(self, root: Span) -> None:
        self._seen += 1
        if len(self._reservoir) < self.capacity:
            self._reservoir.append(root)
            return
        slot = self._rng.randrange(self._seen)
        if slot < self.capacity:
            self.dropped += 1  # the evicted occupant
            self._reservoir[slot] = root
        else:
            self.dropped += 1

    # -- views ----------------------------------------------------------------

    def traces(self) -> List[Span]:
        """Reservoir sample plus kept-slowest, deduplicated, by start time."""
        by_id: Dict[int, Span] = {s.trace_id: s for s in self._reservoir}
        for _, _, span in self._slowest:
            by_id.setdefault(span.trace_id, span)
        return sorted(by_id.values(), key=lambda s: (s.start_s, s.trace_id))

    def slowest(self, n: Optional[int] = None) -> List[Span]:
        """The retained slowest traces, slowest first."""
        ordered = [span for _, _, span in
                   sorted(self._slowest, key=lambda e: (-e[0], e[1]))]
        return ordered if n is None else ordered[:n]

    def aggregates(self) -> Dict[str, Any]:
        """JSON-safe summary: exact over the whole run, not the sample."""
        return {
            "completed": self.completed,
            "retained": len(self.traces()),
            "dropped": self.dropped,
            "capacity": self.capacity,
            "root": self.roots.to_dict(),
            "stages": {name: self.stages[name].to_dict()
                       for name in sorted(self.stages)},
        }
