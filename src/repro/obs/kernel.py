"""Kernel-level stage profiling via the batch-NTT stage hook.

The serving spans stop at "shard-execute"; below that, the wall time is
the vectorised Gentleman-Sande stage loops in :mod:`repro.ntt.batch`.
Those loops expose a module-level hook (:func:`repro.ntt.batch.
set_stage_hook`) that fires once per butterfly stage with
``(n, stage, batch, seconds)``; :class:`KernelProfiler` aggregates the
stream into per-``(n, stage)`` statistics and renders them in the house
``breakdown()`` style.

The hook is a single ``is not None`` branch per *stage* (about
``log2(n)`` checks per transform), so an uninstalled profiler costs
nothing measurable; install it only for profiling runs:

    with KernelProfiler() as prof:
        engine.forward_many(batch)
    print(prof.breakdown())

A block that :class:`~repro.ntt.transform.NttEngine` splits across host
cores fires the hook once per stage *per row slice*, from several threads
at once.  Cells therefore count slices, not public calls, and their
seconds are summed over threads: per-stage seconds stay a per-core cost
(a butterfly costs the same however many cores share the block), while
the wall time of the call shrinks.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["KernelProfiler"]


class KernelProfiler:
    """Aggregates batch-NTT stage timings; context manager installs it.

    Thread-safe: sliced kernel calls report stages from pool threads, and
    several callers may share one profiler.  Stage seconds are summed over
    threads (see the module docstring).
    """

    def __init__(self) -> None:
        # (n, stage) -> [calls, rows transformed, seconds]
        self._cells: Dict[Tuple[int, int], List[float]] = {}
        self._previous: Optional[Any] = None
        self._installed = False
        self._lock = threading.Lock()

    # -- hook protocol --------------------------------------------------------

    def __call__(self, n: int, stage: int, batch: int,
                 seconds: float) -> None:
        with self._lock:
            cell = self._cells.get((n, stage))
            if cell is None:
                cell = self._cells[(n, stage)] = [0.0, 0.0, 0.0]
            cell[0] += 1
            cell[1] += batch
            cell[2] += seconds

    def install(self) -> "KernelProfiler":
        from ..ntt.batch import set_stage_hook
        if self._installed:
            raise RuntimeError("KernelProfiler already installed")
        self._previous = set_stage_hook(self)
        self._installed = True
        return self

    def uninstall(self) -> None:
        from ..ntt.batch import set_stage_hook
        if self._installed:
            set_stage_hook(self._previous)
            self._previous = None
            self._installed = False

    def __enter__(self) -> "KernelProfiler":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- views ----------------------------------------------------------------

    def _snapshot(self) -> List[Tuple[Tuple[int, int], List[float]]]:
        """Sorted copies of the cells, safe while stages still arrive."""
        with self._lock:
            return sorted((key, list(cell))
                          for key, cell in self._cells.items())

    @property
    def total_s(self) -> float:
        return sum(cell[2] for _, cell in self._snapshot())

    def stages(self, n: Optional[int] = None) -> Dict[Tuple[int, int],
                                                      Dict[str, float]]:
        """Per-(n, stage) stats, optionally filtered to one degree."""
        return {key: {"calls": calls, "rows": rows, "seconds": seconds}
                for key, (calls, rows, seconds) in self._snapshot()
                if n is None or key[0] == n}

    def breakdown(self) -> str:
        """Per-stage wall-time table (house breakdown() style)."""
        cells = self._snapshot()
        total = sum(cell[2] for _, cell in cells)
        lines = [f"kernel stage breakdown ({total * 1e3:.3f} ms total):"]
        if not cells:
            lines.append("  (no stages recorded)")
            return "\n".join(lines)
        for (n, stage), (calls, rows, seconds) in cells:
            share = seconds / total if total else 0.0
            lines.append(
                f"  n={n:<5d} stage {stage:2d}  {seconds * 1e3:9.3f} ms  "
                f"({100 * share:5.1f}%)  {int(calls):5d} calls  "
                f"{int(rows):7d} rows")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        cells = self._snapshot()
        return {
            "total_s": sum(cell[2] for _, cell in cells),
            "stages": [
                {"n": n, "stage": stage, "calls": calls,
                 "rows": rows, "seconds": seconds}
                for (n, stage), (calls, rows, seconds) in cells
            ],
        }
