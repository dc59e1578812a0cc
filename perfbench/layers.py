"""Outside-in timing of the program's layers for the traced benchmark run.

Nothing here edits the program.  :class:`LayerClock` swaps a timing
wrapper onto the public entry point of each layer for the length of a
``with`` block and puts the original back afterwards:

=========  ==============================================================
layer      entry points timed
=========  ==============================================================
ntt        ``NttEngine.forward_many`` / ``inverse_many`` / ``multiply_many``
core       ``CryptoPIM.multiply_batch``; pricing is ``PipelineModel.report``,
           ``.stage_cycles`` and ``.block_latencies`` from any caller
crypto     ``KyberKem.encapsulate_many`` / ``decapsulate_many``
fleet      ``ChipTimeline.dispatch``; ``ChipFleet.lease`` from entry to grant
=========  ==============================================================

The ``serve`` layer is read from the program's own ``repro.obs`` journal
and the kernel stages from its ``KernelProfiler``; :func:`layer_metrics`
joins all of them into the ``per_layer`` metrics of ``BENCHMARK.json``.

Self time: every timed call adds its duration to the innermost timed call
that encloses it, so a call's self time is its duration minus the timed
calls inside it (``core.marshal_ms`` is ``multiply_batch`` minus the
kernel and pricing calls it makes).  A call into a layer that is already
open on the stack (``report`` calling ``stage_cycles``) is not timed
again.  The wrapped entry points never await, so the stack is exact even
with many coroutines in flight; the lease wait is an interval of its own.
"""

from __future__ import annotations

import functools
from contextlib import asynccontextmanager
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.accelerator import CryptoPIM
from repro.core.pipeline import PipelineModel
from repro.crypto.kyber import KyberKem
from repro.ntt.transform import NttEngine
from repro.obs import KernelProfiler
from repro.pim.device import PAPER_DEVICE
from repro.serve import ChipFleet, ChipTimeline


class _Cell:
    __slots__ = ("calls", "rows", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.rows = 0
        self.total_s = 0.0
        self.self_s = 0.0

    def mean_ms(self) -> float:
        return 1e3 * self.total_s / self.calls if self.calls else 0.0


def _rows(args: tuple) -> int:
    return len(args[1])


class LayerClock:
    """Per-layer call counts and inclusive/self wall time."""

    def __init__(self) -> None:
        self.cells: Dict[str, _Cell] = {}
        self.lease_waits_s: List[float] = []
        self._stack: List[List[Any]] = []   # [key, seconds of timed children]
        self._undo: List[tuple] = []
        self.profiler = KernelProfiler()

    def cell(self, key: str) -> _Cell:
        if key not in self.cells:
            self.cells[key] = _Cell()
        return self.cells[key]

    def _timed(self, fn: Callable, key: str,
               rows: Optional[Callable[[tuple], int]]) -> Callable:
        stack = self._stack
        cell = self.cell(key)

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if any(frame[0] == key for frame in stack):
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            began = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - began
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                cell.calls += 1
                cell.total_s += elapsed
                cell.self_s += elapsed - frame[1]
                if rows is not None:
                    cell.rows += rows(args)
        return timed

    def _wrap(self, owner: type, name: str, key: str,
              rows: Optional[Callable[[tuple], int]] = None) -> None:
        original = owner.__dict__[name]
        if isinstance(original, property):
            replacement: Any = property(
                self._timed(original.fget, key, rows))
        else:
            replacement = self._timed(original, key, rows)
        setattr(owner, name, replacement)
        self._undo.append((owner, name, original))

    def _wrap_lease(self) -> None:
        original = ChipFleet.__dict__["lease"]
        waits = self.lease_waits_s

        @asynccontextmanager
        async def lease(fleet: ChipFleet, n: int, route_info: Any = None):
            began = perf_counter()
            async with original(fleet, n, route_info=route_info) as shard:
                waits.append(perf_counter() - began)
                yield shard

        ChipFleet.lease = lease
        self._undo.append((ChipFleet, "lease", original))

    def __enter__(self) -> "LayerClock":
        for name in ("forward_many", "inverse_many", "multiply_many"):
            self._wrap(NttEngine, name, "ntt", rows=_rows)
        self._wrap(CryptoPIM, "multiply_batch", "multiply_batch")
        for name in ("report", "stage_cycles", "block_latencies"):
            self._wrap(PipelineModel, name, "price")
        self._wrap(KyberKem, "encapsulate_many", "kyber_encaps")
        self._wrap(KyberKem, "decapsulate_many", "kyber_decaps")
        self._wrap(ChipTimeline, "dispatch", "dispatch")
        self._wrap_lease()
        self.profiler.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.profiler.uninstall()
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def serve_metrics(journal: Any, since: float) -> Dict[str, float]:
    """Mean and p99 of each ``repro.obs`` request stage, over the traces
    that started at or after loop time ``since``.

    Every trace must still be in the journal, so the service is built
    with a ``trace_capacity`` above the requests it will see.
    """
    if journal.completed > journal.capacity:
        raise RuntimeError(
            f"trace journal kept {journal.capacity} of {journal.completed} "
            "traces; raise trace_capacity so every request is counted")
    durations: Dict[str, List[float]] = {}
    for root in journal.traces():
        if root.start_s < since:
            continue
        for span in root.walk():
            if span is not root:
                durations.setdefault(span.name, []).append(span.duration_s)
    out: Dict[str, float] = {}
    for stage in ("admit", "queue", "window", "lease", "execute"):
        values = durations.get(stage, [0.0])
        out[f"serve.{stage}_ms"] = 1e3 * float(np.mean(values))
        out[f"serve.{stage}_p99_ms"] = 1e3 * float(np.percentile(values, 99))
    return out


def fleet_metrics(service: Any) -> Dict[str, float]:
    """Simulated-chip figures of the fleet (cycles, never wall time)."""
    snap = service.fleet.snapshot()
    return {
        "fleet.sim_utilization": snap["utilization"],
        "fleet.sim_us_per_item": (
            PAPER_DEVICE.cycles_to_us(snap["makespan_cycles"]) / snap["items"]
            if snap["items"] else 0.0),
    }


def layer_metrics(clock: LayerClock, wall_s: float,
                  batches: int) -> Dict[str, float]:
    """The ``ntt``, ``core``, ``crypto`` and ``fleet`` wall-time metrics.

    ``batches`` is the unit of work a layer is charged per: batches the
    service dispatched, or ``multiply_batch`` calls on the library path.
    """
    ntt = clock.cell("ntt")
    batch = clock.cell("multiply_batch")
    price = clock.cell("price")
    crypto = [clock.cell(k) for k in ("kyber_encaps", "kyber_decaps")]
    butterflies = sum(stats["rows"] * n // 2 for (n, _), stats
                      in clock.profiler.stages().items())
    lease = clock.lease_waits_s
    return {
        "ntt.busy_share": ntt.total_s / wall_s,
        "ntt.ms_per_call": ntt.mean_ms(),
        "ntt.ns_per_butterfly": (clock.profiler.total_s / butterflies * 1e9
                                 if butterflies else 0.0),
        "ntt.calls": ntt.calls / batches if batches else 0.0,
        "ntt.rows": ntt.rows / ntt.calls if ntt.calls else 0.0,
        "core.multiply_batch_ms": batch.mean_ms(),
        "core.marshal_ms": (1e3 * batch.self_s / batch.calls
                            if batch.calls else 0.0),
        "core.price_ms_per_batch": (1e3 * price.total_s / batches
                                    if batches else 0.0),
        "core.price_calls_per_batch": (price.calls / batches
                                       if batches else 0.0),
        "core.price_share": price.total_s / wall_s,
        "crypto.kyber_encaps_ms": crypto[0].mean_ms(),
        "crypto.kyber_decaps_ms": crypto[1].mean_ms(),
        "crypto.busy_share": sum(c.total_s for c in crypto) / wall_s,
        "fleet.dispatch_ms": clock.cell("dispatch").mean_ms(),
        "fleet.lease_wait_ms": (1e3 * sum(lease) / len(lease)
                                if lease else 0.0),
    }


def completion_law(n: int, count: int) -> Dict[str, int]:
    """Last completion cycle of one ``count``-product batch at degree ``n``
    as the library path prices it and as a fresh fleet timeline does.

    Reported side by side, any disagreement between the two laws (the
    library path ignores superbank parallelism) becomes a number.
    """
    zeros = np.zeros(n, dtype=np.uint64)
    library = CryptoPIM.for_degree(n).multiply_batch([(zeros, zeros)] * count)
    timeline = ChipTimeline().dispatch(n, count)
    return {"core.sim_batch_cycles": int(library.completion_cycles[-1]),
            "fleet.sim_batch_cycles": int(timeline.end_cycle)}
