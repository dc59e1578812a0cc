"""Exporters: Chrome trace-event / Perfetto JSON and merged snapshots.

The export target is the Trace Event Format's ``"X"`` (complete) events
- the JSON dialect both ``chrome://tracing`` and Perfetto's legacy
importer load directly.  One exported file carries three process lanes:

* **pid 1 - requests**: every retained trace, one thread row per
  request, spans nested by wall time (`ts`/`dur` in microseconds,
  relative to the earliest retained trace);
* **pid 2 - fleet (wall)**: the same shard-execute spans re-keyed by
  chip, so per-chip occupancy and reconfiguration penalties line up as
  lanes (batches executed by the same chip share a thread row);
* **pid 3 - fleet (cycles)**: the cycle view of pid 2 - `ts` is the
  shard's virtual :class:`~repro.core.scheduler.ChipTimeline` clock in
  cycles, so the simulated-hardware schedule is inspectable in the same
  UI (one "microsecond" on this lane is one chip cycle).

``"M"`` metadata events name the processes and threads.  The merged
snapshot (``otherData``) joins :class:`~repro.serve.metrics.MetricsRegistry`
counters with the journal's exact per-stage aggregates, so one file
answers both "what were the totals" and "where did each request's
latency go".
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from .journal import TraceJournal
from .span import Span

__all__ = [
    "trace_events",
    "export_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "PID_REQUESTS",
    "PID_FLEET_WALL",
    "PID_FLEET_CYCLES",
]

PID_REQUESTS = 1
PID_FLEET_WALL = 2
PID_FLEET_CYCLES = 3

#: span names that represent shard execution (mirrored onto fleet lanes)
_EXECUTE_NAMES = ("execute", "reconfigure")


def _meta(pid: int, name: str, tid: Optional[int] = None,
          tname: Optional[str] = None) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = [{
        "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
        "args": {"name": name},
    }]
    if tid is not None:
        events.append({
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": tname or str(tid)},
        })
    return events


def trace_events(traces: Sequence[Span]) -> List[Dict[str, Any]]:
    """Flatten retained traces into Trace Event Format event dicts."""
    events: List[Dict[str, Any]] = []
    events += _meta(PID_REQUESTS, "requests")
    events += _meta(PID_FLEET_WALL, "fleet (wall)")
    events += _meta(PID_FLEET_CYCLES, "fleet (cycles)")
    if not traces:
        return events
    base_s = min(t.start_s for t in traces)
    named_threads = set()
    for root in traces:
        tid = int(root.attrs.get("request_id", root.trace_id))
        if (PID_REQUESTS, tid) not in named_threads:
            named_threads.add((PID_REQUESTS, tid))
            events += _meta(PID_REQUESTS, "requests", tid,
                            f"req {tid}")[1:]
        for span in root.walk():
            if not span.finished:
                continue
            args: Dict[str, Any] = {"trace_id": span.trace_id,
                                    "span_id": span.span_id,
                                    "stage": span.name}
            args.update(span.attrs)
            if span.cycle_start is not None:
                args["cycle_start"] = span.cycle_start
                args["cycle_end"] = span.cycle_end
            events.append({
                "name": span.name, "ph": "X", "pid": PID_REQUESTS,
                "tid": tid,
                "ts": (span.start_s - base_s) * 1e6,
                "dur": span.duration_s * 1e6,
                "args": args,
            })
            if span.name not in _EXECUTE_NAMES:
                continue
            chip = span.attrs.get("chip")
            if chip is None:
                continue
            chip_tid = int(chip)
            for pid in (PID_FLEET_WALL, PID_FLEET_CYCLES):
                if (pid, chip_tid) not in named_threads:
                    named_threads.add((pid, chip_tid))
                    pname = ("fleet (wall)" if pid == PID_FLEET_WALL
                             else "fleet (cycles)")
                    events += _meta(pid, pname, chip_tid,
                                    f"chip {chip_tid}")[1:]
            events.append({
                "name": span.name, "ph": "X", "pid": PID_FLEET_WALL,
                "tid": chip_tid,
                "ts": (span.start_s - base_s) * 1e6,
                "dur": span.duration_s * 1e6,
                "args": dict(args),
            })
            if span.cycle_start is not None and span.cycle_end is not None:
                events.append({
                    "name": span.name, "ph": "X",
                    "pid": PID_FLEET_CYCLES, "tid": chip_tid,
                    "ts": float(span.cycle_start),
                    "dur": float(span.cycle_end - span.cycle_start),
                    "args": dict(args),
                })
    return events


def export_chrome_trace(journal: TraceJournal,
                        metrics: Optional[Any] = None) -> Dict[str, Any]:
    """Build the full exported document (events + merged snapshot)."""
    other: Dict[str, Any] = {"trace": journal.aggregates()}
    if metrics is not None:
        other["metrics"] = metrics.snapshot()
    return {
        "traceEvents": trace_events(journal.traces()),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(path: str, journal: TraceJournal,
                       metrics: Optional[Any] = None) -> Dict[str, Any]:
    """Export and write to ``path``; returns the document."""
    doc = export_chrome_trace(journal, metrics)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Check a document against the trace-event schema we emit.

    Returns a list of problems (empty == valid).  Covers the fields the
    viewers actually require: every event has ``ph``/``pid``/``tid``/
    ``name``; ``X`` events additionally carry numeric non-negative
    ``ts``/``dur``; ``M`` events carry an ``args.name``.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            problems.append(f"{where}: unsupported ph {ph!r}")
            continue
        for field in ("name", "pid", "tid"):
            if field not in ev:
                problems.append(f"{where}: missing {field!r}")
        if ph == "X":
            for field in ("ts", "dur"):
                value = ev.get(field)
                if not isinstance(value, (int, float)):
                    problems.append(f"{where}: {field!r} not numeric")
                elif value < 0:
                    problems.append(f"{where}: {field!r} negative ({value})")
        else:
            args = ev.get("args")
            if not (isinstance(args, dict) and "name" in args):
                problems.append(f"{where}: metadata event without args.name")
    return problems
