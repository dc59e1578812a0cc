"""Request-scoped spans with dual clocks: wall seconds and chip cycles.

The serving layer's aggregate histograms answer "how slow", never
"where": once a request enters the service there is no record of how its
latency splits between admission, the queue, the batching window, the
fleet lease, and the chip itself.  A :class:`Span` is one named interval
of a request's life, carrying

* **wall time** - ``start_s``/``end_s`` on a monotonic clock (the
  service stamps every boundary with the *same* clock read it hands the
  neighbouring span, so a trace decomposes its end-to-end latency
  exactly - see :func:`decompose`);
* **chip cycles** - optional ``cycle_start``/``cycle_end`` from the
  shard's :class:`~repro.core.scheduler.ChipTimeline` virtual clock,
  so the simulated hardware cost of a stage rides next to its wall
  cost (the paper's claims are cycle-attribution claims; Section IV-B);
* **typed attributes** - small JSON-safe values (kind, chip index,
  batch sequence, routing decision) for exporters to carry along.

Tracing is strictly pay-for-what-you-use: a disabled service holds the
:data:`NULL_TRACER`, whose spans are a single shared no-op object -
opening, annotating and finishing them does no allocation and no clock
reads beyond those the service already performs.

Span lifecycle discipline (enforced statically by rule ``OBS001`` in
:mod:`repro.analyze`): a span opened with :meth:`Tracer.start_span` or
:meth:`Span.child` *without* an explicit ``end_s`` must be closed in a
``finally`` block or used as a context manager, so no code path leaks an
open span.  Spans created with ``end_s=`` are born finished - the house
style for post-hoc instrumentation from shared timestamps.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Segment",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "decompose",
]


class Span:
    """One named interval of a trace, with children and dual clocks."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_s",
                 "end_s", "cycle_start", "cycle_end", "attrs", "children",
                 "_tracer")

    def __init__(self, name: str, trace_id: int = 0, span_id: int = 0,
                 parent_id: Optional[int] = None, start_s: float = 0.0,
                 tracer: Optional["Tracer"] = None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.cycle_start: Optional[int] = None
        self.cycle_end: Optional[int] = None
        self.attrs: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self._tracer = tracer

    # -- state ----------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """False only on the shared null span (tracing disabled)."""
        return True

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    @property
    def cycles(self) -> int:
        """Chip cycles attributed to this span (0 when uncharged)."""
        if self.cycle_start is None or self.cycle_end is None:
            return 0
        return self.cycle_end - self.cycle_start

    # -- construction ---------------------------------------------------------

    def child(self, name: str, start_s: Optional[float] = None,
              end_s: Optional[float] = None,
              cycle_start: Optional[int] = None,
              cycle_end: Optional[int] = None,
              **attrs: Any) -> "Span":
        """Open a child span.

        With ``end_s`` the child is *born finished* - the shape used by
        post-hoc instrumentation that stamps boundaries with shared
        clock reads.  Without it, the caller owns the close: use a
        ``with`` block or ``finally: span.finish()`` (rule OBS001).
        """
        tracer = self._tracer
        assert tracer is not None, "detached span cannot open children"
        span = Span(name, trace_id=self.trace_id, span_id=tracer.next_id(),
                    parent_id=self.span_id,
                    start_s=tracer.clock() if start_s is None else start_s,
                    tracer=tracer)
        span.cycle_start = cycle_start
        span.cycle_end = cycle_end
        if attrs:
            span.attrs.update(attrs)
        if end_s is not None:
            span.end_s = end_s
        self.children.append(span)
        return span

    def set(self, **attrs: Any) -> "Span":
        """Attach typed attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def set_cycles(self, start: int, end: int) -> "Span":
        """Attribute a chip-cycle interval to this span."""
        if end < start:
            raise ValueError(f"cycle interval ends before it starts "
                             f"({start} > {end})")
        self.cycle_start = start
        self.cycle_end = end
        return self

    def finish(self, end_s: Optional[float] = None) -> "Span":
        """Close the span (idempotent: the first close wins).

        Closing a root span (``parent_id is None``) hands the finished
        trace to the tracer's journal.
        """
        if self.end_s is None:
            tracer = self._tracer
            self.end_s = (tracer.clock() if end_s is None and tracer
                          else (end_s if end_s is not None else self.start_s))
            if self.parent_id is None and tracer is not None:
                tracer._complete(self)
        return self

    # -- traversal ------------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": dict(self.attrs),
        }
        if self.cycle_start is not None:
            out["cycle_start"] = self.cycle_start
            out["cycle_end"] = self.cycle_end
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: object) -> None:
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration_s * 1e3:.3f}ms" if self.finished else "open"
        return (f"Span({self.name!r}, trace={self.trace_id}, {state}, "
                f"children={len(self.children)})")


class Tracer:
    """Hands out spans and delivers finished traces to a journal."""

    enabled = True

    def __init__(self, journal: Optional[Any] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.journal = journal
        self.clock = clock
        self._ids = itertools.count(1)

    def next_id(self) -> int:
        return next(self._ids)

    def start_trace(self, name: str, trace_id: Optional[int] = None,
                    start_s: Optional[float] = None,
                    **attrs: Any) -> Span:
        """Open a root span.

        Root spans are *handoff* spans: they travel with the request and
        are finished wherever the request resolves, so OBS001's
        open-without-close rule deliberately does not cover
        ``start_trace`` (it covers ``start_span``/``child``, the scoped
        forms).
        """
        span = Span(name,
                    trace_id=self.next_id() if trace_id is None else trace_id,
                    span_id=self.next_id(), parent_id=None,
                    start_s=self.clock() if start_s is None else start_s,
                    tracer=self)
        if attrs:
            span.attrs.update(attrs)
        return span

    def start_span(self, name: str, start_s: Optional[float] = None,
                   **attrs: Any) -> Span:
        """Open a standalone scoped span (close it in a ``finally`` or use
        it as a context manager - rule OBS001)."""
        return self.start_trace(name, start_s=start_s, **attrs)

    def _complete(self, root: Span) -> None:
        if self.journal is not None:
            self.journal.record(root)


class _NullSpan(Span):
    """The shared do-nothing span handed out when tracing is disabled."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", tracer=None)
        self.end_s = 0.0

    @property
    def enabled(self) -> bool:
        return False

    def child(self, name: str, start_s: Optional[float] = None,
              end_s: Optional[float] = None,
              cycle_start: Optional[int] = None,
              cycle_end: Optional[int] = None,
              **attrs: Any) -> "Span":
        return self

    def set(self, **attrs: Any) -> "Span":
        return self

    def set_cycles(self, start: int, end: int) -> "Span":
        return self

    def finish(self, end_s: Optional[float] = None) -> "Span":
        return self


#: the singleton no-op span; safe to share because every method is a no-op
NULL_SPAN: Span = _NullSpan()


class NullTracer(Tracer):
    """Disabled tracing: every trace is the shared :data:`NULL_SPAN`."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(journal=None)

    def start_trace(self, name: str, trace_id: Optional[int] = None,
                    start_s: Optional[float] = None,
                    **attrs: Any) -> Span:
        return NULL_SPAN

    def start_span(self, name: str, start_s: Optional[float] = None,
                   **attrs: Any) -> Span:
        return NULL_SPAN


#: the singleton disabled tracer (the service default)
NULL_TRACER: Tracer = NullTracer()


class Segment:
    """One slice of a root span's timeline: a child span or a gap."""

    __slots__ = ("label", "start_s", "end_s", "kind")

    def __init__(self, label: str, start_s: float, end_s: float,
                 kind: str = "span"):
        self.label = label
        self.start_s = start_s
        self.end_s = end_s
        self.kind = kind  # "span" | "gap"

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Segment({self.label!r}, {self.kind}, "
                f"{self.duration_s * 1e3:.3f}ms)")


def decompose(root: Span) -> List[Segment]:
    """Split a finished root span into contiguous child/gap segments.

    The segments tile ``[root.start_s, root.end_s]`` exactly: each
    boundary is a shared timestamp, consecutive segments meet at the
    same float, and the sum of child durations plus gaps equals the root
    duration.  Raises :class:`ValueError` if the children overlap or
    escape the root interval - an instrumentation bug, not a load
    condition.
    """
    if not root.finished:
        raise ValueError(f"cannot decompose open span {root.name!r}")
    end_s = root.end_s
    assert end_s is not None
    children = sorted((c for c in root.children if c.finished),
                      key=lambda c: c.start_s)
    segments: List[Segment] = []
    cursor = root.start_s
    for child in children:
        child_end = child.end_s
        assert child_end is not None
        if child.start_s < cursor:
            raise ValueError(
                f"child {child.name!r} starts at {child.start_s} before "
                f"the previous segment ends at {cursor}")
        if child_end > end_s:
            raise ValueError(
                f"child {child.name!r} ends at {child_end} after the "
                f"root ends at {end_s}")
        if child.start_s > cursor:
            segments.append(Segment("(gap)", cursor, child.start_s,
                                    kind="gap"))
        segments.append(Segment(child.name, child.start_s, child_end))
        cursor = child_end
    if cursor < end_s:
        segments.append(Segment("(gap)", cursor, end_s, kind="gap"))
    return segments
