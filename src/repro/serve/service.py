"""The asyncio request service: the simulated deployment's front door.

``CryptoPimService`` accepts typed requests (:mod:`repro.serve.requests`),
runs them through admission control (:mod:`repro.serve.admission`), parks
them in bounded per-parameter-set priority queues, and drains each queue
with an adaptive batch window (:mod:`repro.serve.batcher`).  Closed
batches race for the one simulated chip (:mod:`repro.serve.scheduler`)
and execute through the *batched* kernel entry points grown in PR 1 -
``CryptoPIM.multiply_batch``, ``NttEngine.forward_many``/``inverse_many``,
``KyberKem.encapsulate_many``, ``BgvScheme.multiply_many``,
``BfvScheme.multiply_many`` - so one kernel dispatch serves a whole
window of clients.

Handler table (payload contract per :class:`RequestKind`):

========================  =====================================================
POLYMUL                   ``(a, b)`` - two length-``n`` coefficient arrays
NTT_FORWARD / NTT_INVERSE ``a`` - one length-``n`` coefficient array
KYBER_ENCAPS              ``None`` - encapsulates against the service keypair
KYBER_DECAPS              a :class:`KyberCiphertext` (e.g. from an encaps)
BGV_ADD / BGV_MULTIPLY    ``(x, y)`` - two :class:`BgvCiphertext`
BFV_ADD / BFV_MULTIPLY    ``(x, y)`` - two :class:`BfvCiphertext`
========================  =====================================================

Chip accounting: each request is charged its *multiplication equivalents*
(a Kyber encapsulation is ``k^2 + k`` degree-256 products, a fresh BGV/BFV
tensor is 4 degree-``n`` products, adds are conservatively charged one
slot) and the shared :class:`ChipTimeline` turns those into per-request
completion cycles via the one completion law,
:func:`repro.core.controller.pipelined_completion_cycles` - for the
native degrees served here, ``(depth + slot) * stage_cycles`` with the
chip's parallel superbanks - including reconfiguration penalties when
consecutive batches switch degree.  Degrees above 32k, which the chip
would stream as back-to-back 32k segments, are refused at admission.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..arch.chip import CryptoPimChip, MAX_NATIVE_DEGREE
from ..core.accelerator import CryptoPIM
from ..crypto.bfv import BfvScheme
from ..crypto.bgv import BgvScheme
from ..crypto.kyber import KyberKem
from ..ntt.params import params_for_degree
from ..ntt.transform import NttEngine
from ..obs.export import export_chrome_trace, write_chrome_trace
from ..obs.journal import TraceJournal
from ..obs.span import NULL_SPAN, NULL_TRACER, Span, Tracer
from .admission import AdmissionController, AdmissionPolicy
from .batcher import BatchWindow, collect_batch
from .fleet import ChipFleet, FleetDrained
from .metrics import MetricsRegistry
from .requests import (
    Rejection,
    RejectReason,
    RequestKind,
    ServeRequest,
    ServeResult,
)
from .scheduler import BatchTiming, ChipGate

__all__ = ["ServiceConfig", "CryptoPimService", "KYBER_DEGREE"]

#: Kyber is pinned to the paper's small operating point
KYBER_DEGREE = 256

_KEM_KINDS = (RequestKind.KYBER_ENCAPS, RequestKind.KYBER_DECAPS)
_HE_PAIR_KINDS = (RequestKind.BGV_ADD, RequestKind.BGV_MULTIPLY,
                  RequestKind.BFV_ADD, RequestKind.BFV_MULTIPLY)


@dataclass(frozen=True)
class ServiceConfig:
    """All serving knobs in one place.

    Args:
        batch_capacity: items per batch window; ``None`` uses the chip's
            parallel-superbank count for the queue's degree (the paper's
            natural dispatch width).
        max_batch_wait_s: batching deadline measured from the first
            request of a window; 0 never sleeps (serve what is there).
        queue_depth: bound of each per-parameter-set queue (backpressure).
        tenant_rate / tenant_burst: per-tenant token bucket; ``None``
            disables rate limiting.
        shed_watermark: queue fraction beyond which low-priority traffic
            is shed pre-emptively.
        shed_priority_floor: minimum priority value considered sheddable.
        fidelity: accelerator fidelity for POLYMUL execution.
        seed: deterministic seed for service-held keys and KEM noise.
        num_chips: size of the simulated chip fleet; 1 (the default) is
            PR 2's single shared chip, unchanged.
        routing: fleet routing policy, ``"affinity"`` (degree-affinity +
            power-of-two-choices + spill) or ``"round_robin"``.
        tracing: thread a :mod:`repro.obs` trace through every request
            (admit / queue / window / lease / execute spans with chip
            cycles).  Off by default; disabled tracing costs nothing but
            a few no-op calls per request.
        trace_capacity: reservoir size of retained traces (aggregates
            stay exact regardless).
        trace_sample_rate: fraction of traces offered to the reservoir.
        trace_keep_slowest: slowest traces always retained (tail-latency
            forensics survive sampling).
    """

    batch_capacity: Optional[int] = None
    max_batch_wait_s: float = 2e-3
    queue_depth: int = 128
    tenant_rate: Optional[float] = None
    tenant_burst: Optional[float] = None
    shed_watermark: float = 0.75
    shed_priority_floor: int = 1
    fidelity: str = "fast"
    seed: int = 0x5EED
    num_chips: int = 1
    routing: str = "affinity"
    tracing: bool = False
    trace_capacity: int = 1024
    trace_sample_rate: float = 1.0
    trace_keep_slowest: int = 32

    def admission_policy(self) -> AdmissionPolicy:
        return AdmissionPolicy(
            queue_depth=self.queue_depth,
            tenant_rate=self.tenant_rate,
            tenant_burst=self.tenant_burst,
            shed_watermark=self.shed_watermark,
            shed_priority_floor=self.shed_priority_floor,
        )


@dataclass
class _Pending:
    """A queued request plus its completion plumbing."""

    request: ServeRequest
    enqueued_at: float
    future: "asyncio.Future[Union[ServeResult, Rejection]]"
    trace: Span = NULL_SPAN


@dataclass
class _QueueState:
    """One per-(kind, degree) priority queue and its drain task."""

    key: Tuple[RequestKind, int]
    queue: "asyncio.PriorityQueue"
    window: BatchWindow
    worker: Optional["asyncio.Task"] = field(repr=False, default=None)


class CryptoPimService:
    """Async multi-tenant front door over a fleet of simulated chips.

    ``num_chips=1`` (the default) behaves exactly like PR 2's single
    shared chip; larger fleets shard batch windows across shards via
    :class:`~repro.serve.fleet.ChipFleet`.
    """

    def __init__(self, config: ServiceConfig = ServiceConfig(),
                 chip: Optional[CryptoPimChip] = None):
        self.config = config
        self.metrics = MetricsRegistry()
        if config.tracing:
            self.journal: Optional[TraceJournal] = TraceJournal(
                capacity=config.trace_capacity,
                sample_rate=config.trace_sample_rate,
                keep_slowest=config.trace_keep_slowest,
                seed=config.seed)
            self.tracer: Tracer = Tracer(journal=self.journal)
        else:
            self.journal = None
            self.tracer = NULL_TRACER
        self.fleet = ChipFleet(num_chips=config.num_chips, chip=chip,
                               policy=config.routing, seed=config.seed)
        self._admission = AdmissionController(config.admission_policy())
        self._queues: Dict[Tuple[RequestKind, int], _QueueState] = {}
        self._running = True
        self._rng = np.random.default_rng(config.seed)
        # lazily-built execution contexts, keyed by degree
        self._accelerators: Dict[int, CryptoPIM] = {}
        self._kyber: Optional[Tuple[KyberKem, Any, Any]] = None  # (kem, pk, sk)
        self._bgv: Dict[int, Tuple[BgvScheme, Any]] = {}   # (scheme, sk)
        self._bfv: Dict[int, Tuple[BfvScheme, Any]] = {}

    @property
    def gate(self) -> ChipGate:
        """Shard 0's gate - the single-chip compatibility handle (with
        ``num_chips=1`` this is *the* chip, exactly as in PR 2)."""
        return self.fleet.gate

    # -- execution contexts (also used by the load generator) ---------------

    def accelerator(self, n: int) -> CryptoPIM:
        if n not in self._accelerators:
            self._accelerators[n] = CryptoPIM.for_degree(
                n, fidelity=self.config.fidelity)
        return self._accelerators[n]

    def engine(self, n: int) -> NttEngine:
        return NttEngine.shared(params_for_degree(n))

    def kyber(self) -> Tuple[KyberKem, Any, Any]:
        """The service KEM context ``(kem, pk, sk)`` (paper n=256 ring)."""
        if self._kyber is None:
            kem = KyberKem(rng=np.random.default_rng(self._rng.integers(2**63)))
            pk, sk = kem.keygen()
            self._kyber = (kem, pk, sk)
        return self._kyber

    def bgv(self, n: int) -> Tuple[BgvScheme, Any]:
        """Service-held BGV context ``(scheme, sk)`` for degree ``n``."""
        if n not in self._bgv:
            scheme = BgvScheme(
                n=n, rng=np.random.default_rng(self._rng.integers(2**63)))
            self._bgv[n] = (scheme, scheme.keygen())
        return self._bgv[n]

    def bfv(self, n: int) -> Tuple[BfvScheme, Any]:
        if n not in self._bfv:
            scheme = BfvScheme(
                n=n, rng=np.random.default_rng(self._rng.integers(2**63)))
            self._bfv[n] = (scheme, scheme.keygen())
        return self._bfv[n]

    # -- admission -----------------------------------------------------------

    def _validate(self, request: ServeRequest) -> Optional[Rejection]:
        def refuse(reason: RejectReason, detail: str) -> Rejection:
            return Rejection(request_id=request.request_id,
                             kind=request.kind, n=request.n,
                             reason=reason, detail=detail)

        if not self._running:
            return refuse(RejectReason.SHUTDOWN, "service is draining")
        if not isinstance(request.kind, RequestKind):
            return refuse(RejectReason.UNSUPPORTED,
                          f"unknown kind {request.kind!r}")
        n = request.n
        if request.kind in _KEM_KINDS and n != KYBER_DEGREE:
            return refuse(RejectReason.UNSUPPORTED,
                          f"Kyber serves n={KYBER_DEGREE} only")
        if n < 4 or n & (n - 1) or n > MAX_NATIVE_DEGREE:
            return refuse(
                RejectReason.UNSUPPORTED,
                f"degree must be a power of two in [4, {MAX_NATIVE_DEGREE}]")
        payload = request.payload
        if request.kind is RequestKind.POLYMUL:
            try:
                a, b = payload
                if len(a) != n or len(b) != n:
                    raise ValueError
            except (TypeError, ValueError):
                return refuse(RejectReason.INVALID,
                              f"POLYMUL payload must be two length-{n} vectors")
        elif request.kind in (RequestKind.NTT_FORWARD, RequestKind.NTT_INVERSE):
            try:
                if len(payload) != n:
                    raise ValueError
            except (TypeError, ValueError):
                return refuse(RejectReason.INVALID,
                              f"NTT payload must be one length-{n} vector")
        elif request.kind in _HE_PAIR_KINDS:
            try:
                x, y = payload
                if not (hasattr(x, "parts") and hasattr(y, "parts")):
                    raise TypeError
            except (TypeError, ValueError):
                return refuse(RejectReason.INVALID,
                              "eval payload must be a ciphertext pair")
        elif request.kind is RequestKind.KYBER_DECAPS:
            if not hasattr(payload, "u"):
                return refuse(RejectReason.INVALID,
                              "decaps payload must be a Kyber ciphertext")
        return None

    # -- queue plumbing -------------------------------------------------------

    def _queue_state(self, request: ServeRequest) -> _QueueState:
        key = (request.kind, request.n)
        state = self._queues.get(key)
        if state is None:
            capacity = (self.config.batch_capacity
                        or self.fleet.capacity_for(request.n))
            state = _QueueState(
                key=key,
                queue=asyncio.PriorityQueue(),
                window=BatchWindow(capacity=capacity,
                                   max_wait_s=self.config.max_batch_wait_s),
            )
            state.worker = asyncio.get_running_loop().create_task(
                self._drain(state), name=f"serve-{key[0].value}-{key[1]}")
            self._queues[key] = state
        return state

    def _depth_gauge(self, state: _QueueState) -> None:
        key = f"queue_depth.{state.key[0].value}.{state.key[1]}"
        self.metrics.gauge(key).set(state.queue.qsize())
        self.metrics.gauge("backlog_total").set(
            sum(s.queue.qsize() for s in self._queues.values()))

    async def submit(self,
                     request: ServeRequest) -> Union[ServeResult, Rejection]:
        """Serve one request; resolves to a ServeResult or a Rejection."""
        self.metrics.counter("requests_submitted").inc()
        self.metrics.counter(f"requests.{request.kind.value}").inc()
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        # NULL_SPAN when tracing is off: every span call below no-ops
        trace = self.tracer.start_trace(
            "request", start_s=t0, request_id=request.request_id,
            kind=request.kind.value, n=request.n, tenant=request.tenant,
            priority=request.priority)
        admit_span = trace.child("admit", start_s=t0)
        try:
            rejection = self._validate(request)
            if rejection is None:
                state = self._queue_state(request)
                rejection = self._admission.admit(
                    request, state.queue.qsize(), span=admit_span)
        finally:
            # the admit span's close is the queue span's open: one shared
            # stamp, so the trace decomposes the latency exactly
            enqueued_at = loop.time()
            admit_span.finish(end_s=enqueued_at)
        if rejection is None:
            pending = _Pending(request=request, enqueued_at=enqueued_at,
                               future=loop.create_future(), trace=trace)
            # priority first, then arrival order within a priority class
            state.queue.put_nowait(
                (request.priority, request.request_id, pending))
            self._depth_gauge(state)
            return await pending.future
        self.metrics.counter("requests_rejected").inc()
        self.metrics.counter(f"rejected.{rejection.reason.value}").inc()
        trace.set(rejected=rejection.reason.value).finish(end_s=loop.time())
        return rejection

    # -- the drain loop -------------------------------------------------------

    async def _drain(self, state: _QueueState) -> None:
        kind, n = state.key
        loop = asyncio.get_running_loop()
        tracing = self.tracer.enabled
        while True:
            entries: List[Tuple[int, int, _Pending]] = []
            dequeued_at: Optional[List[float]] = [] if tracing else None
            try:
                await collect_batch(state.queue, state.window, out=entries,
                                    dequeued_at=dequeued_at)
            except asyncio.CancelledError:
                # shutdown mid-window: fail over whatever was already
                # dequeued instead of dropping it silently
                for _, _, pending in entries:
                    if not pending.future.done():
                        pending.future.set_result(Rejection(
                            request_id=pending.request.request_id,
                            kind=kind, n=n,
                            reason=RejectReason.SHUTDOWN,
                            detail="service stopped mid-window"))
                    pending.trace.set(
                        rejected=RejectReason.SHUTDOWN.value).finish()
                raise
            self._depth_gauge(state)
            pendings = [entry[2] for entry in entries]
            close_time = loop.time()
            route_info: Optional[Dict[str, Any]] = {} if tracing else None
            try:
                try:
                    async with self.fleet.lease(
                            n, route_info=route_info) as shard:
                        mults = self._mult_equivalents(kind, pendings)
                        timing = shard.gate.timeline.dispatch(n, sum(mults))
                        exec_start = loop.time()
                        started = time.perf_counter()
                        try:
                            values = self._execute(kind, n, pendings)
                        except Exception as error:  # bad payload that passed
                            self._fail_batch(pendings, kind, n, error)
                            continue
                        service_s = time.perf_counter() - started
                        exec_end = loop.time()
                        chip_index = shard.index
                except FleetDrained:
                    # every chip is administratively drained: fail the
                    # window over with typed rejections, don't drop it
                    self._fail_batch(pendings, kind, n,
                                     reason=RejectReason.SHUTDOWN,
                                     detail="every fleet chip is drained")
                    continue
            except asyncio.CancelledError:
                # shutdown while waiting on (or holding) the chip lease:
                # the window already left the queue, so stop() will never
                # see it - fail the dequeued futures over like the
                # collect_batch handler above instead of abandoning them
                self._fail_batch(pendings, kind, n,
                                 reason=RejectReason.SHUTDOWN,
                                 detail="service stopped mid-dispatch")
                raise
            done_time = loop.time()
            self.metrics.counter("batches_dispatched").inc()
            self.metrics.counter(f"fleet.dispatched.chip{chip_index}").inc()
            self.metrics.histogram("batch.size", unit="items").record(
                len(pendings))
            self.metrics.histogram("batch.occupancy", unit="frac").record(
                len(pendings) / state.window.capacity)
            # a member completes with the last of its own multiplications
            ends = itertools.accumulate(mults)
            for i, (pending, value, end) in enumerate(
                    zip(pendings, values, ends)):
                cycle_idx = end - 1
                result = ServeResult(
                    request_id=pending.request.request_id,
                    kind=kind,
                    n=n,
                    value=value,
                    queue_wait_s=close_time - pending.enqueued_at,
                    service_s=service_s,
                    total_s=done_time - pending.enqueued_at,
                    batch_size=len(pendings),
                    completion_cycle=timing.completion_cycles[cycle_idx],
                    completion_us=timing.completion_us[cycle_idx],
                    chip=chip_index,
                )
                self._record_latency(result)
                if tracing and pending.trace.enabled:
                    self._trace_member(
                        pending, i,
                        dequeued_at if dequeued_at is not None else [],
                        close_time, exec_start, exec_end, done_time,
                        timing, chip_index, route_info)
                if not pending.future.done():
                    pending.future.set_result(result)

    def _trace_member(self, pending: _Pending, index: int,
                      dequeued_at: List[float], close_time: float,
                      exec_start: float, exec_end: float, done_time: float,
                      timing: BatchTiming, chip: int,
                      route_info: Optional[Dict[str, Any]]) -> None:
        """Attach the batch's stage spans to one member's trace.

        Every child is born finished from the *shared* stamps the drain
        loop took once per batch, so consecutive spans meet at identical
        floats and the root decomposes exactly: admit | queue | window |
        lease | execute | (result fan-out gap).  The execute span carries
        the chip-cycle interval the timeline charged for the whole batch
        (reconfiguration rewiring as a zero-wall-length child).
        """
        trace = pending.trace
        dequeued = (dequeued_at[index] if index < len(dequeued_at)
                    else close_time)
        trace.child("queue", start_s=pending.enqueued_at, end_s=dequeued)
        trace.child("window", start_s=dequeued, end_s=close_time,
                    batch_size=timing.count)
        lease = trace.child("lease", start_s=close_time, end_s=exec_start)
        if route_info:
            lease.set(**route_info)
        execute = trace.child(
            "execute", start_s=exec_start, end_s=exec_end,
            cycle_start=timing.clock_start, cycle_end=timing.end_cycle,
            chip=chip, batch_seq=timing.seq, batch_size=timing.count,
            n=timing.n, superbanks=timing.superbanks)
        if timing.reconfiguration_cycles:
            execute.child(
                "reconfigure", start_s=exec_start, end_s=exec_start,
                cycle_start=timing.clock_start, cycle_end=timing.start_cycle,
                chip=chip, batch_seq=timing.seq)
        trace.finish(end_s=done_time)

    def _record_latency(self, result: ServeResult) -> None:
        self.metrics.counter("requests_completed").inc()
        self.metrics.histogram("latency.e2e").record(result.total_s)
        self.metrics.histogram("latency.queue_wait").record(result.queue_wait_s)
        self.metrics.histogram("latency.service").record(result.service_s)
        self.metrics.histogram(
            f"latency.e2e.{result.kind.value}").record(result.total_s)

    def _fail_batch(self, pendings: List[_Pending], kind: RequestKind,
                    n: int, error: Optional[Exception] = None,
                    reason: RejectReason = RejectReason.INVALID,
                    detail: Optional[str] = None) -> None:
        detail = repr(error) if detail is None else detail
        self.metrics.counter("requests_rejected").inc(len(pendings))
        self.metrics.counter(
            f"rejected.{reason.value}").inc(len(pendings))
        for pending in pendings:
            if not pending.future.done():
                pending.future.set_result(Rejection(
                    request_id=pending.request.request_id, kind=kind, n=n,
                    reason=reason, detail=detail))
            pending.trace.set(rejected=reason.value).finish()

    # -- handlers -------------------------------------------------------------

    def _mult_equivalents(self, kind: RequestKind,
                          pendings: List[_Pending]) -> List[int]:
        """Chip multiplications charged to each request of this batch, in
        batch order."""
        if kind in (RequestKind.KYBER_ENCAPS,):
            kem, _, _ = self.kyber()
            each = kem.pke.multiplications_per_encrypt()
        elif kind is RequestKind.KYBER_DECAPS:
            kem, _, _ = self.kyber()
            each = kem.pke.k
        elif kind in (RequestKind.BGV_MULTIPLY, RequestKind.BFV_MULTIPLY):
            # a tensor product costs one multiplication per pair of parts,
            # and members of one window may carry different part counts
            return [len(x.parts) * len(y.parts)
                    for x, y in (p.request.payload for p in pendings)]
        else:
            # POLYMUL and each NTT direction occupy one pipeline pass; adds
            # are vector ops an order cheaper but still charged one slot
            each = 1
        return [each] * len(pendings)

    def _execute(self, kind: RequestKind, n: int,
                 pendings: List[_Pending]) -> List[Any]:
        payloads = [p.request.payload for p in pendings]
        if kind is RequestKind.POLYMUL:
            return self.accelerator(n).multiply_batch(payloads).results
        if kind is RequestKind.NTT_FORWARD:
            block = np.stack([np.asarray(p, dtype=np.uint64)
                              for p in payloads])
            return list(self.engine(n).forward_many(block))
        if kind is RequestKind.NTT_INVERSE:
            block = np.stack([np.asarray(p, dtype=np.uint64)
                              for p in payloads])
            return list(self.engine(n).inverse_many(block))
        if kind is RequestKind.KYBER_ENCAPS:
            kem, pk, _ = self.kyber()
            return kem.encapsulate_many(pk, len(pendings))
        if kind is RequestKind.KYBER_DECAPS:
            kem, _, sk = self.kyber()
            return kem.decapsulate_many(sk, payloads)
        if kind is RequestKind.BGV_ADD:
            scheme, _ = self.bgv(n)
            return [scheme.add(x, y) for x, y in payloads]
        if kind is RequestKind.BGV_MULTIPLY:
            scheme, _ = self.bgv(n)
            return scheme.multiply_many(payloads)
        if kind is RequestKind.BFV_ADD:
            scheme, _ = self.bfv(n)
            return [scheme.add(x, y) for x, y in payloads]
        if kind is RequestKind.BFV_MULTIPLY:
            scheme, _ = self.bfv(n)
            return scheme.multiply_many(payloads)
        raise AssertionError(f"unhandled kind {kind}")  # pragma: no cover

    # -- lifecycle ------------------------------------------------------------

    async def drain(self) -> None:
        """Wait until every queue is empty and all in-flight work is done."""
        while any(s.queue.qsize() for s in self._queues.values()):
            await asyncio.sleep(0.001)
        await self.fleet.quiesce()  # the last batch has released its chip

    async def stop(self) -> None:
        """Refuse new work, cancel drain loops, reject queued requests."""
        self._running = False
        for state in self._queues.values():
            if state.worker is not None:
                state.worker.cancel()
        for state in self._queues.values():
            if state.worker is not None:
                try:
                    await state.worker
                except asyncio.CancelledError:
                    pass
            while True:
                try:
                    _, _, pending = state.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if not pending.future.done():
                    pending.future.set_result(Rejection(
                        request_id=pending.request.request_id,
                        kind=pending.request.kind, n=pending.request.n,
                        reason=RejectReason.SHUTDOWN,
                        detail="service stopped"))
                pending.trace.set(
                    rejected=RejectReason.SHUTDOWN.value).finish()

    async def __aenter__(self) -> "CryptoPimService":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # -- reporting ------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Machine-readable service state: metrics + chip/fleet timelines.

        ``chip`` remains shard 0's timeline for single-chip compatibility;
        ``fleet`` carries the aggregated multi-chip view; ``trace`` joins
        in the journal's exact per-stage aggregates when tracing is on.
        """
        summary: Dict[str, Any] = {
            "metrics": self.metrics.snapshot(),
            "chip": self.gate.timeline.snapshot(),
            "fleet": self.fleet.snapshot(),
            "queues": {
                f"{kind.value}.{n}": state.queue.qsize()
                for (kind, n), state in self._queues.items()
            },
        }
        if self.journal is not None:
            summary["trace"] = self.journal.aggregates()
        return summary

    def trace_document(self) -> Dict[str, Any]:
        """The Chrome trace-event / Perfetto export of the current journal
        (retained traces + the merged metrics/trace-aggregate snapshot)."""
        if self.journal is None:
            raise RuntimeError(
                "tracing is disabled; construct the service with "
                "ServiceConfig(tracing=True)")
        return export_chrome_trace(self.journal, self.metrics)

    def write_trace(self, path: str) -> Dict[str, Any]:
        """Write the trace-event export to ``path``; returns the document.
        Open it in Perfetto (ui.perfetto.dev) or ``chrome://tracing``."""
        if self.journal is None:
            raise RuntimeError(
                "tracing is disabled; construct the service with "
                "ServiceConfig(tracing=True)")
        return write_chrome_trace(path, self.journal, self.metrics)

    def render_summary(self) -> str:
        lines = [self.metrics.breakdown()]
        if self.fleet.num_chips > 1:
            lines.append(self.fleet.render())
        else:
            chip = self.gate.timeline.snapshot()
            lines += [
                "chip timeline:",
                f"    clock {chip['clock_cycles']} cycles, "
                f"busy {chip['busy_cycles']} "
                f"(utilization {chip['utilization']:.1%})",
                f"    {chip['batches']} batches / {chip['items']} "
                f"mult-equivalents, {chip['reconfigurations']} "
                f"reconfigurations",
            ]
        return "\n".join(lines)
