"""The asyncio request service: the simulated deployment's front door.

``CryptoPimService`` accepts typed requests (:mod:`repro.serve.requests`),
runs them through admission control (:mod:`repro.serve.admission`), parks
them in bounded per-parameter-set priority queues, and drains each queue
with an adaptive batch window (:mod:`repro.serve.batcher`).  Closed
batches lease a chip of the simulated fleet (:mod:`repro.serve.fleet`)
and execute through the *batched* kernel entry points -
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
slot) and the leased shard's
:class:`~repro.core.scheduler.ChipTimeline` turns those into per-request
completion cycles via the one completion law,
:func:`repro.core.controller.pipelined_completion_cycles` - for the
native degrees served here, ``(depth + slot) * stage_cycles`` with the
chip's parallel superbanks - including reconfiguration penalties when
consecutive batches switch degree.  Degrees above 32k, which the chip
would stream as back-to-back 32k segments, are refused at admission.

Submit pays per key: the first request of a ``(kind, n)`` key that
passes the key and payload checks builds the key's record (queue, drain
task, submit counters, payload check, depth gauges), and every later
request of that key, traced or not, skips the key check and every
handle lookup.  Tracing only adds the request's spans.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..arch.chip import CryptoPimChip, MAX_NATIVE_DEGREE
from ..core.accelerator import CryptoPIM
from ..core.scheduler import BatchTiming
from ..crypto.bfv import BfvScheme
from ..crypto.bgv import BgvScheme
from ..crypto.kyber import KyberCiphertext, KyberKem
from ..ntt.params import params_for_degree
from ..ntt.polynomial import Polynomial
from ..ntt.transform import NttEngine
from ..obs.export import export_chrome_trace, write_chrome_trace
from ..obs.journal import TraceJournal
from ..obs.span import NULL_SPAN, NULL_TRACER, Span, Tracer
from .admission import AdmissionController, AdmissionPolicy
from .batcher import BatchWindow, collect_batch
from .fleet import ChipFleet, FleetDrained
from .metrics import Counter, Gauge, MetricsRegistry
from .requests import (
    Rejection,
    RejectReason,
    RequestKind,
    ServeRequest,
    ServeResult,
)

__all__ = ["ServiceConfig", "CryptoPimService", "KYBER_DEGREE",
           "KYBER_RANK"]

#: Kyber is pinned to the paper's small operating point
KYBER_DEGREE = 256
#: the module rank of the service's Kyber key (Kyber512): every decaps
#: ciphertext must carry this many ``u`` polynomials
KYBER_RANK = 2

_KEM_KINDS = (RequestKind.KYBER_ENCAPS, RequestKind.KYBER_DECAPS)
_HE_PAIR_KINDS = (RequestKind.BGV_ADD, RequestKind.BGV_MULTIPLY,
                  RequestKind.BFV_ADD, RequestKind.BFV_MULTIPLY)


def _coefficients(values: Any, n: int) -> np.ndarray:
    """``values`` as a length-``n`` uint64 vector (no copy if it already
    is one).  Only integer input is taken: floats, strings and negative
    values raise ``TypeError`` or ``ValueError`` instead of being cast."""
    vector = np.asarray(values)
    if vector.dtype.kind not in "ui":
        raise TypeError(f"expected integer coefficients, got {vector.dtype}")
    if vector.shape != (n,):
        raise ValueError(f"expected shape ({n},), got {vector.shape}")
    if vector.dtype.kind == "i" and (vector < 0).any():
        raise ValueError("coefficients must be non-negative")
    return vector.astype(np.uint64, copy=False)


def _ring_elements(parts: Any, n: int, q: int) -> bool:
    """Whether ``parts`` is a non-empty list or tuple of ring elements of
    ``Z_q[x]/(x^n + 1)``."""
    return (isinstance(parts, (list, tuple)) and len(parts) > 0
            and all(isinstance(p, Polynomial) and p.n == n and p.q == q
                    for p in parts))


def _unsupported(kind: Any, n: Any) -> Optional[str]:
    """The key check: why ``(kind, n)`` cannot be served (the detail of
    its ``UNSUPPORTED`` refusal), or ``None`` for a servable key."""
    if not isinstance(kind, RequestKind):
        return f"unknown kind {kind!r}"
    if kind in _KEM_KINDS and n != KYBER_DEGREE:
        return f"Kyber serves n={KYBER_DEGREE} only"
    if (not isinstance(n, Integral) or n < 4 or n & (n - 1)
            or n > MAX_NATIVE_DEGREE):
        return f"degree must be a power of two in [4, {MAX_NATIVE_DEGREE}]"
    return None


_PayloadCheck = Callable[[Any], Any]


@lru_cache(maxsize=None)
def _payload_check(kind: RequestKind, n: int) -> Tuple[_PayloadCheck, str]:
    """The payload check of a servable key, and the detail of its
    ``INVALID`` refusal.

    The check returns the payload as the handlers take it, or raises
    ``TypeError``/``ValueError``.  POLYMUL and NTT operands come back as
    length-``n`` uint64 vectors, HE operands must be ciphertexts over
    the degree's ring and a decaps ciphertext's block must hold
    ``KYBER_RANK`` ``u`` rows and one ``v`` row over it, so an operand
    the kernel could not take is refused at submit, alone, instead of
    failing the whole batch window it would have joined.  Keys are
    bounded (nine kinds, fourteen degrees), so the cache is too.
    """
    if kind is RequestKind.POLYMUL:
        def polymul(payload: Any) -> Any:
            a, b = payload
            return _coefficients(a, n), _coefficients(b, n)
        return polymul, (f"POLYMUL payload must be two length-{n} "
                         f"integer vectors")
    if kind in (RequestKind.NTT_FORWARD, RequestKind.NTT_INVERSE):
        def vector(payload: Any) -> Any:
            return _coefficients(payload, n)
        return vector, f"NTT payload must be one length-{n} integer vector"
    if kind in _HE_PAIR_KINDS:
        q = params_for_degree(n).q

        def pair(payload: Any) -> Any:
            x, y = payload
            if not (_ring_elements(getattr(x, "parts", None), n, q)
                    and _ring_elements(getattr(y, "parts", None), n, q)):
                raise TypeError("not a pair of ring ciphertexts")
            return payload
        return pair, (f"eval payload must be a pair of ciphertexts "
                      f"over the (n={n}, q={q}) ring")
    if kind is RequestKind.KYBER_DECAPS:
        q = params_for_degree(n).q
        shape = (KYBER_RANK + 1, n)

        def ciphertext(payload: Any) -> Any:
            # a ciphertext's block holds canonical rows by construction, so
            # its type, shape and ring are the whole check
            if not (isinstance(payload, KyberCiphertext)
                    and payload.params is not None
                    and payload.params.q == q
                    and payload.block is not None
                    and payload.block.shape == shape):
                raise TypeError("not a Kyber ciphertext")
            return payload
        return ciphertext, "decaps payload must be a Kyber ciphertext"
    # KYBER_ENCAPS encapsulates against the service key: no operand
    return _as_given, ""


def _as_given(payload: Any) -> Any:
    return payload


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
        seed: deterministic seed for service-held keys and KEM noise.
        num_chips: size of the simulated chip fleet; 1 (the default) is
            one shared chip.
        routing: fleet routing policy, ``"affinity"`` (degree-affinity +
            power-of-two-choices + spill) or ``"round_robin"``.
        tracing: thread a :mod:`repro.obs` trace through every request
            (admit / queue / window / lease / execute spans with chip
            cycles).  Off by default; disabled tracing costs nothing but
            a few no-op calls per request.
        trace_capacity: reservoir size of retained traces (aggregates
            stay exact regardless).
    """

    batch_capacity: Optional[int] = None
    max_batch_wait_s: float = 2e-3
    queue_depth: int = 128
    tenant_rate: Optional[float] = None
    tenant_burst: Optional[float] = None
    shed_watermark: float = 0.75
    shed_priority_floor: int = 1
    seed: int = 0x5EED
    num_chips: int = 1
    routing: str = "affinity"
    tracing: bool = False
    trace_capacity: int = 1024

    def admission_policy(self) -> AdmissionPolicy:
        return AdmissionPolicy(
            queue_depth=self.queue_depth,
            tenant_rate=self.tenant_rate,
            tenant_burst=self.tenant_burst,
            shed_watermark=self.shed_watermark,
            shed_priority_floor=self.shed_priority_floor,
        )


class _Pending:
    """A queued request plus its completion plumbing."""

    __slots__ = ("request", "payload", "enqueued_at", "future", "trace")

    def __init__(self, request: ServeRequest, payload: Any,
                 enqueued_at: float,
                 future: "asyncio.Future[Union[ServeResult, Rejection]]",
                 trace: Span = NULL_SPAN):
        self.request = request
        self.payload = payload    # as admission coerced it for the handlers
        self.enqueued_at = enqueued_at
        self.future = future
        self.trace = trace


class _Backlog:
    """Running counts across all of a service's queues, each kept in
    O(1): ``items`` queued (what ``sum(qsize())`` over them would read)
    and ``unresolved``, the requests admitted and not yet resolved
    (queued, in an open batch window or executing)."""

    __slots__ = ("items", "unresolved")

    def __init__(self) -> None:
        self.items = 0
        self.unresolved = 0


class _CountedQueue(asyncio.PriorityQueue):
    """A priority queue that keeps its service's :class:`_Backlog` as
    items go in and out, whichever path (submit, a batch window, stop)
    moves them.  It pushes and pops the base class's heap itself, one
    call per move instead of two."""

    _queue: List[Any]  # the heap asyncio.PriorityQueue keeps

    def __init__(self, backlog: _Backlog):
        super().__init__()
        self._backlog = backlog

    def _put(self, item: Any) -> None:
        heapq.heappush(self._queue, item)
        self._backlog.items += 1
        self._backlog.unresolved += 1

    def _get(self) -> Any:
        self._backlog.items -= 1
        return heapq.heappop(self._queue)


class _BatchMeters:
    """One queue's completion instruments, resolved from the registry
    when its first batch completes."""

    __slots__ = ("batches", "size", "occupancy", "completed", "e2e",
                 "queue_wait", "service", "kind_e2e")

    def __init__(self, metrics: MetricsRegistry, kind: RequestKind):
        self.batches = metrics.counter("batches_dispatched")
        self.size = metrics.histogram("batch.size", unit="items")
        self.occupancy = metrics.histogram("batch.occupancy", unit="frac")
        self.completed = metrics.counter("requests_completed")
        self.e2e = metrics.histogram("latency.e2e")
        self.queue_wait = metrics.histogram("latency.queue_wait")
        self.service = metrics.histogram("latency.service")
        self.kind_e2e = metrics.histogram(f"latency.e2e.{kind.value}")


@dataclass
class _QueueState:
    """One served ``(kind, degree)`` key: its priority queue and drain
    task, its submit counters, its payload check with the ``INVALID``
    detail, and its metric handles.  The key check passed when the
    record was built, so a later request of the key pays one dict lookup
    for all of it.  Gauges and meters resolve on first use, so the
    registry only ever holds instruments that have seen an event."""

    key: Tuple[RequestKind, int]
    queue: _CountedQueue
    window: BatchWindow
    counters: Tuple[Counter, ...]
    payload_check: Tuple[_PayloadCheck, str]
    worker: Optional["asyncio.Task"] = field(repr=False, default=None)
    gauges: Optional[Tuple[Gauge, Gauge]] = field(repr=False, default=None)
    meters: Optional[_BatchMeters] = field(repr=False, default=None)


def _refusal(request: ServeRequest, reason: RejectReason,
             detail: str) -> Rejection:
    return Rejection(request_id=request.request_id, kind=request.kind,
                     n=request.n, reason=reason, detail=detail)


class CryptoPimService:
    """Async multi-tenant front door over a fleet of simulated chips.

    Batch windows are sharded across the chips of a
    :class:`~repro.serve.fleet.ChipFleet`; ``num_chips=1`` (the default)
    is a fleet of one.
    """

    def __init__(self, config: ServiceConfig = ServiceConfig(),
                 chip: Optional[CryptoPimChip] = None):
        self.config = config
        self.metrics = MetricsRegistry()
        if config.tracing:
            self.journal: Optional[TraceJournal] = TraceJournal(
                capacity=config.trace_capacity, seed=config.seed)
            self.tracer: Tracer = Tracer(journal=self.journal)
        else:
            self.journal = None
            self.tracer = NULL_TRACER
        self.fleet = ChipFleet(num_chips=config.num_chips, chip=chip,
                               policy=config.routing, seed=config.seed)
        self._admission = AdmissionController(config.admission_policy())
        # the record of each served key, built by its first checked request
        self._queues: Dict[Tuple[RequestKind, int], _QueueState] = {}
        self._backlog = _Backlog()
        # the heap's tie-break within a priority class: arrival order, so
        # no two entries ever compare their requests
        self._arrivals = itertools.count()
        # counter handles per request kind and per rejection reason, and
        # per-chip dispatch counters, each resolved on first use
        self._kind_counters: Dict[Optional[RequestKind],
                                  Tuple[Counter, ...]] = {}
        self._reject_counters: Dict[RejectReason, Tuple[Counter, Counter]] = {}
        self._chip_counters: Dict[int, Counter] = {}
        self._running = True
        self._rng = np.random.default_rng(config.seed)
        # lazily-built execution contexts, keyed by degree
        self._accelerators: Dict[int, CryptoPIM] = {}
        self._kyber: Optional[Tuple[KyberKem, Any, Any]] = None  # (kem, pk, sk)
        self._bgv: Dict[int, Tuple[BgvScheme, Any]] = {}   # (scheme, sk)
        self._bfv: Dict[int, Tuple[BfvScheme, Any]] = {}

    # -- execution contexts (also used by the load generator) ---------------

    def accelerator(self, n: int) -> CryptoPIM:
        if n not in self._accelerators:
            self._accelerators[n] = CryptoPIM.for_degree(n)
        return self._accelerators[n]

    def engine(self, n: int) -> NttEngine:
        return NttEngine.shared(params_for_degree(n))

    def kyber(self) -> Tuple[KyberKem, Any, Any]:
        """The service KEM context ``(kem, pk, sk)`` (paper n=256 ring)."""
        if self._kyber is None:
            kem = KyberKem(k=KYBER_RANK, rng=np.random.default_rng(
                self._rng.integers(2**63)))
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

    # -- the per-key record ---------------------------------------------------

    def _queue_state(self, request: ServeRequest) -> _QueueState:
        """The record of a servable request's key, built (with its queue
        and drain task) the first time one of the key's requests passes
        the key and payload checks."""
        kind, n = key = (request.kind, int(request.n))
        state = self._queues.get(key)
        if state is None:
            capacity = self.config.batch_capacity or self.fleet.capacity_for(n)
            state = _QueueState(
                key=key,
                queue=_CountedQueue(self._backlog),
                window=BatchWindow(capacity=capacity,
                                   max_wait_s=self.config.max_batch_wait_s),
                counters=self._kind_counters[kind],
                payload_check=_payload_check(kind, n),
            )
            state.worker = asyncio.get_running_loop().create_task(
                self._drain(state), name=f"serve-{kind.value}-{n}")
            self._queues[key] = state
        return state

    def _gauges(self, state: _QueueState) -> Tuple[Gauge, Gauge]:
        """The queue's depth gauge and ``backlog_total``, resolved on the
        key's first put."""
        kind, n = state.key
        gauges = state.gauges = (
            self.metrics.gauge(f"queue_depth.{kind.value}.{n}"),
            self.metrics.gauge("backlog_total"))
        return gauges

    def _count_submit(self, kind: Optional[RequestKind]) -> None:
        """``requests_submitted`` and ``requests.<kind>``, rejected
        requests included; an unknown kind (``None``) has no per-kind
        counter."""
        counters = self._kind_counters.get(kind)
        if counters is None:
            counters = (self.metrics.counter("requests_submitted"),)
            if kind is not None:
                counters += (self.metrics.counter(f"requests.{kind.value}"),)
            self._kind_counters[kind] = counters
        for counter in counters:
            counter.inc()

    def _count_rejected(self, reason: RejectReason, count: int = 1) -> None:
        counters = self._reject_counters.get(reason)
        if counters is None:
            counters = self._reject_counters[reason] = (
                self.metrics.counter("requests_rejected"),
                self.metrics.counter(f"rejected.{reason.value}"))
        for counter in counters:
            counter.inc(count)

    # -- submit ---------------------------------------------------------------

    async def submit(self,
                     request: ServeRequest) -> Union[ServeResult, Rejection]:
        """Serve one request; resolves to a ServeResult or a Rejection.

        Every request, traced or not, takes this one path.  A request
        whose ``(kind, n)`` key has a record counts itself and checks its
        payload with the record's handles; any other request runs the key
        check first.  Refusals come in one order, each with one detail:
        shutdown, key, payload (operands, ``priority``, ``tenant``),
        admission.  Tracing only adds the ``request`` and ``admit`` spans.
        """
        kind, n = request.kind, request.n
        # a float degree equals an int key, so only an int looks one up
        try:
            state = self._queues.get((kind, n)) if type(n) is int else None
        except TypeError:  # an unhashable kind has no record
            state = None
        if state is None:
            self._count_submit(kind if isinstance(kind, RequestKind) else None)
        else:
            for counter in state.counters:
                counter.inc()
        loop = asyncio.get_running_loop()
        tracing = self.tracer.enabled
        if tracing:
            t0 = loop.time()
            trace = self.tracer.start_trace(
                "request", start_s=t0, request_id=request.request_id,
                kind=(kind.value if isinstance(kind, RequestKind)
                      else repr(kind)),
                n=n, tenant=request.tenant, priority=request.priority)
            admit_span = trace.child("admit", start_s=t0)
        else:
            trace = admit_span = NULL_SPAN
        rejection: Optional[Rejection] = None
        try:
            if not self._running:
                rejection = _refusal(request, RejectReason.SHUTDOWN,
                                     "service is draining")
            elif state is None:
                detail = _unsupported(kind, n)
                if detail is not None:
                    rejection = _refusal(request, RejectReason.UNSUPPORTED,
                                         detail)
                else:
                    check, invalid = _payload_check(kind, n)
            else:
                check, invalid = state.payload_check
            if rejection is None:
                try:
                    payload = check(request.payload)
                except (TypeError, ValueError):
                    rejection = _refusal(request, RejectReason.INVALID,
                                         invalid)
            if rejection is None:
                priority = request.priority
                # the heap compares priorities and the token buckets hash
                # tenants, so either one malformed is refused here, alone
                if (type(priority) is not int
                        and not isinstance(priority, Integral)):
                    rejection = _refusal(request, RejectReason.INVALID,
                                         "priority must be an integer")
                elif not isinstance(request.tenant, str):
                    rejection = _refusal(request, RejectReason.INVALID,
                                         "tenant must be a string")
                else:
                    record = state or self._queue_state(request)
                    queue = record.queue
                    rejection = self._admission.admit(
                        request, queue.qsize(), admit_span)
        finally:
            # the admit span's close is the queue span's open: one shared
            # stamp, so the trace decomposes the latency exactly
            enqueued_at = loop.time()
            if tracing:
                admit_span.finish(end_s=enqueued_at)
        if rejection is None:
            pending = _Pending(request, payload, enqueued_at,
                               loop.create_future(), trace)
            # priority first, then arrival order within a priority class
            queue.put_nowait((priority, next(self._arrivals), pending))
            depth, backlog = record.gauges or self._gauges(record)
            depth.set(queue.qsize())
            backlog.set(self._backlog.items)
            return await pending.future
        self._count_rejected(rejection.reason)
        if tracing:
            trace.set(rejected=rejection.reason.value).finish(
                end_s=loop.time())
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
                self._fail_batch([entry[2] for entry in entries], kind, n,
                                 reason=RejectReason.SHUTDOWN,
                                 detail="service stopped mid-window")
                raise
            pendings = [entry[2] for entry in entries]
            try:
                depth, backlog = state.gauges or self._gauges(state)
                depth.set(state.queue.qsize())
                backlog.set(self._backlog.items)
                close_time = loop.time()
                route_info: Optional[Dict[str, Any]] = (
                    {} if tracing else None)
                async with self.fleet.lease(
                        n, route_info=route_info) as shard:
                    exec_start = loop.time()
                    try:
                        values = self._execute(kind, n, pendings)
                    except Exception as error:  # bad payload that passed
                        self._fail_batch(pendings, kind, n, error)
                        continue
                    exec_end = loop.time()
                    # charge the ledger only for work that ran
                    mults = self._mult_equivalents(kind, pendings)
                    timing = shard.timeline.dispatch(n, sum(mults))
                    chip_index = shard.index
                done_time = loop.time()
                # spans first and the roots last, so a fault in either
                # bookkeeping step leaves no member traced or counted as
                # completed
                if tracing:
                    self._trace_batch(
                        pendings, dequeued_at or [], close_time, exec_start,
                        exec_end, timing, chip_index, route_info)
                results = self._complete_batch(
                    state, pendings, values, mults, timing, chip_index,
                    close_time, done_time, exec_end - exec_start)
                if tracing:
                    for pending in pendings:
                        pending.trace.finish(end_s=done_time)
            except FleetDrained:
                # every chip is administratively drained: fail the window
                # over with typed rejections, don't drop it
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
            except Exception as error:
                # a fault of the service's own bookkeeping after dequeue
                # (pricing, the ledger, metrics, spans) refuses this window
                # alone, and the loop goes on serving the key; the loop's
                # exception handler logs the traceback
                loop.call_exception_handler({
                    "message": f"serve {kind.value}-{n}: window of "
                               f"{len(pendings)} failed after dequeue",
                    "exception": error})
                self._fail_batch(pendings, kind, n, error,
                                 reason=RejectReason.INTERNAL)
                continue
            for pending, result in zip(pendings, results):
                if not pending.future.done():
                    pending.future.set_result(result)
            self._backlog.unresolved -= len(pendings)

    def _complete_batch(self, state: _QueueState, pendings: List[_Pending],
                        values: List[Any], mults: List[int],
                        timing: BatchTiming, chip: int, close_time: float,
                        done_time: float,
                        service_s: float) -> List[ServeResult]:
        """Build the batch's results from its shared stamps (``service_s``
        is the execute interval) and record the batch and its members'
        latencies, one call per instrument."""
        kind, n = state.key
        size = len(pendings)
        cycles = timing.completion_cycles
        enqueued = [pending.enqueued_at for pending in pendings]
        waits = [close_time - stamp for stamp in enqueued]
        totals = [done_time - stamp for stamp in enqueued]
        # a member completes with the last of its own multiplications;
        # positional, in ServeResult's field order
        results = [
            ServeResult(pending.request.request_id, kind, n, value, wait,
                        service_s, total, size, cycles[end - 1], chip)
            for pending, value, wait, total, end in zip(
                pendings, values, waits, totals,
                itertools.accumulate(mults))]
        meters = state.meters
        if meters is None:
            meters = state.meters = _BatchMeters(self.metrics, kind)
        chip_counter = self._chip_counters.get(chip)
        if chip_counter is None:
            chip_counter = self._chip_counters[chip] = self.metrics.counter(
                f"fleet.dispatched.chip{chip}")
        meters.batches.inc()
        chip_counter.inc()
        meters.size.record(size)
        meters.occupancy.record(size / state.window.capacity)
        meters.e2e.record_many(totals)
        meters.queue_wait.record_many(waits)
        meters.service.record_many([service_s] * size)
        meters.kind_e2e.record_many(totals)
        # last, so a fault above never counts a refused member as completed
        meters.completed.inc(size)
        return results

    def _trace_batch(self, pendings: List[_Pending], dequeued_at: List[float],
                     close_time: float, exec_start: float, exec_end: float,
                     timing: BatchTiming, chip: int,
                     route_info: Optional[Dict[str, Any]]) -> None:
        """Attach the batch's stage spans to each member's trace; the drain
        loop closes the roots once the batch is counted.

        Every span is born finished from the *shared* stamps the drain
        loop took once per batch, so consecutive spans meet at identical
        floats and each root decomposes exactly: admit | queue | window |
        lease | execute | (result fan-out gap).  ``lease`` and ``execute``
        are the same interval for every member, so they are built once
        and every member's trace lists the same span objects; ``queue``
        and ``window`` are per member, split at its own dequeue stamp.
        The execute span carries the chip-cycle interval the timeline
        charged for the whole batch (reconfiguration rewiring as a
        zero-wall-length child).
        """
        tracer = self.tracer
        lease = tracer.batch_span("lease", start_s=close_time,
                                  end_s=exec_start, **(route_info or {}))
        execute = tracer.batch_span(
            "execute", start_s=exec_start, end_s=exec_end,
            cycle_start=timing.clock_start, cycle_end=timing.end_cycle,
            chip=chip, batch_seq=timing.seq, batch_size=timing.count,
            n=timing.n, superbanks=timing.superbanks)
        if timing.reconfiguration_cycles:
            execute.child(
                "reconfigure", start_s=exec_start, end_s=exec_start,
                cycle_start=timing.clock_start, cycle_end=timing.start_cycle,
                chip=chip, batch_seq=timing.seq)
        for index, pending in enumerate(pendings):
            trace = pending.trace
            if not trace.enabled:
                continue
            dequeued = (dequeued_at[index] if index < len(dequeued_at)
                        else close_time)
            trace.child("queue", start_s=pending.enqueued_at, end_s=dequeued)
            trace.child("window", start_s=dequeued, end_s=close_time,
                        batch_size=timing.count)
            trace.attach(lease)
            trace.attach(execute)

    def _fail_batch(self, pendings: List[_Pending], kind: RequestKind,
                    n: int, error: Optional[Exception] = None,
                    reason: RejectReason = RejectReason.INVALID,
                    detail: Optional[str] = None) -> None:
        if not pendings:  # register no counter for an empty window
            return
        detail = repr(error) if detail is None else detail
        self._count_rejected(reason, len(pendings))
        self._backlog.unresolved -= len(pendings)
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
                    for x, y in (p.payload for p in pendings)]
        else:
            # POLYMUL and each NTT direction occupy one pipeline pass; adds
            # are vector ops an order cheaper but still charged one slot
            each = 1
        return [each] * len(pendings)

    def _execute(self, kind: RequestKind, n: int,
                 pendings: List[_Pending]) -> List[Any]:
        payloads = [p.payload for p in pendings]
        if kind is RequestKind.POLYMUL:
            return self.accelerator(n).multiply_batch(payloads).results
        if kind is RequestKind.NTT_FORWARD:
            return list(self.engine(n).forward_many(np.stack(payloads)))
        if kind is RequestKind.NTT_INVERSE:
            return list(self.engine(n).inverse_many(np.stack(payloads)))
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
        """Wait until every admitted request has resolved: none is left
        queued, in an open batch window or executing."""
        while self._backlog.unresolved:
            await asyncio.sleep(0.001)
        await self.fleet.quiesce()  # the last batch has released its chip

    async def stop(self) -> None:
        """Refuse new work, cancel drain loops, reject queued requests.

        Every key's leftovers are refused even where a drain task ended
        with an exception; the first such exception is raised once all of
        them are."""
        self._running = False
        for state in self._queues.values():
            if state.worker is not None:
                state.worker.cancel()
        failure: Optional[Exception] = None
        for state in self._queues.values():
            if state.worker is not None:
                try:
                    await state.worker
                except asyncio.CancelledError:
                    pass
                except Exception as error:
                    failure = failure or error
            leftovers: List[_Pending] = []
            while not state.queue.empty():
                leftovers.append(state.queue.get_nowait()[2])
            self._fail_batch(leftovers, *state.key,
                             reason=RejectReason.SHUTDOWN,
                             detail="service stopped")
        if failure is not None:
            raise failure

    async def __aenter__(self) -> "CryptoPimService":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # -- reporting ------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Machine-readable service state: metrics + the fleet's timelines.

        ``fleet`` carries the aggregated view and each shard's timeline;
        ``trace`` joins in the journal's exact per-stage aggregates when
        tracing is on.
        """
        summary: Dict[str, Any] = {
            "metrics": self.metrics.snapshot(),
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
        return "\n".join((self.metrics.breakdown(), self.fleet.render()))
