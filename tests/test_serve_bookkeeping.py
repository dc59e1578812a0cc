"""The service's per-batch bookkeeping keeps the per-request metric
semantics: every counter and gauge reads what one-lookup-per-event
bookkeeping reads, the backlog costs O(1) per request whatever the number
of queues, and traced batches share their lease and execute spans."""

import asyncio

import numpy as np
import pytest

from repro.core.scheduler import ChipTimeline
from repro.ntt.transform import NttEngine
from repro.obs import decompose
from repro.pim.device import PAPER_DEVICE
from repro.serve import (
    CryptoPimService,
    MetricsRegistry,
    RejectReason,
    RequestKind,
    ServeRequest,
    ServiceConfig,
)
from repro.serve import service as service_module
from repro.serve.metrics import Gauge


def _polymul(rng, n):
    q = NttEngine.for_degree(n).q
    return (rng.integers(0, q, n).astype(np.uint64),
            rng.integers(0, q, n).astype(np.uint64))


class _ParentBookkeeping:
    """Per-request bookkeeping as the service kept it before metric
    handles were resolved per key: every instrument looked up by name for
    every event, ``backlog_total`` re-summed over all queues, one
    histogram sample per call.  It is fed from the same run as the
    service, at the points where that bookkeeping ran:

    * each submit, and the result it resolves to (rejections are counted
      when they resolve: admission refusals and failed windows alike);
    * right after each enqueue and each closed window, the depth rule;
    * each ledger charge, the batch rule.
    """

    def __init__(self, service, monkeypatch):
        self.metrics = MetricsRegistry()
        self.service = service
        self._sizes = []
        real_submit = service.submit
        real_state = service._queue_state
        real_execute = service._execute
        real_collect = service_module.collect_batch
        real_dispatch = ChipTimeline.dispatch
        shadow = self

        async def submit(request):
            m = shadow.metrics
            m.counter("requests_submitted").inc()
            m.counter(f"requests.{request.kind.value}").inc()
            result = await real_submit(request)
            if result.ok:
                m.counter("requests_completed").inc()
                m.histogram("latency.e2e").record(result.total_s)
                m.histogram("latency.queue_wait").record(result.queue_wait_s)
                m.histogram("latency.service").record(result.service_s)
                m.histogram(
                    f"latency.e2e.{result.kind.value}").record(result.total_s)
            else:
                m.counter("requests_rejected").inc()
                m.counter(f"rejected.{result.reason.value}").inc()
            return result

        def queue_state(request):
            state = real_state(request)
            if "put_nowait" not in vars(state.queue):
                put = state.queue.put_nowait

                def put_nowait(item):
                    put(item)
                    shadow.depth_rule(state)
                state.queue.put_nowait = put_nowait
            return state

        async def collect_batch(queue, window, out=None, dequeued_at=None):
            items = await real_collect(queue, window, out=out,
                                       dequeued_at=dequeued_at)
            (state,) = [s for s in service._queues.values()
                        if s.queue is queue]
            shadow.depth_rule(state)
            return items

        def execute(kind, n, pendings):
            values = real_execute(kind, n, pendings)
            window = service._queues[(kind, n)].window
            shadow._sizes.append((len(pendings), window.capacity))
            return values

        def dispatch(timeline, n, count):
            timing = real_dispatch(timeline, n, count)
            (chip,) = [s.index for s in service.fleet.shards
                       if s.timeline is timeline]
            size, capacity = shadow._sizes.pop()
            m = shadow.metrics
            m.counter("batches_dispatched").inc()
            m.counter(f"fleet.dispatched.chip{chip}").inc()
            m.histogram("batch.size", unit="items").record(size)
            m.histogram("batch.occupancy", unit="frac").record(
                size / capacity)
            return timing

        service.submit = submit
        service._queue_state = queue_state
        service._execute = execute
        monkeypatch.setattr(service_module, "collect_batch", collect_batch)
        monkeypatch.setattr(ChipTimeline, "dispatch", dispatch)

    def depth_rule(self, state):
        kind, n = state.key
        self.metrics.gauge(f"queue_depth.{kind.value}.{n}").set(
            state.queue.qsize())
        self.metrics.gauge("backlog_total").set(
            sum(s.queue.qsize() for s in self.service._queues.values()))


async def _mixed_scenario(service, rng):
    """Mixed kinds and degrees, a burst that overflows one queue, an
    unsupported degree, and a trickle that lands in open windows."""
    kem, pk, _ = service.kyber()
    ct, _ = kem.encapsulate(pk)
    requests = []
    for i in range(48):
        pick = i % 6
        if pick == 0:
            requests.append(ServeRequest(RequestKind.POLYMUL, 256,
                                         _polymul(rng, 256)))
        elif pick == 1:
            requests.append(ServeRequest(RequestKind.NTT_FORWARD, 256,
                                         _polymul(rng, 256)[0]))
        elif pick == 2:
            requests.append(ServeRequest(RequestKind.KYBER_ENCAPS, 256))
        elif pick == 3:
            requests.append(ServeRequest(RequestKind.KYBER_DECAPS, 256, ct))
        elif pick == 4:
            requests.append(ServeRequest(RequestKind.POLYMUL, 1000,
                                         _polymul(rng, 256)))
        else:
            requests.append(ServeRequest(RequestKind.NTT_INVERSE, 512,
                                         _polymul(rng, 512)[0]))
    burst = [ServeRequest(RequestKind.POLYMUL, 1024, _polymul(rng, 1024),
                          priority=int(p))
             for p in rng.integers(0, 3, 40)]
    responses = list(await asyncio.gather(
        *(service.submit(r) for r in requests + burst)))

    async def trickle(request, delay):
        await asyncio.sleep(delay)
        return await service.submit(request)

    responses += await asyncio.gather(*(
        trickle(ServeRequest(RequestKind.POLYMUL, 256, _polymul(rng, 256)),
                5e-4 * i) for i in range(12)))
    await service.drain()
    return responses


class TestMetricSemantics:
    def test_counters_and_gauges_match_per_request_bookkeeping(
            self, monkeypatch):
        # every level each gauge was set to, not only its last value and
        # high-water: a backlog that lagged while a window was open would
        # show here even when the two agree again later
        levels = []
        real_set = Gauge.set

        def set_level(gauge, value):
            levels.append((gauge, float(value)))
            real_set(gauge, value)

        monkeypatch.setattr(Gauge, "set", set_level)

        async def scenario():
            config = ServiceConfig(queue_depth=8, shed_watermark=0.75,
                                   max_batch_wait_s=2e-3, seed=21)
            async with CryptoPimService(config) as service:
                parent = _ParentBookkeeping(service, monkeypatch)
                responses = await _mixed_scenario(
                    service, np.random.default_rng(21))
            return service, parent, responses

        service, parent, responses = asyncio.run(scenario())
        reasons = {r.reason for r in responses if not r.ok}
        assert {RejectReason.UNSUPPORTED, RejectReason.QUEUE_FULL} <= reasons
        assert sum(r.ok for r in responses) > 40
        new, old = service.metrics.snapshot(), parent.metrics.snapshot()
        assert new["counters"] == old["counters"]
        assert new["gauges"] == old["gauges"]
        assert new["histograms"] == old["histograms"]

        def history(metrics, name):
            gauge = metrics.gauge(name)
            return [value for g, value in levels if g is gauge]

        for name in old["gauges"]:
            assert (history(service.metrics, name)
                    == history(parent.metrics, name)), name
        # rejected requests still count under their kind
        counters = new["counters"]
        assert counters["requests.polymul"] == 8 + 40 + 8 + 12
        assert counters["requests_submitted"] == len(responses)
        assert counters["requests_rejected"] == sum(
            not r.ok for r in responses)
        assert "backlog_total" in new["gauges"]

    def test_shutdown_rejections_are_counted(self):
        # ten POLYMUL requests sit in an open window when stop() runs; six
        # NTT requests are still queued behind a drain task that never got
        # to run: both are failed over, and both count as rejections
        async def scenario():
            service = CryptoPimService(ServiceConfig(max_batch_wait_s=5))
            rng = np.random.default_rng(5)
            windowed = [asyncio.create_task(service.submit(ServeRequest(
                RequestKind.POLYMUL, 256, _polymul(rng, 256))))
                for _ in range(10)]
            await asyncio.sleep(0.01)
            queued = [asyncio.create_task(service.submit(ServeRequest(
                RequestKind.NTT_FORWARD, 256,
                np.zeros(256, dtype=np.uint64)))) for _ in range(6)]
            await asyncio.sleep(0)  # enqueue, but do not start the drain
            await service.stop()
            responses = await asyncio.gather(*windowed, *queued)
            return responses, service.metrics.snapshot()["counters"]

        responses, counters = asyncio.run(scenario())
        assert all(r.reason == RejectReason.SHUTDOWN for r in responses)
        assert [r.detail for r in responses] == (
            ["service stopped mid-window"] * 10 + ["service stopped"] * 6)
        assert counters["requests_rejected"] == len(responses)
        assert counters["rejected.shutdown"] == len(responses)

    def test_unknown_kind_is_refused_alone(self):
        async def scenario():
            async with CryptoPimService() as service:
                bogus = await service.submit(ServeRequest("bogus", 256))
                fine = await service.submit(ServeRequest(
                    RequestKind.NTT_FORWARD, 256,
                    np.zeros(256, dtype=np.uint64)))
            return bogus, fine, service.metrics.snapshot()["counters"]

        bogus, fine, counters = asyncio.run(scenario())
        assert bogus.reason == RejectReason.UNSUPPORTED
        assert fine.ok
        assert counters["requests_submitted"] == 2
        assert counters["rejected.unsupported"] == 1
        assert counters["requests.ntt_forward"] == 1


def _qsize_calls_per_submit(queues, monkeypatch):
    """``qsize`` calls one more NTT request makes - its enqueue, its
    window and its completion - once ``queues`` queues are live."""
    keys = [(kind, 16 << i) for i in range(10)
            for kind in (RequestKind.NTT_FORWARD, RequestKind.NTT_INVERSE)]
    calls = [0]
    real = asyncio.Queue.qsize

    def qsize(queue):
        calls[0] += 1
        return real(queue)

    async def scenario():
        config = ServiceConfig(max_batch_wait_s=0)
        async with CryptoPimService(config) as service:
            for kind, n in keys[:queues]:
                await service.submit(ServeRequest(
                    kind, n, np.zeros(n, dtype=np.uint64)))
            assert len(service._queues) == queues
            monkeypatch.setattr(asyncio.Queue, "qsize", qsize)
            kind, n = keys[0]
            result = await service.submit(ServeRequest(
                kind, n, np.zeros(n, dtype=np.uint64)))
            monkeypatch.setattr(asyncio.Queue, "qsize", real)
            assert result.ok
        return calls[0]

    return asyncio.run(scenario())


class TestBacklogIsRunningCount:
    def test_qsize_calls_do_not_grow_with_live_queues(self, monkeypatch):
        one = _qsize_calls_per_submit(1, monkeypatch)
        twenty = _qsize_calls_per_submit(20, monkeypatch)
        assert one == twenty
        assert one <= 3  # admission, enqueue gauge, window-close gauge


class TestPerBatchTracing:
    @pytest.fixture(scope="class")
    def traced(self):
        async def scenario():
            config = ServiceConfig(tracing=True, max_batch_wait_s=0,
                                   num_chips=2, routing="round_robin")
            async with CryptoPimService(config) as service:
                rng = np.random.default_rng(4)
                results = await asyncio.gather(*(
                    service.submit(ServeRequest(
                        RequestKind.POLYMUL, n, _polymul(rng, n)))
                    for n in (256, 1024) * 12))
            return results, service.journal

        return asyncio.run(scenario())

    def test_lease_and_execute_are_one_span_per_batch(self, traced):
        results, journal = traced
        roots = journal.traces()
        assert len(roots) == len(results) == 24
        by_batch = {}
        for root in roots:
            names = [span.name for span in root.children]
            assert names == ["admit", "queue", "window", "lease", "execute"]
            execute = root.children[4]
            key = (execute.attrs["chip"], execute.attrs["batch_seq"])
            by_batch.setdefault(key, []).append(root)
        assert len(by_batch) < len(roots)
        for members in by_batch.values():
            leases = {id(root.children[3]) for root in members}
            executes = {id(root.children[4]) for root in members}
            windows = {id(root.children[2]) for root in members}
            assert len(leases) == len(executes) == 1
            assert len(windows) == len(members)
            for root in members:
                segments = decompose(root)
                for a, b in zip(segments, segments[1:]):
                    assert a.end_s == b.start_s
        stages = journal.aggregates()["stages"]
        assert stages["lease"]["count"] == stages["execute"]["count"] == 24

    def test_result_converts_its_own_completion_cycle(self, traced):
        results, _ = traced
        for result in results:
            assert result.completion_us == PAPER_DEVICE.cycles_to_us(
                result.completion_cycle)

    def test_journal_folds_deep_traces_without_recursion(self):
        from repro.obs import TraceJournal, Tracer

        journal = TraceJournal()
        tracer = Tracer(journal=journal)
        root = tracer.start_trace("request", start_s=0.0)
        span = root
        for _ in range(5000):
            span = span.child("nested", start_s=0.0, end_s=1.0)
        root.finish(end_s=1.0)
        assert journal.stages["nested"].count == 5000
