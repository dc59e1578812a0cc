"""Tests for the repro.serve subsystem: admission, batching, scheduling,
metrics, the asyncio service, and the load generator."""

import asyncio
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.arch.chip import CryptoPimChip
from repro.core.pipeline import PipelineModel
from repro.core.scheduler import RECONFIGURATION_CYCLES, chip_completion_cycles
from repro.ntt.transform import NttEngine
from repro.serve import (
    PROFILES,
    AdmissionController,
    AdmissionPolicy,
    BatchWindow,
    ChipTimeline,
    CryptoPimService,
    LatencyHistogram,
    MetricsRegistry,
    Rejection,
    RejectReason,
    RequestKind,
    ServeRequest,
    ServiceConfig,
    TokenBucket,
    TrafficSpec,
    WorkloadProfile,
    collect_batch,
    run_closed_loop,
    run_open_loop,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0x5E12E)


def request_for(kind=RequestKind.POLYMUL, n=256, payload=None, **kw):
    return ServeRequest(kind=kind, n=n, payload=payload, **kw)


def polymul_payload(rng, n=256):
    q = NttEngine.for_degree(n).q
    return (rng.integers(0, q, n).astype(np.uint64),
            rng.integers(0, q, n).astype(np.uint64))


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10, burst=3, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == [True] * 3 + [False]
        clock.now += 0.1  # one token refilled
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100, burst=5, clock=clock)
        clock.now += 1000.0
        assert bucket.available == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)


class TestAdmission:
    def test_admits_when_idle(self):
        controller = AdmissionController(AdmissionPolicy(queue_depth=4))
        assert controller.admit(request_for(), queue_size=0) is None

    def test_queue_full(self):
        controller = AdmissionController(AdmissionPolicy(queue_depth=4))
        rejection = controller.admit(request_for(priority=0), queue_size=4)
        assert rejection.reason == RejectReason.QUEUE_FULL

    def test_watermark_sheds_low_priority_only(self):
        policy = AdmissionPolicy(queue_depth=10, shed_watermark=0.5,
                                 shed_priority_floor=1)
        controller = AdmissionController(policy)
        shed = controller.admit(request_for(priority=1), queue_size=5)
        assert shed.reason == RejectReason.OVERLOAD_SHED
        assert controller.admit(request_for(priority=0), queue_size=5) is None

    def test_rate_limit_per_tenant(self):
        clock = FakeClock()
        policy = AdmissionPolicy(queue_depth=100, tenant_rate=10,
                                 tenant_burst=2)
        controller = AdmissionController(policy, clock=clock)
        a = request_for(tenant="a")
        assert controller.admit(a, 0) is None
        assert controller.admit(a, 0) is None
        limited = controller.admit(a, 0)
        assert limited.reason == RejectReason.RATE_LIMITED
        # another tenant has its own bucket
        assert controller.admit(request_for(tenant="b"), 0) is None

    def test_service_refusals_do_not_burn_tenant_quota(self):
        """Regression: QUEUE_FULL / OVERLOAD_SHED rejections used to drain
        the tenant's token bucket first, so a shedding service went on to
        rate-limit innocent tenants once the backlog cleared."""
        clock = FakeClock()
        policy = AdmissionPolicy(queue_depth=4, shed_watermark=0.5,
                                 tenant_rate=10, tenant_burst=2)
        controller = AdmissionController(policy, clock=clock)
        bucket = controller._bucket("victim")
        level_before = bucket.available

        full = controller.admit(request_for(tenant="victim"), queue_size=4)
        assert full.reason == RejectReason.QUEUE_FULL
        shed = controller.admit(
            request_for(tenant="victim", priority=1), queue_size=2)
        assert shed.reason == RejectReason.OVERLOAD_SHED
        # neither refusal consumed a token
        assert bucket.available == pytest.approx(level_before)

        # an actually-admittable request still pays exactly one token
        assert controller.admit(request_for(tenant="victim"), 0) is None
        assert bucket.available == pytest.approx(level_before - 1)


# ---------------------------------------------------------------------------
# batching window
# ---------------------------------------------------------------------------

class TestBatchWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchWindow(capacity=0, max_wait_s=0.1)
        with pytest.raises(ValueError):
            BatchWindow(capacity=4, max_wait_s=-1)

    def test_closes_at_capacity_without_waiting(self):
        async def scenario():
            queue = asyncio.Queue()
            for i in range(10):
                queue.put_nowait(i)
            started = asyncio.get_running_loop().time()
            batch = await collect_batch(queue, BatchWindow(4, max_wait_s=60))
            elapsed = asyncio.get_running_loop().time() - started
            return batch, elapsed, queue.qsize()

        batch, elapsed, left = asyncio.run(scenario())
        assert batch == [0, 1, 2, 3]
        assert left == 6
        assert elapsed < 1.0  # never slept despite the 60s window

    def test_closes_at_deadline_with_partial_batch(self):
        async def scenario():
            queue = asyncio.Queue()
            queue.put_nowait("only")
            return await collect_batch(queue, BatchWindow(8, max_wait_s=0.02))

        assert asyncio.run(scenario()) == ["only"]

    def test_zero_wait_serves_backlog_only(self):
        async def scenario():
            queue = asyncio.Queue()
            queue.put_nowait(1)
            queue.put_nowait(2)
            return await collect_batch(queue, BatchWindow(8, max_wait_s=0))

        assert asyncio.run(scenario()) == [1, 2]

    def test_stragglers_join_within_deadline(self):
        async def scenario():
            queue = asyncio.Queue()
            queue.put_nowait("first")

            async def straggler():
                await asyncio.sleep(0.005)
                queue.put_nowait("late")

            task = asyncio.create_task(straggler())
            batch = await collect_batch(queue, BatchWindow(8, max_wait_s=0.2))
            await task
            return batch

        assert asyncio.run(scenario()) == ["first", "late"]

    def test_cancel_racing_get_neither_loses_nor_swallows(self):
        """Regression for the ``wait_for(queue.get(), ...)`` race.

        A put and a cancellation landing in the same event-loop pass must
        (a) propagate the cancellation - the pre-fix code returned the
        dequeued item from ``wait_for`` and kept the window running - and
        (b) leak no item: everything produced is either in ``out`` (the
        caller's failover list) or still in the queue.
        """
        async def scenario():
            swallowed = 0
            lost = 0
            for _ in range(50):
                queue = asyncio.Queue()
                out = []
                queue.put_nowait("seed")
                task = asyncio.create_task(collect_batch(
                    queue, BatchWindow(8, max_wait_s=0.5), out=out))
                await asyncio.sleep(0.001)  # window sits in its deadline loop
                queue.put_nowait("racer")   # resolves the pending get...
                task.cancel()               # ...in the same pass as this
                try:
                    await asyncio.wait_for(task, 0.2)
                    swallowed += 1
                except asyncio.CancelledError:
                    pass
                except asyncio.TimeoutError:
                    swallowed += 1
                if len(out) + queue.qsize() != 2:
                    lost += 1
            return swallowed, lost

        swallowed, lost = asyncio.run(scenario())
        assert swallowed == 0, "cancellation must never be swallowed"
        assert lost == 0, "no dequeued item may be dropped"

    def test_deadline_hammer_conserves_items(self):
        """Stragglers landing right at the deadline are either batched,
        left in the queue, or recovered on exit - never dropped."""
        async def scenario():
            rng = np.random.default_rng(0xBA7C4)
            lost = 0
            for trial in range(60):
                queue = asyncio.Queue()
                queue.put_nowait(("seed", trial))
                wait = 0.002
                offset = wait + float(rng.uniform(-5e-4, 3e-4))
                loop = asyncio.get_running_loop()
                loop.call_later(max(0.0, offset),
                                queue.put_nowait, ("late", trial))
                batch = await collect_batch(
                    queue, BatchWindow(8, max_wait_s=wait))
                await asyncio.sleep(0.004)  # let a late put actually land
                if len(batch) + queue.qsize() != 2:
                    lost += 1
            return lost

        assert asyncio.run(scenario()) == 0


# ---------------------------------------------------------------------------
# chip timeline scheduler
# ---------------------------------------------------------------------------

class TestChipTimeline:
    def test_completion_law(self):
        timeline = ChipTimeline()
        model = PipelineModel.for_degree(1024)
        superbanks = CryptoPimChip().configure(1024).parallel_multiplications
        count = superbanks * 2 + 3
        timing = timeline.dispatch(1024, count)
        for i, cycle in enumerate(timing.completion_cycles):
            slot = i // superbanks
            assert cycle == (model.depth + slot) * model.stage_cycles
        assert timeline.clock_cycles == timing.end_cycle

    def test_reconfiguration_charged_on_degree_change(self):
        timeline = ChipTimeline()
        first = timeline.dispatch(256, 4)
        second = timeline.dispatch(256, 4)  # same degree: no penalty
        assert second.reconfiguration_cycles == 0
        third = timeline.dispatch(1024, 4)
        assert third.reconfiguration_cycles == RECONFIGURATION_CYCLES
        assert timeline.reconfigurations == 1
        assert third.start_cycle == second.end_cycle + RECONFIGURATION_CYCLES
        assert first.end_cycle < second.end_cycle < third.end_cycle

    def test_occupancy(self):
        timeline = ChipTimeline()
        superbanks = CryptoPimChip().configure(256).parallel_multiplications
        full = timeline.dispatch(256, superbanks)
        assert full.occupancy == pytest.approx(1.0)
        half = timeline.dispatch(256, superbanks // 2)
        assert half.occupancy == pytest.approx(0.5)

    def test_rejects_empty_dispatch(self):
        with pytest.raises(ValueError):
            ChipTimeline().dispatch(256, 0)

    def test_cycle_accounting_invariant(self):
        """Regression: reconfiguration cycles used to vanish from the
        accounting (excluded from busy, included in the clock), silently
        understating what degree-mixed traffic costs.  Every clock tick
        must now be exactly one of busy / reconfig / idle."""
        timeline = ChipTimeline()
        for n, count in ((256, 4), (1024, 4), (256, 2), (2048, 8), (256, 1)):
            timeline.dispatch(n, count)
        timeline.advance_idle(5000)
        snap = timeline.snapshot()
        assert snap["reconfig_cycles"] == 4 * RECONFIGURATION_CYCLES
        assert snap["idle_cycles"] == 5000
        assert (snap["busy_cycles"] + snap["reconfig_cycles"]
                + snap["idle_cycles"]) == snap["clock_cycles"]
        # utilization is documented compute/total: busy over the full clock
        assert snap["utilization"] == pytest.approx(
            snap["busy_cycles"] / snap["clock_cycles"])

    def test_advance_idle_validates(self):
        with pytest.raises(ValueError):
            ChipTimeline().advance_idle(-1)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency.e2e")
        for value in range(1, 101):
            hist.record(value / 1000.0)
        assert hist.percentile(50) == pytest.approx(0.0505, rel=0.01)
        assert hist.percentile(99) == pytest.approx(0.09901, rel=0.01)
        assert hist.mean == pytest.approx(0.0505)

    def test_snapshot_and_json(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.gauge("depth").set(7)
        registry.gauge("depth").set(2)
        registry.histogram("lat").record(0.5)
        snap = registry.snapshot()
        assert snap["counters"]["requests"] == 3
        assert snap["gauges"]["depth"] == {"value": 2.0, "high_water": 7.0}
        assert snap["histograms"]["lat"]["count"] == 1
        assert "requests" in registry.to_json()

    def test_breakdown_renders(self):
        registry = MetricsRegistry()
        registry.counter("requests_completed").inc()
        registry.histogram("latency.e2e").record(0.010)
        text = registry.breakdown()
        assert "requests_completed" in text
        assert "latency.e2e" in text

    def test_histogram_max_tracks_all_negative_samples(self):
        """Regression: _max started at 0.0, so a histogram fed only
        negative samples (drift, deficit) reported a spurious max of 0
        instead of its true maximum (mirrors Gauge.high_water seeding)."""
        hist = LatencyHistogram("clock_drift", unit="s")
        hist.record(-5.0)
        assert hist.summary()["max"] == -5.0
        hist.record(-2.0)
        hist.record(-9.0)
        assert hist.summary()["max"] == -2.0
        hist.record(3.0)
        assert hist.summary()["max"] == 3.0

    def test_snapshot_roundtrips_through_json_with_sorted_keys(self):
        import json

        registry = MetricsRegistry()
        # register out of order: the export must sort deterministically
        registry.counter("zeta").inc(2)
        registry.counter("alpha").inc(1)
        registry.gauge("depth").set(4)
        registry.histogram("lat").record(0.25)
        registry.histogram("batch", unit="items").record(8)
        snap = registry.snapshot()
        assert json.loads(registry.to_json()) == snap
        assert list(snap["counters"]) == ["alpha", "zeta"]
        assert list(snap["histograms"]) == ["batch", "lat"]
        assert registry.to_json() == registry.to_json()  # stable rendering
        assert snap["histograms"]["batch"]["unit"] == "items"

    def test_gauge_high_water_tracks_all_negative_values(self):
        """Regression: high_water started at 0.0, so a gauge that only
        ever saw negative levels reported a spurious high-water of 0."""
        registry = MetricsRegistry()
        gauge = registry.gauge("clock_drift")
        gauge.set(-5.0)
        assert gauge.high_water == -5.0
        gauge.set(-2.0)
        assert gauge.high_water == -2.0
        gauge.set(-9.0)
        assert gauge.high_water == -2.0
        gauge.set(3.0)
        assert gauge.high_water == 3.0

    def test_histogram_reservoir_downsamples_unbiased(self):
        """Covers the reservoir branch (> 65536 samples): memory stays
        bounded while count/sum/max stay exact and quantiles stay sane."""
        from repro.serve.metrics import _RESERVOIR

        hist = LatencyHistogram("flood", unit="x")
        total = _RESERVOIR + 20_000
        for i in range(total):
            hist.record(float(i))
        assert hist.count == total
        assert len(hist._samples) == _RESERVOIR          # capped
        assert hist._max == float(total - 1)             # exact max kept
        assert hist.mean == pytest.approx((total - 1) / 2.0)
        # the uniform reservoir keeps the median near the true median
        assert hist.percentile(50) == pytest.approx(total / 2, rel=0.05)
        summary = hist.summary()
        assert summary["count"] == total
        assert summary["p99"] <= summary["max"]

    @pytest.mark.parametrize("offset", [0, 3])
    def test_record_many_matches_sequential_record(self, offset):
        """Batches that fill the reservoir, cross its boundary and land
        beyond it leave the same state as one ``record`` per sample,
        reservoir draws included."""
        from repro.serve.metrics import _RESERVOIR

        values = np.random.default_rng(17).normal(
            size=_RESERVOIR + 40).tolist()
        cuts = [0, 5, _RESERVOIR - offset, _RESERVOIR + 12, len(values)]
        one, many = LatencyHistogram("a"), LatencyHistogram("b")
        for value in values:
            one.record(value)
        many.record_many([])
        for lo, hi in zip(cuts, cuts[1:]):
            many.record_many(values[lo:hi])
        assert many.count == one.count == len(values)
        assert many._sum == one._sum
        assert many._max == one._max
        assert many._samples == one._samples
        assert (many._rng.bit_generator.state
                == one._rng.bit_generator.state)
        assert many.summary() == one.summary()

    def test_reservoir_draws_scale_with_admissions(self):
        """Past the cap a histogram draws per admitted sample, not per
        sample: from N0 to N1 samples about k * ln(N1 / N0) of them are
        admitted, three uniforms each, where a per-sample rule would draw
        N1 - N0 values."""
        from repro.obs.reservoir import _BLOCK
        from repro.serve.metrics import _RESERVOIR

        class CountingGenerator:
            def __init__(self, rng):
                self.rng, self.drawn = rng, 0

            def random(self, size=None):
                self.drawn += 1 if size is None else int(np.prod(size))
                return self.rng.random(size)

            def integers(self, low, high=None, size=None):
                self.drawn += 1 if size is None else int(np.prod(size))
                return self.rng.integers(low, high, size)

        hist = LatencyHistogram("flood")
        lo, hi = 2 * _RESERVOIR, 20 * _RESERVOIR
        hist.record_many(np.arange(lo, dtype=float))
        counter = CountingGenerator(hist._rng)
        hist._sampler.rng = counter
        batch = np.arange(13, dtype=float).tolist()
        for _ in range((hi - lo) // 13):
            hist.record_many(batch)
        assert hist.count >= hi - 13
        bound = 3 * _RESERVOIR * np.log(hi / lo)
        assert 0 < counter.drawn <= 1.01 * bound + _BLOCK

    def test_skip_reservoir_is_uniform(self):
        """Every retained sample is a distinct stream item, and each
        eighth of the stream holds an eighth of the sample (+-5%, about
        five standard deviations): an off-by-one skip or a reservoir that
        stops replacing skews the buckets."""
        from repro.serve.metrics import _RESERVOIR

        hist = LatencyHistogram("flood", unit="x")
        total = 4 * _RESERVOIR
        stream = np.arange(total, dtype=float)
        for lo in range(0, total, 997):
            hist.record_many(stream[lo:lo + 997])
        kept = np.asarray(hist._samples)
        assert len(kept) == _RESERVOIR
        assert len(np.unique(kept)) == _RESERVOIR
        buckets = np.bincount((kept // (total // 8)).astype(int),
                              minlength=8)
        assert len(buckets) == 8
        assert np.all(np.abs(buckets - _RESERVOIR / 8)
                      <= 0.05 * _RESERVOIR / 8), buckets

    def test_record_many_seeds_max_from_first_batch(self):
        hist = LatencyHistogram("drift")
        hist.record_many([-5.0, -7.0])
        assert hist.summary()["max"] == -5.0
        hist.record_many(np.array([-9.0, -1.0]))
        assert hist.summary()["max"] == -1.0


# ---------------------------------------------------------------------------
# the service
# ---------------------------------------------------------------------------

def serve(coro):
    """Run one async service scenario to completion."""
    return asyncio.run(coro)


class TestServiceCorrectness:
    def test_polymul_matches_engine(self, rng):
        async def scenario():
            engine = NttEngine.for_degree(256)
            pairs = [polymul_payload(rng) for _ in range(12)]
            async with CryptoPimService() as service:
                results = await asyncio.gather(*(
                    service.submit(request_for(payload=pair))
                    for pair in pairs))
            for pair, result in zip(pairs, results):
                assert result.ok
                assert np.array_equal(result.value,
                                      engine.multiply(*pair))
                assert result.batch_size >= 1
                assert result.completion_cycle > 0

        serve(scenario())

    def test_ntt_roundtrip(self, rng):
        async def scenario():
            engine = NttEngine.for_degree(512)
            a = rng.integers(0, engine.q, 512).astype(np.uint64)
            async with CryptoPimService() as service:
                fwd = await service.submit(request_for(
                    RequestKind.NTT_FORWARD, n=512, payload=a))
                assert np.array_equal(fwd.value, engine.forward(a))
                inv = await service.submit(request_for(
                    RequestKind.NTT_INVERSE, n=512, payload=fwd.value))
                assert np.array_equal(inv.value, a)

        serve(scenario())

    def test_kyber_encaps_decaps_roundtrip(self):
        async def scenario():
            async with CryptoPimService() as service:
                encaps = await service.submit(request_for(
                    RequestKind.KYBER_ENCAPS, n=256))
                assert encaps.ok
                ciphertext, shared_key = encaps.value
                decaps = await service.submit(request_for(
                    RequestKind.KYBER_DECAPS, n=256, payload=ciphertext))
                assert decaps.value == shared_key

        serve(scenario())

    def test_bgv_eval_ops(self, rng):
        async def scenario():
            async with CryptoPimService() as service:
                scheme, sk = service.bgv(2048)
                m1 = rng.integers(0, scheme.t, 2048)
                m2 = rng.integers(0, scheme.t, 2048)
                x, y = scheme.encrypt(sk, m1), scheme.encrypt(sk, m2)
                added = await service.submit(request_for(
                    RequestKind.BGV_ADD, n=2048, payload=(x, y)))
                assert np.array_equal(scheme.decrypt(sk, added.value),
                                      (m1 + m2) % scheme.t)
                product = await service.submit(request_for(
                    RequestKind.BGV_MULTIPLY, n=2048, payload=(x, y)))
                expected = scheme.decrypt(sk, scheme.multiply(x, y))
                assert np.array_equal(scheme.decrypt(sk, product.value),
                                      expected)

        serve(scenario())

    @pytest.mark.parametrize("wide_first", [True, False])
    def test_mixed_degree_he_window_charges_each_member(self, wide_first):
        """A 3-part x 2-part tensor (6 products) and a 2 x 2 one (4) in one
        window are charged 10 chip multiplications in either arrival
        order, and each member completes with its own last product."""
        async def scenario():
            rng = np.random.default_rng(0x3A2)
            config = ServiceConfig(max_batch_wait_s=0.5)
            async with CryptoPimService(config) as service:
                scheme, sk = service.bgv(1024)
                x, y = (scheme.encrypt(sk, rng.integers(0, scheme.t, 1024))
                        for _ in range(2))
                wide = scheme.multiply(x, y)
                assert len(wide.parts) == 3
                pairs = [(wide, y), (x, y)]
                if not wide_first:
                    pairs.reverse()
                results = await asyncio.gather(*(
                    service.submit(request_for(
                        RequestKind.BGV_MULTIPLY, n=1024, payload=pair))
                    for pair in pairs))
                timeline = service.fleet.shards[0].timeline
            assert [r.batch_size for r in results] == [2, 2]
            assert timeline.batches == 1 and timeline.items == 10
            config_n = timeline.chip.configure(1024)
            cycles = chip_completion_cycles(config_n, 10)
            ends = [6, 10] if wide_first else [4, 10]
            assert [r.completion_cycle for r in results] == \
                [cycles[end - 1] for end in ends]
            for result, (a, b) in zip(results, pairs):
                assert np.array_equal(
                    scheme.decrypt(sk, result.value),
                    scheme.decrypt(sk, scheme.multiply(a, b)))

        serve(scenario())

    def test_requests_batch_together(self, rng):
        async def scenario():
            config = ServiceConfig(max_batch_wait_s=0.05)
            async with CryptoPimService(config) as service:
                results = await asyncio.gather(*(
                    service.submit(request_for(payload=polymul_payload(rng)))
                    for _ in range(16)))
            # the window should have merged concurrent submissions
            assert max(r.batch_size for r in results) > 1
            assert service.metrics.counter("batches_dispatched").value < 16

        serve(scenario())

    def test_chip_shared_across_parameter_sets(self, rng):
        async def scenario():
            async with CryptoPimService() as service:
                small = service.submit(request_for(
                    payload=polymul_payload(rng, 256), n=256))
                big = service.submit(request_for(
                    payload=polymul_payload(rng, 1024), n=1024))
                results = await asyncio.gather(small, big)
            assert all(r.ok for r in results)
            # both degrees ran on ONE chip timeline: a reconfiguration
            # was charged when the degree switched
            assert service.fleet.shards[0].timeline.reconfigurations >= 1
            return service

        serve(scenario())


class TestServiceAdmission:
    def test_invalid_payload_rejected_typed(self):
        async def scenario():
            async with CryptoPimService() as service:
                response = await service.submit(request_for(payload=None))
                assert isinstance(response, Rejection)
                assert response.reason == RejectReason.INVALID

        serve(scenario())

    def test_poisoned_operand_rejected_alone(self, rng):
        """Non-integer operands among 16 POLYMUL requests that share a
        window are refused at admission, not cast (floats truncated,
        negatives wrapped, digit strings parsed); the other 12 ride one
        batch and only they are charged to the chip."""
        poisons = {
            7: ["x"] * 256,
            2: [1.5] * 256,
            11: np.full(256, -1),
            13: ["7"] * 256,
        }

        async def scenario():
            pairs = [polymul_payload(rng) for _ in range(16)]
            for i, poison in poisons.items():
                pairs[i] = (pairs[i][0], poison)
            config = ServiceConfig(max_batch_wait_s=0)
            async with CryptoPimService(config) as service:
                results = await asyncio.wait_for(asyncio.gather(*(
                    service.submit(request_for(payload=pair))
                    for pair in pairs)), timeout=10)
                ledger = service.fleet.shards[0].timeline.snapshot()
                return pairs, results, ledger

        pairs, results, ledger = serve(scenario())
        for i in poisons:
            assert results[i].reason == RejectReason.INVALID
        kept = [i for i in range(16) if i not in poisons]
        assert all(results[i].ok and results[i].batch_size == 12
                   for i in kept)
        engine = NttEngine.for_degree(256)
        for i in kept:
            assert np.array_equal(results[i].value,
                                  engine.multiply(*pairs[i]))
        assert ledger["batches"] == 1 and ledger["items"] == 12

    @pytest.mark.parametrize("payload", [
        ([1] * 256, [2] * 255),            # one operand one short
        ([1] * 256, [[2] * 256]),          # one operand 2-D
        ([1] * 256, [-3] * 256),           # negative: no uint64 coefficient
        ([1] * 256,),                      # one operand, not two
    ])
    def test_malformed_polymul_operands_rejected(self, payload):
        async def scenario():
            async with CryptoPimService() as service:
                return await service.submit(request_for(payload=payload))

        assert serve(scenario()).reason == RejectReason.INVALID

    def test_list_operands_coerced_at_admission(self, rng):
        async def scenario():
            a, b = polymul_payload(rng)
            async with CryptoPimService() as service:
                product = await service.submit(request_for(
                    payload=(a.tolist(), b.tolist())))
                forward = await service.submit(request_for(
                    RequestKind.NTT_FORWARD, payload=a.tolist()))
            return a, b, product, forward

        a, b, product, forward = serve(scenario())
        engine = NttEngine.for_degree(256)
        assert np.array_equal(product.value, engine.multiply(a, b))
        assert np.array_equal(forward.value, engine.forward(a))

    def test_failed_window_leaves_ledger_unchanged(self, rng):
        """A window whose execution raises is rejected and charges the
        chip nothing: the ledger reads as it did before the window."""
        async def scenario():
            config = ServiceConfig(max_batch_wait_s=0)
            async with CryptoPimService(config) as service:
                scheme, sk = service.bgv(1024)
                x = scheme.encrypt(sk, rng.integers(0, scheme.t, 1024))
                good = await service.submit(request_for(
                    RequestKind.BGV_MULTIPLY, n=1024, payload=(x, x)))
                before = service.fleet.shards[0].timeline.snapshot()
                # passes admission (its parts are ring elements) but it
                # carries no noise bound, so the tensor raises
                bogus = SimpleNamespace(parts=list(x.parts))
                bad = await service.submit(request_for(
                    RequestKind.BGV_MULTIPLY, n=1024, payload=(x, bogus)))
                after = service.fleet.shards[0].timeline.snapshot()
            return good, bad, before, after

        good, bad, before, after = serve(scenario())
        assert good.ok
        assert bad.reason == RejectReason.INVALID
        assert before["batches"] == 1
        for key in ("clock_cycles", "busy_cycles", "batches", "items"):
            assert after[key] == before[key], key

    def test_empty_he_operand_refused_and_queue_still_served(self, rng):
        """A ciphertext with no parts would be charged zero chip
        multiplications; it is refused at admission, and a good pair sent
        after it on the same (kind, n) queue is still served."""
        async def scenario():
            config = ServiceConfig(max_batch_wait_s=0)
            async with CryptoPimService(config) as service:
                scheme, sk = service.bgv(1024)
                x = scheme.encrypt(sk, rng.integers(0, scheme.t, 1024))
                empty = replace(x, parts=[])
                bad = await asyncio.wait_for(service.submit(request_for(
                    RequestKind.BGV_MULTIPLY, n=1024, payload=(x, empty))),
                    timeout=10)
                good = await asyncio.wait_for(service.submit(request_for(
                    RequestKind.BGV_MULTIPLY, n=1024, payload=(x, x))),
                    timeout=10)
            return bad, good

        bad, good = serve(scenario())
        assert bad.reason == RejectReason.INVALID
        assert good.ok

    @pytest.mark.parametrize("bogus", ["strings", "wrong_degree"])
    def test_non_ring_he_operand_rejected_alone(self, rng, bogus):
        """An HE operand whose parts are not ring elements of the queue's
        degree is refused at admission instead of failing the window it
        would have joined: 3 good pairs are served, 1 refused."""
        async def scenario():
            config = ServiceConfig(max_batch_wait_s=0)
            async with CryptoPimService(config) as service:
                scheme, sk = service.bgv(1024)
                xs = [scheme.encrypt(sk, rng.integers(0, scheme.t, 1024))
                      for _ in range(3)]
                if bogus == "strings":
                    bad = SimpleNamespace(parts=["not", "ring"])
                else:
                    wide, wide_sk = service.bgv(2048)
                    bad = wide.encrypt(wide_sk,
                                       rng.integers(0, wide.t, 2048))
                pairs = [(x, x) for x in xs] + [(xs[0], bad)]
                return await asyncio.wait_for(asyncio.gather(*(
                    service.submit(request_for(
                        RequestKind.BGV_MULTIPLY, n=1024, payload=pair))
                    for pair in pairs)), timeout=10)

        results = serve(scenario())
        assert [r.ok for r in results] == [True, True, True, False]
        assert results[3].reason == RejectReason.INVALID
        assert all(r.batch_size == 3 for r in results[:3])

    def test_unsupported_degree(self):
        async def scenario():
            async with CryptoPimService() as service:
                response = await service.submit(request_for(n=1000))
                assert response.reason == RejectReason.UNSUPPORTED

        serve(scenario())

    def test_kyber_pinned_to_256(self):
        async def scenario():
            async with CryptoPimService() as service:
                response = await service.submit(request_for(
                    RequestKind.KYBER_ENCAPS, n=512))
                assert response.reason == RejectReason.UNSUPPORTED

        serve(scenario())

    def test_tenant_rate_limiting(self, rng):
        async def scenario():
            config = ServiceConfig(tenant_rate=5, tenant_burst=2)
            async with CryptoPimService(config) as service:
                payload = polymul_payload(rng)
                responses = [await service.submit(request_for(
                    payload=payload, tenant="hammer")) for _ in range(6)]
            limited = [r for r in responses if not r.ok]
            assert limited
            assert {r.reason for r in limited} == {RejectReason.RATE_LIMITED}

        serve(scenario())

    def test_overload_sheds_with_bounded_queue(self, rng):
        """Acceptance: overload produces typed rejections, not queue growth."""
        async def scenario():
            config = ServiceConfig(queue_depth=8, shed_watermark=0.75,
                                   max_batch_wait_s=0.005)
            async with CryptoPimService(config) as service:
                payload = polymul_payload(rng, 1024)
                responses = await asyncio.gather(*(
                    service.submit(request_for(payload=payload, n=1024))
                    for _ in range(100)))
            return service, responses

        service, responses = serve(scenario())
        rejected = [r for r in responses if not r.ok]
        completed = [r for r in responses if r.ok]
        assert completed, "some requests must still be served"
        assert rejected, "overload must shed"
        assert {r.reason for r in rejected} <= {
            RejectReason.QUEUE_FULL, RejectReason.OVERLOAD_SHED}
        # the queue never grew beyond its bound
        depth = service.metrics.gauge("queue_depth.polymul.1024")
        assert depth.high_water <= 8
        shed_counter = service.metrics.counter(
            f"rejected.{RejectReason.OVERLOAD_SHED.value}").value
        full_counter = service.metrics.counter(
            f"rejected.{RejectReason.QUEUE_FULL.value}").value
        assert shed_counter + full_counter == len(rejected)

    def test_priority_zero_never_watermark_shed(self, rng):
        async def scenario():
            config = ServiceConfig(queue_depth=8, shed_watermark=0.5,
                                   max_batch_wait_s=0.005)
            async with CryptoPimService(config) as service:
                payload = polymul_payload(rng)
                tagged = []
                for priority in [1, 0] * 30:
                    tagged.append((priority, asyncio.create_task(
                        service.submit(request_for(payload=payload,
                                                   priority=priority)))))
                return [(p, await t) for p, t in tagged]

        # priority 0 is exempt from watermark shedding; it can only be
        # refused by a completely full queue
        for priority, response in serve(scenario()):
            if priority == 0 and not response.ok:
                assert response.reason != RejectReason.OVERLOAD_SHED

    def test_stop_rejects_queued_requests(self, rng):
        async def scenario():
            config = ServiceConfig(max_batch_wait_s=5.0, batch_capacity=512)
            service = CryptoPimService(config)
            payload = polymul_payload(rng)
            tasks = [asyncio.create_task(
                service.submit(request_for(payload=payload)))
                for _ in range(4)]
            await asyncio.sleep(0.01)  # let them enqueue into the open window
            await service.stop()
            responses = await asyncio.gather(*tasks)
            after = await service.submit(request_for(payload=payload))
            return responses, after

        responses, after = serve(scenario())
        assert after.reason == RejectReason.SHUTDOWN
        assert all(r.ok or r.reason == RejectReason.SHUTDOWN
                   for r in responses)


class TestLoadGenerator:
    def test_closed_loop_serves_everything(self):
        async def scenario():
            async with CryptoPimService() as service:
                report = await run_closed_loop(
                    service, PROFILES["polymul-256"], total_requests=24,
                    concurrency=8, seed=3)
            return report

        report = serve(scenario())
        assert report.completed == 24
        assert report.rejected == {}
        assert report.throughput_per_s > 0
        assert report.latency["p99"] >= report.latency["p50"] > 0
        assert report.mean_batch_size >= 1

    def test_open_loop_poisson(self):
        async def scenario():
            async with CryptoPimService() as service:
                report = await run_open_loop(
                    service, PROFILES["polymul-256"], rate_per_s=2000,
                    total_requests=40, seed=3)
            return report

        report = serve(scenario())
        assert report.completed + sum(report.rejected.values()) == 40
        assert report.mode == "open"

    def test_mixed_profile(self):
        async def scenario():
            async with CryptoPimService() as service:
                report = await run_closed_loop(
                    service, PROFILES["mixed-pk"], total_requests=30,
                    concurrency=6, seed=5, per_spec=4)
            return report

        report = serve(scenario())
        assert report.completed == 30

    def test_profile_pick_respects_weights(self):
        profile = WorkloadProfile("only", (
            TrafficSpec(RequestKind.POLYMUL, 256, weight=1.0),
            TrafficSpec(RequestKind.NTT_FORWARD, 256, weight=0.0),
        ))
        rng = np.random.default_rng(0)
        picks = {profile.pick(rng).kind for _ in range(32)}
        assert picks == {RequestKind.POLYMUL}


def batching_ledger(batch_capacity):
    """Chip ledger after 160 ``polymul-1024`` requests from 64 closed-loop
    clients; ``max_batch_wait_s=0`` closes windows on what is queued."""
    async def scenario():
        config = ServiceConfig(batch_capacity=batch_capacity,
                               max_batch_wait_s=0)
        async with CryptoPimService(config) as service:
            report = await run_closed_loop(
                service, PROFILES["polymul-1024"], total_requests=160,
                concurrency=64, seed=0)
            return (report.completed, service.fleet.capacity_for(1024),
                    service.fleet.shards[0].timeline.snapshot())

    return serve(scenario())


class TestBatchingSimulatedCycles:
    def test_batched_windows_beat_serve_one_in_chip_cycles(self):
        """Full superbank windows cost the chip what one product does, so
        batching saves cycles in proportion to the window."""
        completed, _, serial = batching_ledger(1)
        assert completed == 160 and serial["batches"] == 160
        completed, capacity, batched = batching_ledger(None)
        assert completed == 160
        assert batched["batches"] == -(-160 // capacity)
        assert serial["clock_cycles"] >= 4 * batched["clock_cycles"]

    @pytest.mark.parametrize("batch_capacity", [1, None])
    def test_rerun_reads_identical_cycles(self, batch_capacity):
        assert batching_ledger(batch_capacity) == \
            batching_ledger(batch_capacity)


class TestServiceReporting:
    def test_summary_shape(self, rng):
        async def scenario():
            async with CryptoPimService() as service:
                await service.submit(request_for(payload=polymul_payload(rng)))
                return service.summary(), service.render_summary()

        summary, text = serve(scenario())
        assert summary["metrics"]["counters"]["requests_completed"] == 1
        assert summary["fleet"]["shards"][0]["batches"] == 1
        assert "serving metrics" in text
        assert "fleet: 1/1 chips" in text
