"""Tests for repro.serve.fleet: sharded multi-chip dispatch, routing
policies, drain/failover, and the fleet-enabled service."""

import asyncio
import functools

import numpy as np
import pytest

from repro.arch.chip import CryptoPimChip
from repro.core.scheduler import RECONFIGURATION_CYCLES
from repro.ntt.transform import NttEngine
from repro.serve import (
    PROFILES,
    ChipFleet,
    CryptoPimService,
    FleetDrained,
    RequestKind,
    ServeRequest,
    ServiceConfig,
    run_closed_loop,
)


def serve(coro):
    return asyncio.run(coro)


def polymul_payload(rng, n=256):
    q = NttEngine.for_degree(n).q
    return (rng.integers(0, q, n).astype(np.uint64),
            rng.integers(0, q, n).astype(np.uint64))


@pytest.fixture
def rng():
    return np.random.default_rng(0xF1EE7)


# ---------------------------------------------------------------------------
# construction & validation
# ---------------------------------------------------------------------------

class TestFleetConstruction:
    def test_validates_size_and_policy(self):
        with pytest.raises(ValueError):
            ChipFleet(num_chips=0)
        with pytest.raises(ValueError):
            ChipFleet(num_chips=2, policy="random")

    def test_replicates_template_chip(self):
        template = CryptoPimChip(total_banks=64)
        fleet = ChipFleet(num_chips=3, chip=template)
        assert len(fleet) == 3
        assert all(s.timeline.chip.total_banks == 64
                   for s in fleet.shards)
        # replicas are independent objects, not one shared chip
        chips = {id(s.timeline.chip) for s in fleet.shards}
        assert len(chips) == 3

    def test_chip_replicate_validates(self):
        with pytest.raises(ValueError):
            CryptoPimChip().replicate(0)

    def test_single_chip_is_a_fleet_of_one(self):
        fleet = ChipFleet(num_chips=1)
        assert len(fleet.shards) == 1
        assert fleet.capacity_for(256) == fleet.shards[0].timeline.chip \
            .configure(256).superbanks


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

class TestRouting:
    def test_affinity_prefers_configured_shard(self):
        fleet = ChipFleet(num_chips=4)
        fleet.shards[2].timeline.dispatch(1024, 1)
        assert fleet.route(1024) is fleet.shards[2]
        assert fleet.counters["routed.affinity"] == 1

    def test_fresh_shard_claimed_before_reconfiguring_one(self):
        fleet = ChipFleet(num_chips=3)
        fleet.shards[0].timeline.dispatch(1024, 1)
        # 256 has no affinity shard; an unconfigured shard must be chosen
        # (first configuration costs nothing; rewiring shard 0 would)
        pick = fleet.route(256)
        assert pick.configured_n is None
        assert fleet.counters["routed.fresh"] == 1

    def test_two_choices_prefers_less_loaded(self):
        fleet = ChipFleet(num_chips=2)
        fleet.shards[0].timeline.dispatch(256, 1)
        for _ in range(4):  # genuinely heavier virtual clock on shard 1
            fleet.shards[1].timeline.dispatch(256, 64)
        # both have 256 affinity; every probe pair contains both shards,
        # so the lighter one wins deterministically
        picks = [fleet.route(256).index for _ in range(16)]
        assert picks.count(0) == 16

    def test_spill_recruits_second_shard_under_imbalance(self):
        fleet = ChipFleet(num_chips=2, spill_margin_cycles=0)
        light = fleet.shards[1]
        heavy = fleet.shards[0]
        heavy.timeline.dispatch(1024, 1)
        # pile work on the affinity shard until waiting beats rewiring
        span = heavy.timeline.span_estimate(1024)
        while heavy.load_cycles() <= light.load_cycles() + 2 * span:
            heavy.timeline.dispatch(1024, 64)
        pick = fleet.route(1024)
        assert pick is light
        assert fleet.counters["routed.spill"] == 1

    def test_round_robin_cycles_healthy_shards(self):
        fleet = ChipFleet(num_chips=3, policy="round_robin")
        fleet.mark_unhealthy(1)
        picks = [fleet.route(256).index for _ in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_unhealthy_shard_never_routed(self):
        fleet = ChipFleet(num_chips=2)
        fleet.shards[0].timeline.dispatch(256, 1)
        fleet.mark_unhealthy(0)
        for _ in range(8):
            assert fleet.route(256).index == 1

    def test_all_unhealthy_raises(self):
        fleet = ChipFleet(num_chips=2)
        fleet.mark_unhealthy(0)
        fleet.mark_unhealthy(1)
        with pytest.raises(FleetDrained):
            fleet.route(256)
        fleet.mark_healthy(0)
        assert fleet.route(256).index == 0

    def test_round_robin_all_unhealthy_raises(self):
        fleet = ChipFleet(num_chips=2, policy="round_robin")
        fleet.mark_unhealthy(0)
        fleet.mark_unhealthy(1)
        with pytest.raises(FleetDrained):
            fleet.route(256)


# ---------------------------------------------------------------------------
# leases & drain/failover
# ---------------------------------------------------------------------------

class TestLease:
    def test_lease_dispatches_on_routed_shard(self):
        async def scenario():
            fleet = ChipFleet(num_chips=2)
            async with fleet.lease(256) as shard:
                shard.timeline.dispatch(256, 4)
                return shard.index

        index = serve(scenario())
        assert index in (0, 1)

    def test_waiting_lease_reroutes_when_shard_drained(self):
        """A lease queued on a shard's lock re-routes to a sibling when
        the shard is marked unhealthy mid-wait: the window is never
        dispatched onto a drained chip and never lost."""
        async def scenario():
            fleet = ChipFleet(num_chips=2)
            # pin all 256-affinity onto shard 0
            fleet.shards[0].timeline.dispatch(256, 1)
            entered = asyncio.Event()
            release = asyncio.Event()

            async def holder():
                async with fleet.lease(256) as shard:
                    assert shard.index == 0
                    entered.set()
                    await release.wait()

            async def waiter():
                async with fleet.lease(256) as shard:
                    shard.timeline.dispatch(256, 2)
                    return shard.index

            hold = asyncio.create_task(holder())
            await entered.wait()
            wait = asyncio.create_task(waiter())
            await asyncio.sleep(0.005)  # the waiter queues on shard 0's lock
            fleet.mark_unhealthy(0)
            release.set()
            index = await wait
            await hold
            return index, fleet.counters["rerouted.unhealthy"]

        index, rerouted = serve(scenario())
        assert index == 1
        assert rerouted == 1

    def test_inflight_work_completes_on_drained_shard(self):
        async def scenario():
            fleet = ChipFleet(num_chips=2)
            async with fleet.lease(256) as shard:
                fleet.mark_unhealthy(shard.index)
                # already holding the lock: the batch completes normally
                timing = shard.timeline.dispatch(256, 4)
                return timing.count

        assert serve(scenario()) == 4

    def test_lease_releases_on_exception(self):
        async def scenario():
            fleet = ChipFleet(num_chips=1)
            with pytest.raises(RuntimeError):
                async with fleet.lease(256):
                    raise RuntimeError("boom")
            # lock must be free again
            async with fleet.lease(256) as shard:
                return shard.pending_leases

        assert serve(scenario()) == 1  # only the live lease is pending


# ---------------------------------------------------------------------------
# snapshot / aggregation
# ---------------------------------------------------------------------------

class TestFleetSnapshot:
    def test_aggregates_and_skew(self):
        fleet = ChipFleet(num_chips=2)
        fleet.shards[0].timeline.dispatch(256, 8)
        fleet.shards[0].timeline.dispatch(1024, 8)  # one reconfig
        fleet.shards[1].timeline.dispatch(2048, 8)
        snap = fleet.snapshot()
        t0 = fleet.shards[0].timeline
        t1 = fleet.shards[1].timeline
        assert snap["makespan_cycles"] == max(t0.clock_cycles, t1.clock_cycles)
        assert snap["busy_cycles"] == t0.busy_cycles + t1.busy_cycles
        assert snap["reconfig_cycles"] == RECONFIGURATION_CYCLES
        assert snap["batches"] == 3
        assert snap["reconfigurations_per_batch"] == pytest.approx(1 / 3)
        assert 0.0 <= snap["clock_skew"] <= 1.0
        assert snap["utilization"] == pytest.approx(
            snap["busy_cycles"] / (2 * snap["makespan_cycles"]))
        assert len(snap["shards"]) == 2
        assert snap["shards"][0]["healthy"]

    def test_render_mentions_drained_chips(self):
        fleet = ChipFleet(num_chips=2)
        fleet.shards[0].timeline.dispatch(256, 2)
        fleet.mark_unhealthy(1)
        text = fleet.render()
        assert "1/2 chips healthy" in text
        assert "DRAINED" in text


# ---------------------------------------------------------------------------
# service integration
# ---------------------------------------------------------------------------

class TestFleetService:
    def test_multi_chip_service_is_correct_and_spreads_load(self, rng):
        async def scenario():
            engine = NttEngine.for_degree(256)
            config = ServiceConfig(num_chips=3, batch_capacity=4,
                                   max_batch_wait_s=0.002)
            pairs = [polymul_payload(rng) for _ in range(24)]
            async with CryptoPimService(config) as service:
                results = await asyncio.gather(*(
                    service.submit(ServeRequest(
                        kind=RequestKind.POLYMUL, n=256, payload=pair))
                    for pair in pairs))
                snap = service.fleet.snapshot()
            for pair, result in zip(pairs, results):
                assert result.ok
                assert np.array_equal(result.value, engine.multiply(*pair))
                assert 0 <= result.chip < 3
            return snap

        snap = serve(scenario())
        assert snap["num_chips"] == 3
        assert snap["items"] == 24

    def test_mixed_degrees_fan_out_across_chips(self, rng):
        async def scenario():
            config = ServiceConfig(num_chips=2, max_batch_wait_s=0.002)
            async with CryptoPimService(config) as service:
                results = await asyncio.gather(*(
                    [service.submit(ServeRequest(
                        kind=RequestKind.POLYMUL, n=256,
                        payload=polymul_payload(rng, 256)))
                     for _ in range(8)]
                    + [service.submit(ServeRequest(
                        kind=RequestKind.POLYMUL, n=1024,
                        payload=polymul_payload(rng, 1024)))
                       for _ in range(8)]))
                snap = service.fleet.snapshot()
            assert all(r.ok for r in results)
            return snap, {r.chip for r in results}

        snap, chips = serve(scenario())
        # with two degrees and two chips, affinity routing uses both
        assert chips == {0, 1}
        # and neither degree ping-pongs: fewer reconfigs than batches
        assert snap["reconfigurations"] <= snap["batches"] // 2

    def test_drain_mid_run_loses_and_duplicates_nothing(self, rng):
        """Acceptance: a chip marked unhealthy mid-run - every request
        still completes exactly once, none land on the drained chip
        afterwards."""
        async def scenario():
            config = ServiceConfig(num_chips=2, batch_capacity=4,
                                   max_batch_wait_s=0.005)
            async with CryptoPimService(config) as service:
                first = [asyncio.create_task(service.submit(ServeRequest(
                    kind=RequestKind.POLYMUL, n=256,
                    payload=polymul_payload(rng),
                    request_id=1000 + i))) for i in range(12)]
                await asyncio.sleep(0.001)
                service.fleet.mark_unhealthy(0)
                second = [asyncio.create_task(service.submit(ServeRequest(
                    kind=RequestKind.POLYMUL, n=256,
                    payload=polymul_payload(rng),
                    request_id=2000 + i))) for i in range(12)]
                responses = await asyncio.gather(*(first + second))
            return responses

        responses = serve(scenario())
        assert all(r.ok for r in responses), "zero lost requests"
        ids = [r.request_id for r in responses]
        assert len(ids) == len(set(ids)) == 24, "zero double-executions"
        # requests submitted after the drain all ran on the healthy chip
        late = [r for r in responses if r.request_id >= 2000]
        assert {r.chip for r in late} == {1}

    def test_all_chips_drained_rejects_typed(self, rng):
        async def scenario():
            config = ServiceConfig(num_chips=2, max_batch_wait_s=0.001)
            async with CryptoPimService(config) as service:
                service.fleet.mark_unhealthy(0)
                service.fleet.mark_unhealthy(1)
                response = await service.submit(ServeRequest(
                    kind=RequestKind.POLYMUL, n=256,
                    payload=polymul_payload(rng)))
            return response

        response = serve(scenario())
        assert not response.ok
        assert "drained" in response.detail

    def test_closed_loop_on_fleet_profile(self):
        async def scenario():
            config = ServiceConfig(num_chips=2, max_batch_wait_s=0.002)
            async with CryptoPimService(config) as service:
                report = await run_closed_loop(
                    service, PROFILES["mixed-kyber-he"], total_requests=30,
                    concurrency=10, seed=7, per_spec=4)
                summary = service.summary()
            return report, summary

        report, summary = serve(scenario())
        assert report.completed == 30
        assert summary["fleet"]["num_chips"] == 2
        assert summary["fleet"]["items"] > 0
        # per-shard invariant holds fleet-wide
        for shard in summary["fleet"]["shards"]:
            assert (shard["busy_cycles"] + shard["reconfig_cycles"]
                    + shard["idle_cycles"]) == shard["clock_cycles"]

    def test_default_config_is_single_chip_compatible(self, rng):
        async def scenario():
            async with CryptoPimService() as service:
                result = await service.submit(ServeRequest(
                    kind=RequestKind.POLYMUL, n=256,
                    payload=polymul_payload(rng)))
                return result, service.fleet.num_chips

        result, chips = serve(scenario())
        assert result.ok and result.chip == 0
        assert chips == 1


# ---------------------------------------------------------------------------
# simulated fleet scaling (chip cycles, no wall clock)
# ---------------------------------------------------------------------------

#: seeds the scaling gates run on; seeds 0-9 all read 3.09-3.58x at four
#: chips and 0.19-0.38 (affinity) against 0.47-0.63 (round-robin)
#: reconfigurations per batch
SCALING_SEEDS = (0, 1, 2)


@functools.lru_cache(maxsize=None)
def fleet_ledger(num_chips, routing, seed):
    """Fleet snapshot after 480 ``mixed-kyber-he`` requests from 96
    closed-loop clients.  ``max_batch_wait_s=0`` closes every window on
    what is already queued, so no wall clock decides a batch and the
    cycle ledger is a pure function of the arguments."""
    async def scenario():
        config = ServiceConfig(num_chips=num_chips, routing=routing,
                               max_batch_wait_s=0)
        async with CryptoPimService(config) as service:
            report = await run_closed_loop(
                service, PROFILES["mixed-kyber-he"], total_requests=480,
                concurrency=96, seed=seed, per_spec=8)
            return report.completed, service.fleet.snapshot()

    completed, snapshot = serve(scenario())
    assert completed == 480
    return snapshot


class TestFleetSimulatedScaling:
    @pytest.mark.parametrize("seed", SCALING_SEEDS)
    def test_four_chips_cut_makespan_at_least_3x(self, seed):
        one = fleet_ledger(1, "affinity", seed)
        four = fleet_ledger(4, "affinity", seed)
        assert one["items"] == four["items"]
        assert one["makespan_cycles"] >= 3 * four["makespan_cycles"]

    @pytest.mark.parametrize("seed", SCALING_SEEDS)
    def test_affinity_reconfigures_less_than_round_robin(self, seed):
        affinity = fleet_ledger(4, "affinity", seed)
        round_robin = fleet_ledger(4, "round_robin", seed)
        assert (affinity["reconfigurations_per_batch"]
                < round_robin["reconfigurations_per_batch"])

    @pytest.mark.parametrize("routing", ["affinity", "round_robin"])
    def test_rerun_reads_identical_cycles(self, routing):
        first = fleet_ledger(4, routing, SCALING_SEEDS[0])
        again = fleet_ledger.__wrapped__(4, routing, SCALING_SEEDS[0])
        assert again == first
