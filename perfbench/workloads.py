"""The benchmark's two workloads.

Why each workload exists, and which layer it stresses, is written up in
``perfbench/README.md``.  Each workload has the same life cycle:

* ``await setup()`` - construction, key generation, payload generation
  and a warm-up pass that fills every lazily built cache.  All of it is
  derived from the seed and none of it is inside the timed region;
* ``await measure(seconds)`` - runs the timed region for about
  ``seconds`` and checks a seeded sample of outputs against the oracles
  in :mod:`payloads`.  An untraced workload returns the end-to-end
  figures.  A traced one (``trace=True``) turns on the service's
  ``repro.obs`` tracing, installs the outside-in layer timers of
  :mod:`layers` around the timed region, and returns the per-layer
  figures instead;
* ``await close()`` - stops every service it started.
"""

from __future__ import annotations

import asyncio
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.accelerator import CryptoPIM
from repro.ntt.naive import schoolbook_negacyclic_np
from repro.serve import PROFILES, CryptoPimService, ServiceConfig

from calibrate import HostSpeed
from layers import (LayerClock, completion_law, fleet_metrics,
                    layer_metrics, serve_metrics)
from payloads import Payloads

#: share of requests whose output is checked against an oracle
CHECK_SHARE = 0.25
#: traces the layer-timing journal retains, so stage p99s cover every
#: request of the rounds it times
TRACE_CAPACITY = 1 << 16


@dataclass
class Outcome:
    """What one measured run reports."""

    attempted: int = 0
    failed: int = 0
    #: end-to-end figures (untraced run) or per-layer figures (traced run)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: counts that two runs of the same code must reproduce exactly
    exact: Dict[str, Any] = field(default_factory=dict)
    #: whether ``exact`` depends on the seed (else on the code alone)
    exact_per_seed: bool = True
    #: context for the report line (sample counts, flags)
    notes: Dict[str, Any] = field(default_factory=dict)
    #: why the run fails although its outputs were right: counts that
    #: did not repeat
    error: Optional[str] = None


#: the percentile reported as ``latency_tail_ms``.  Not p99: offline
#: makes too few calls for it, and in the closed loop the slowest
#: percent of a round is one wave of requests submitted together, so
#: the p99 reads a single moment of the host
TAIL_PERCENTILE = 90


def _latency(samples: Any) -> Dict[str, float]:
    return {"latency_mean_ms": float(np.mean(samples)) * 1e3,
            "latency_tail_ms":
                float(np.percentile(samples, TAIL_PERCENTILE)) * 1e3}


# -- offline-polymul-4096 -------------------------------------------------------


class OfflinePolymul:
    """``CryptoPIM.multiply_batch`` on 64 pairs at n=4096, no service."""

    N, Q, BATCH = 4096, 786433, 64
    #: distinct seeded batches cycled through the timed loop
    DISTINCT = 4
    #: calls per round; the host's speed is sampled between rounds
    ROUND_CALLS = 2 * DISTINCT
    #: rows of each batch checked against the schoolbook oracle
    ROWS_CHECKED = 2

    def __init__(self, seed: int, trace: bool = False):
        self.seed = seed
        self.trace = trace

    async def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.acc = CryptoPIM.for_degree(self.N)
        if self.acc.q != self.Q:
            raise RuntimeError(f"n={self.N} maps to q={self.acc.q}, "
                               f"expected {self.Q}")
        self.batches = []
        for _ in range(self.DISTINCT):
            a = rng.integers(0, self.Q, (self.BATCH, self.N), dtype=np.uint64)
            b = rng.integers(0, self.Q, (self.BATCH, self.N), dtype=np.uint64)
            rows = rng.choice(self.BATCH, self.ROWS_CHECKED, replace=False)
            self.batches.append((list(zip(a, b)), [int(r) for r in rows]))
        self.acc.multiply_batch(self.batches[0][0])

    async def measure(self, seconds: float) -> Outcome:
        clock = LayerClock() if self.trace else None
        # the traced run reports raw times, so it takes no speed samples
        speed = None if self.trace else HostSpeed()
        latencies: List[float] = []
        #: per round of calls: (calls, wall seconds, host slowdown)
        rounds: List[Tuple[int, float, float]] = []
        # the checked rows of each batch's first call; every later call
        # must repeat them, so memory does not grow with the call count
        first: Dict[int, List[np.ndarray]] = {}
        differ = 0
        law = set()
        with clock or nullcontext():
            began = perf_counter()
            deadline = began + seconds
            while perf_counter() < deadline:
                round_began = perf_counter()
                for _ in range(self.ROUND_CALLS):
                    index = len(latencies) % self.DISTINCT
                    pairs, rows = self.batches[index]
                    t0 = perf_counter()
                    result = self.acc.multiply_batch(pairs)
                    latencies.append(perf_counter() - t0)
                    got = [result.results[r] for r in rows]
                    if index not in first:
                        first[index] = [row.copy() for row in got]
                    elif not all(map(np.array_equal, got, first[index])):
                        differ += 1
                    law.add(result.completion_cycles[-1])
                took = perf_counter() - round_began
                rounds.append((self.ROUND_CALLS, took,
                               speed.bracket() if speed else 1.0))
            wall = perf_counter() - began

        calls = len(latencies)
        wrong = [index for index, (pairs, rows) in enumerate(self.batches)
                 if index in first and not all(
                     np.array_equal(got, schoolbook_negacyclic_np(
                         *pairs[r], self.Q))
                     for got, r in zip(first[index], rows))]
        # a wrong first call condemns every call of that batch
        out = Outcome(attempted=calls, exact_per_seed=False)
        out.failed = differ + sum(
            1 for call in range(calls) if call % self.DISTINCT in wrong)
        cycles = completion_law(self.N, self.BATCH)
        out.exact = dict(cycles, n=self.N, count=self.BATCH)
        if law != {cycles["core.sim_batch_cycles"]}:
            out.error = (f"multiply_batch reported last completion cycles "
                         f"{sorted(law)} for identical batches")
        out.notes = {"latency_samples": calls, "rounds": len(rounds),
                     "tail_percentile": TAIL_PERCENTILE}
        if clock is None:
            factors = np.repeat([f for _, _, f in rounds],
                                [c for c, _, _ in rounds])
            rates = [c / w * f for c, w, f in rounds]
            throughput = statistics.median(rates)
            out.metrics = dict(
                _latency(np.asarray(latencies) / factors),
                throughput_rps=throughput,
                items_per_s=throughput * self.BATCH)
            out.notes["raw"] = dict(
                _latency(latencies),
                throughput_rps=statistics.median(c / w for c, w, _ in rounds))
            out.notes["slowdown"] = speed.samples
        else:
            out.metrics = dict(layer_metrics(clock, wall, calls), **cycles)
            out.metrics["loadgen.failed_frac"] = out.failed / calls
        return out

    async def close(self) -> None:
        pass


# -- closed-pk-256 ---------------------------------------------------------------


@dataclass
class _Round:
    wall_s: float
    batches: int
    items: int
    rejected: int
    failed: int
    #: mean and p99 latency of the round
    latency: Dict[str, float]


class ClosedLoop:
    """64 coroutine clients replaying one seeded mixed-pk request list."""

    PROFILE = "mixed-pk"
    CLIENTS = 64
    #: requests per round.  Every round replays the same list, so the
    #: latency tail depends on the list's order; a long list averages
    #: that out across seeds (see README.md)
    ROUND = 4096
    #: requests per tracing-overhead round
    SHORT = 1024
    #: 64 waiting clients keep every queue backlogged, so windows close
    #: on capacity or on an empty queue.  A deadline would only let host
    #: speed decide how some windows close, and the batch counts must
    #: repeat exactly from run to run.
    BATCH_WAIT_S = 0.0
    #: (n, count) at which the two completion-cycle laws are compared:
    #: the ROADMAP's 100 products at n=256
    LAW = (256, 100)

    def __init__(self, seed: int, trace: bool = False):
        self.seed = seed
        self.trace = trace
        self._started: List[CryptoPimService] = []

    def _service(self, **config: Any) -> Tuple[CryptoPimService, Payloads]:
        service = CryptoPimService(ServiceConfig(
            seed=self.seed, max_batch_wait_s=self.BATCH_WAIT_S, **config))
        self._started.append(service)
        payloads = Payloads(service, PROFILES[self.PROFILE].specs,
                            np.random.default_rng(self.seed))
        return service, payloads

    @staticmethod
    def _counters(service: CryptoPimService) -> Tuple[int, int]:
        """(batches dispatched, multiplication equivalents charged)."""
        snap = service.fleet.snapshot()
        return snap["batches"], snap["items"]

    async def close(self) -> None:
        for service in self._started:
            await service.stop()

    async def setup(self) -> None:
        self.service, self.payloads = self._service()
        self.picks = self.payloads.requests(self.ROUND)
        self.checked = (np.random.default_rng([self.seed, 1])
                        .random(self.ROUND) < CHECK_SHARE)
        await self._warm(self.service, self.payloads)
        if self.trace:
            # tracing as configured by default, for the overhead
            self.traced = self._service(tracing=True)
            await self._warm(*self.traced)
            # a journal that keeps every trace of the layer rounds
            self.layered = self._service(tracing=True,
                                         trace_capacity=TRACE_CAPACITY)
            await self._warm(*self.layered)

    async def _warm(self, service: CryptoPimService,
                    payloads: Payloads) -> None:
        """Send every payload once.  That fills every cache the program
        builds lazily (per-degree plans, twiddles, keys) with a fixed
        amount of work, so set-up time does not scale with host speed."""
        picks = [(i, j) for i, pool in enumerate(payloads.pools)
                 for j in range(len(pool))]
        if (await self._round(service, payloads, picks)).failed:
            raise RuntimeError("a warm-up request failed")

    async def _round(self, service: CryptoPimService, payloads: Payloads,
                     picks: List[Tuple[int, int]],
                     clock: Optional[LayerClock] = None) -> _Round:
        """Send the requests ``picks`` names from ``CLIENTS`` clients."""
        requests = [payloads.request(pick) for pick in picks]
        responses: List[Any] = [None] * len(requests)
        cursor = iter(enumerate(requests))
        latencies: List[float] = []

        async def client() -> None:
            for i, request in cursor:
                t0 = perf_counter()
                responses[i] = await service.submit(request)
                latencies.append(perf_counter() - t0)

        batches, items = self._counters(service)
        with clock or nullcontext():
            began = perf_counter()
            await asyncio.gather(*(client() for _ in range(self.CLIENTS)))
            wall = perf_counter() - began
        after = self._counters(service)
        failed = sum(
            payloads.wrong(request, response) if check else int(not response.ok)
            for request, response, check
            in zip(requests, responses, self.checked))
        return _Round(wall, after[0] - batches, after[1] - items,
                      sum(not r.ok for r in responses), failed,
                      _latency(latencies))

    async def measure(self, seconds: float) -> Outcome:
        if self.trace:
            return await self._measure_traced(seconds)
        speed = HostSpeed()
        rounds: List[_Round] = []
        factors: List[float] = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            rounds.append(await self._round(self.service, self.payloads,
                                            self.picks))
            factors.append(speed.bracket())
        out = self._outcome(rounds)

        def figures(r: _Round, f: float) -> Dict[str, float]:
            return {"throughput_rps": self.ROUND / r.wall_s * f,
                    "items_per_s": r.items / r.wall_s * f,
                    "latency_mean_ms": r.latency["latency_mean_ms"] / f,
                    "latency_tail_ms": r.latency["latency_tail_ms"] / f}

        # medians over rounds: a host stall inflates one round, not the run
        def medians(per_round: List[Dict[str, float]]) -> Dict[str, float]:
            return {name: statistics.median(m[name] for m in per_round)
                    for name in per_round[0]}

        out.metrics = medians([figures(r, f) for r, f in zip(rounds, factors)])
        out.notes["raw"] = medians([figures(r, 1.0) for r in rounds])
        out.notes["slowdown"] = speed.samples
        return out

    def _outcome(self, rounds: List[_Round]) -> Outcome:
        out = Outcome(attempted=self.ROUND * len(rounds),
                      failed=sum(r.failed for r in rounds))
        batches = sorted({r.batches for r in rounds})
        out.exact = {"batches_per_round": batches[0],
                     "batch_size_mean": self.ROUND / batches[0]}
        if len(batches) != 1:
            out.error = (f"one replayed request list dispatched {batches} "
                         "batches in different rounds")
        out.notes = {"latency_samples": self.ROUND * len(rounds),
                     "tail_percentile": TAIL_PERCENTILE,
                     "rounds": len(rounds)}
        return out

    async def _measure_traced(self, seconds: float) -> Outcome:
        """The first half alternates untraced and ``repro.obs``-traced
        rounds, which gives the tracing overhead.  The second half times
        the layers on a traced service of its own, whose journal holds
        only the warm-up and these rounds."""
        rates: Dict[bool, List[float]] = {False: [], True: []}
        overhead_failed = 0
        order = [(False, self.service, self.payloads), (True, *self.traced)]
        end = perf_counter() + seconds
        deadline = perf_counter() + seconds / 2
        while not rates[False] or perf_counter() < deadline:
            for traced, target, target_payloads in order:
                r = await self._round(target, target_payloads,
                                      self.picks[:self.SHORT])
                rates[traced].append(self.SHORT / r.wall_s)
                overhead_failed += r.failed
            order.reverse()

        service, payloads = self.layered
        journal = service.journal
        clock = LayerClock()
        since = asyncio.get_running_loop().time()
        rounds: List[_Round] = []
        # serve_metrics needs every trace of these rounds, so they stop
        # before the journal would drop one, however fast the host is
        while not rounds or (
                perf_counter() < end
                and journal.completed + self.ROUND <= journal.capacity):
            rounds.append(await self._round(service, payloads, self.picks,
                                            clock))
        out = self._outcome(rounds)
        batches = sum(r.batches for r in rounds)
        out.metrics = dict(
            layer_metrics(clock, sum(r.wall_s for r in rounds), batches),
            **serve_metrics(journal, since),
            **fleet_metrics(service),
            **completion_law(*self.LAW))
        out.metrics.update({
            "serve.batch_size_mean": out.attempted / batches,
            "serve.batches": 1e3 * batches / out.attempted,
            "serve.rejected_frac": (sum(r.rejected for r in rounds)
                                    / out.attempted),
            "obs.tracing_overhead_frac": 1 - (statistics.median(rates[True])
                                              / statistics.median(rates[False])),
        })
        out.notes["layer_rounds"] = len(rounds)
        out.notes["overhead_rounds"] = len(rates[False]) + len(rates[True])
        # the overhead rounds' outputs are checked too
        out.attempted += self.SHORT * out.notes["overhead_rounds"]
        out.failed += overhead_failed
        out.metrics["loadgen.failed_frac"] = out.failed / out.attempted
        return out


WORKLOADS = {
    "offline-polymul-4096": OfflinePolymul,
    "closed-pk-256": ClosedLoop,
}
