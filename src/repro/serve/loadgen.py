"""Synthetic load generation against a :class:`CryptoPimService`.

Two arrival models:

* **open loop** - requests arrive on a Poisson process at a fixed offered
  rate, independent of completions (the model of "millions of users": the
  world does not slow down because the chip is busy).  Under overload the
  service must shed, not queue without bound.
* **closed loop** - a fixed number of concurrent clients each submit,
  await, and repeat; offered load adapts to service speed (the model of a
  saturating benchmark harness, and the fair way to compare serve-one
  versus batched peak throughput).

Workload profiles mix request kinds with weights - public-key traffic
(many small Kyber/polymul ops) versus homomorphic eval traffic (fewer,
larger BGV tensors) - with all payloads pre-generated outside the timed
region so the generator measures the *service*, not payload synthesis.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Union

import numpy as np

from .requests import Rejection, RequestKind, ServeRequest, ServeResult
from .service import KYBER_DEGREE, CryptoPimService

__all__ = [
    "TrafficSpec",
    "WorkloadProfile",
    "PROFILES",
    "PayloadPool",
    "LoadReport",
    "run_closed_loop",
    "run_open_loop",
]


@dataclass(frozen=True)
class TrafficSpec:
    """One request kind's share of a workload."""

    kind: RequestKind
    n: int
    weight: float = 1.0
    priority: int = 1


@dataclass(frozen=True)
class WorkloadProfile:
    """A named mix of traffic specs."""

    name: str
    specs: Sequence[TrafficSpec]

    def pick(self, rng: np.random.Generator) -> TrafficSpec:
        weights = np.asarray([s.weight for s in self.specs], dtype=float)
        return self.specs[int(rng.choice(len(self.specs),
                                         p=weights / weights.sum()))]


PROFILES: Dict[str, WorkloadProfile] = {
    # pure raw-polymul streams, one per paper modulus tier
    "polymul-256": WorkloadProfile(
        "polymul-256", (TrafficSpec(RequestKind.POLYMUL, 256),)),
    "polymul-1024": WorkloadProfile(
        "polymul-1024", (TrafficSpec(RequestKind.POLYMUL, 1024),)),
    # public-key traffic: many small ops, Kyber KEM flows plus raw NTTs
    "mixed-pk": WorkloadProfile("mixed-pk", (
        TrafficSpec(RequestKind.POLYMUL, 256, weight=0.4),
        TrafficSpec(RequestKind.KYBER_ENCAPS, KYBER_DEGREE, weight=0.2),
        TrafficSpec(RequestKind.KYBER_DECAPS, KYBER_DEGREE, weight=0.1),
        TrafficSpec(RequestKind.NTT_FORWARD, 256, weight=0.15),
        TrafficSpec(RequestKind.NTT_INVERSE, 256, weight=0.15),
    )),
    # homomorphic eval traffic: fewer, larger SEAL-ring tensors
    "he-eval": WorkloadProfile("he-eval", (
        TrafficSpec(RequestKind.BGV_MULTIPLY, 2048, weight=0.5),
        TrafficSpec(RequestKind.BGV_ADD, 2048, weight=0.5),
    )),
    # degree-mixed fleet workload: Kyber KEM flows (n=256) interleaved
    # with mid-size polymul and SEAL-ring HE tensors (n=2048) - on one
    # chip every degree switch pays the reconfiguration penalty; a fleet
    # with degree-affinity routing pins each degree to its own shards
    "mixed-kyber-he": WorkloadProfile("mixed-kyber-he", (
        TrafficSpec(RequestKind.KYBER_ENCAPS, KYBER_DEGREE, weight=0.25),
        TrafficSpec(RequestKind.KYBER_DECAPS, KYBER_DEGREE, weight=0.10),
        TrafficSpec(RequestKind.POLYMUL, 1024, weight=0.25),
        TrafficSpec(RequestKind.BGV_MULTIPLY, 2048, weight=0.25),
        TrafficSpec(RequestKind.BGV_ADD, 2048, weight=0.15),
    )),
}


class PayloadPool:
    """Pre-generated payloads per traffic spec (outside the timed region)."""

    def __init__(self, service: CryptoPimService, profile: WorkloadProfile,
                 rng: np.random.Generator, per_spec: int = 32,
                 tenants: int = 1):
        self._rng = rng
        self._tenants = max(1, tenants)
        self._payloads: Dict[TrafficSpec, List[Any]] = {}
        for spec in profile.specs:
            self._payloads[spec] = [
                self._build(service, spec) for _ in range(per_spec)
            ]
        self.profile = profile

    def _build(self, service: CryptoPimService, spec: TrafficSpec) -> Any:
        kind, n, rng = spec.kind, spec.n, self._rng
        if kind is RequestKind.POLYMUL:
            q = service.engine(n).q
            return (rng.integers(0, q, n).astype(np.uint64),
                    rng.integers(0, q, n).astype(np.uint64))
        if kind in (RequestKind.NTT_FORWARD, RequestKind.NTT_INVERSE):
            q = service.engine(n).q
            return rng.integers(0, q, n).astype(np.uint64)
        if kind is RequestKind.KYBER_ENCAPS:
            service.kyber()  # force key generation outside the timed region
            return None
        if kind is RequestKind.KYBER_DECAPS:
            kem, pk, _ = service.kyber()
            ct, _key = kem.encapsulate(pk)
            return ct
        if kind in (RequestKind.BGV_ADD, RequestKind.BGV_MULTIPLY):
            scheme, sk = service.bgv(n)
            make = lambda: scheme.encrypt(
                sk, rng.integers(0, scheme.t, n))
            return (make(), make())
        if kind in (RequestKind.BFV_ADD, RequestKind.BFV_MULTIPLY):
            scheme, sk = service.bfv(n)
            make = lambda: scheme.encrypt(
                sk, rng.integers(0, scheme.t, n))
            return (make(), make())
        raise ValueError(f"no payload builder for {kind}")

    def make_request(self) -> ServeRequest:
        spec = self.profile.pick(self._rng)
        pool = self._payloads[spec]
        payload = pool[int(self._rng.integers(0, len(pool)))]
        tenant = f"tenant-{int(self._rng.integers(0, self._tenants))}"
        return ServeRequest(kind=spec.kind, n=spec.n, payload=payload,
                            tenant=tenant, priority=spec.priority)


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one load-generation run."""

    profile: str
    mode: str                     # "closed" or "open"
    offered: int                  # requests submitted
    offered_rate_per_s: float     # open loop: arrival rate; closed: measured
    completed: int
    rejected: Dict[str, int]      # reason -> count
    wall_s: float
    throughput_per_s: float       # completed / wall
    latency: Dict[str, float]     # p50/p95/p99/mean/max over completed e2e
    mean_batch_size: float

    def render(self) -> str:
        shed = sum(self.rejected.values())
        return (
            f"{self.profile:14s} [{self.mode:6s}] "
            f"offered {self.offered:6d} ({self.offered_rate_per_s:9.0f}/s)  "
            f"served {self.throughput_per_s:9.0f}/s  "
            f"p50 {self.latency['p50'] * 1e3:7.2f}ms  "
            f"p99 {self.latency['p99'] * 1e3:7.2f}ms  "
            f"batch {self.mean_batch_size:5.1f}  shed {shed}"
        )


def _summarise(profile: str, mode: str, offered: int, rate: float,
               responses: List[Any], wall_s: float) -> LoadReport:
    completed = [r for r in responses if r is not None and r.ok]
    rejected: Dict[str, int] = {}
    for r in responses:
        if r is not None and not r.ok:
            rejected[r.reason.value] = rejected.get(r.reason.value, 0) + 1
    totals = np.asarray([r.total_s for r in completed]) if completed else None
    latency = {
        "p50": float(np.percentile(totals, 50)) if totals is not None else 0.0,
        "p95": float(np.percentile(totals, 95)) if totals is not None else 0.0,
        "p99": float(np.percentile(totals, 99)) if totals is not None else 0.0,
        "mean": float(totals.mean()) if totals is not None else 0.0,
        "max": float(totals.max()) if totals is not None else 0.0,
    }
    sizes = [r.batch_size for r in completed]
    return LoadReport(
        profile=profile,
        mode=mode,
        offered=offered,
        offered_rate_per_s=rate,
        completed=len(completed),
        rejected=rejected,
        wall_s=wall_s,
        throughput_per_s=len(completed) / wall_s if wall_s > 0 else 0.0,
        latency=latency,
        mean_batch_size=float(np.mean(sizes)) if sizes else 0.0,
    )


async def run_closed_loop(service: CryptoPimService,
                          profile: WorkloadProfile,
                          total_requests: int,
                          concurrency: int,
                          seed: int = 0,
                          tenants: int = 1,
                          per_spec: int = 32) -> LoadReport:
    """``concurrency`` clients submit/await/repeat until the total is hit."""
    rng = np.random.default_rng(seed)
    pool = PayloadPool(service, profile, rng, per_spec=per_spec,
                       tenants=tenants)
    requests = [pool.make_request() for _ in range(total_requests)]
    cursor = iter(requests)
    responses: List[Union[ServeResult, Rejection]] = []

    async def client() -> None:
        for request in cursor:  # shared iterator: total is split on demand
            responses.append(await service.submit(request))

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(max(1, concurrency))))
    wall_s = time.perf_counter() - started
    return _summarise(profile.name, "closed", total_requests,
                      total_requests / wall_s if wall_s else 0.0,
                      responses, wall_s)


async def run_open_loop(service: CryptoPimService,
                        profile: WorkloadProfile,
                        rate_per_s: float,
                        total_requests: int,
                        seed: int = 0,
                        tenants: int = 1,
                        per_spec: int = 32) -> LoadReport:
    """Poisson arrivals at ``rate_per_s``, independent of completions."""
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be positive")
    rng = np.random.default_rng(seed)
    pool = PayloadPool(service, profile, rng, per_spec=per_spec,
                       tenants=tenants)
    arrival = np.cumsum(rng.exponential(1.0 / rate_per_s, total_requests))
    loop = asyncio.get_running_loop()
    started = loop.time()
    wall_started = time.perf_counter()

    async def fire(at: float,
                   request: ServeRequest) -> Union[ServeResult, Rejection]:
        delay = (started + at) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        return await service.submit(request)

    tasks = [asyncio.create_task(fire(at, pool.make_request()))
             for at in arrival]
    responses = list(await asyncio.gather(*tasks))
    wall_s = time.perf_counter() - wall_started
    return _summarise(profile.name, "open", total_requests, rate_per_s,
                      responses, wall_s)
