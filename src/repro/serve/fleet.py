"""Sharded dispatch across a fleet of simulated CryptoPIM chips.

NTT-PIM and BP-NTT both scale by replicating arrays and amortising
control across them; the software analogue one level above the paper's
bank -> softbank -> superbank ladder (Section III-D) is a **fleet** of
independent :class:`~repro.arch.chip.CryptoPimChip` shards, each with its
own :class:`~repro.core.scheduler.ChipTimeline` virtual clock and the
asyncio lock its batches hold.  One chip is a fleet of one.

Routing policy (``affinity``, the default):

1. **degree affinity** - prefer shards already configured for the
   window's degree ``n``: dispatching there skips the 1000-cycle
   :data:`~repro.core.scheduler.RECONFIGURATION_CYCLES` switch-rewiring
   penalty;
2. **fresh shards** - if nothing is configured for ``n``, an
   unconfigured shard is free to claim (first configuration is not a
   *re*-configuration);
3. **power-of-two-choices** - within the candidate set, sample two
   shards at random and take the less loaded one (load = virtual clock
   plus a pending-lease surcharge).  Two random probes get most of the
   benefit of global least-loaded at O(1) cost and without herding;
4. **spill** - affinity must not pin a hot degree to one shard forever:
   when the best affinity candidate is more than ``spill_margin_cycles``
   ahead of the globally least-loaded healthy shard, the window spills
   there instead, paying one reconfiguration to recruit a second shard
   for that degree.

``round_robin`` ignores configuration state entirely and is kept as the
strawman (``tests/test_fleet.py`` asserts it reconfigures more often per
batch than affinity on degree-mixed traffic).

Drain / failover: :meth:`ChipFleet.mark_unhealthy` removes a shard from
routing immediately.  A window that already *holds* the shard's lock
completes normally (results are computed in software; the shard is
drained, not vaporised).  A window that picked the shard but is still
waiting on its lock re-routes to a healthy sibling on wake-up - no
request is ever lost or executed twice, which ``tests/test_fleet.py``
asserts.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.chip import CryptoPimChip
from ..core.scheduler import RECONFIGURATION_CYCLES, ChipTimeline

__all__ = ["FleetDrained", "ChipShard", "ChipFleet",
           "DEFAULT_SPILL_MARGIN_CYCLES"]

#: a shard this many virtual cycles ahead of the fleet's least-loaded
#: healthy shard stops attracting affinity traffic (8 reconfigurations'
#: worth - small against a typical batch span, so hot degrees recruit
#: additional shards quickly instead of queueing behind one)
DEFAULT_SPILL_MARGIN_CYCLES = 8 * RECONFIGURATION_CYCLES

#: load surcharge per lease that has been routed but not yet dispatched
#: (its cycles are not on the timeline yet); one reconfiguration's worth
#: keeps ties broken toward genuinely empty shards
_PENDING_LEASE_CYCLES = RECONFIGURATION_CYCLES


class FleetDrained(RuntimeError):
    """Raised when a window needs a shard but every chip is unhealthy."""


@dataclass
class ChipShard:
    """One chip of the fleet: its cycle ledger, a health flag, and a
    lease count.

    Holding ``lock`` means "my batch occupies this chip's bank array now".
    Batches run in the lock's FIFO order, which keeps the reconfiguration
    accounting faithful: a degree change between consecutive holders
    costs switch-rewiring cycles on the timeline.
    """

    index: int
    timeline: ChipTimeline
    healthy: bool = True
    pending_leases: int = 0
    lock: asyncio.Lock = field(default_factory=asyncio.Lock, init=False,
                               repr=False)

    @property
    def configured_n(self) -> Optional[int]:
        return self.timeline.configured_n

    def load_cycles(self) -> int:
        """Virtual work assigned to this shard, in cycles."""
        return (self.timeline.clock_cycles
                + self.pending_leases * _PENDING_LEASE_CYCLES)


class ChipFleet:
    """N independent chip shards behind one routing policy.

    Args:
        num_chips: shard count.
        chip: template chip; the fleet holds ``num_chips`` replicas of
            its bank budget / pipeline variant (``CryptoPimChip.replicate``).
        policy: ``"affinity"`` (degree-affinity + power-of-two-choices +
            spill) or ``"round_robin"`` (the strawman).
        spill_margin_cycles: imbalance, in virtual cycles, beyond which
            affinity is overridden by the least-loaded healthy shard.
        seed: RNG seed for the two random probes (deterministic runs).
    """

    POLICIES = ("affinity", "round_robin")

    def __init__(self, num_chips: int = 1,
                 chip: Optional[CryptoPimChip] = None,
                 policy: str = "affinity",
                 spill_margin_cycles: int = DEFAULT_SPILL_MARGIN_CYCLES,
                 seed: int = 0xF1EE7):
        if num_chips < 1:
            raise ValueError("a fleet needs at least one chip")
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown routing policy {policy!r}; "
                f"choose from {', '.join(self.POLICIES)}")
        template = chip or CryptoPimChip()
        self.policy = policy
        self.spill_margin_cycles = int(spill_margin_cycles)
        self.shards: List[ChipShard] = [
            ChipShard(index=i, timeline=ChipTimeline(chip=replica))
            for i, replica in enumerate(template.replicate(num_chips))
        ]
        self._rng = np.random.default_rng(seed)
        self._rr_cursor = 0
        self.counters: Dict[str, int] = {
            "routed.affinity": 0,    # window stayed on a matching shard
            "routed.fresh": 0,       # window claimed an unconfigured shard
            "routed.balanced": 0,    # no affinity/fresh set: least-loaded
            "routed.spill": 0,       # affinity overridden by imbalance
            "rerouted.unhealthy": 0,  # shard died while the lease waited
        }

    # -- routing --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.shards)

    @property
    def num_chips(self) -> int:
        return len(self.shards)

    def healthy_shards(self) -> List[ChipShard]:
        return [s for s in self.shards if s.healthy]

    def _two_choices(self, candidates: Sequence[ChipShard]) -> ChipShard:
        """Least-loaded of two random probes (one probe if len < 2)."""
        if len(candidates) == 1:
            return candidates[0]
        i, j = self._rng.choice(len(candidates), size=2, replace=False)
        a, b = candidates[int(i)], candidates[int(j)]
        return a if a.load_cycles() <= b.load_cycles() else b

    def route(self, n: int) -> ChipShard:
        """Pick the shard the next degree-``n`` window should run on."""
        return self._route(n)[0]

    def _route(self, n: int) -> Tuple[ChipShard, str]:
        """Route and name the decision (the ``routed.*`` counter key)."""
        healthy = self.healthy_shards()
        if not healthy:
            raise FleetDrained("every chip in the fleet is unhealthy")
        if self.policy == "round_robin":
            for _ in range(len(self.shards)):
                shard = self.shards[self._rr_cursor % len(self.shards)]
                self._rr_cursor += 1
                if shard.healthy:
                    self.counters["routed.balanced"] += 1
                    return shard, "balanced"
            raise FleetDrained("every chip in the fleet is unhealthy")

        affinity = [s for s in healthy if s.configured_n == n]
        if affinity:
            pick = self._two_choices(affinity)
            least = min(healthy, key=ChipShard.load_cycles)
            # spilling recruits a new shard for this degree at the price
            # of one reconfiguration *now* and another when that shard's
            # old degree returns - only worth it when the affinity
            # shard's lead exceeds a couple of full pipeline spans plus
            # the explicit margin (i.e. waiting costs more than rewiring)
            threshold = (self.spill_margin_cycles
                         + 2 * pick.timeline.span_estimate(n))
            if pick.load_cycles() > least.load_cycles() + threshold:
                self.counters["routed.spill"] += 1
                return least, "spill"
            self.counters["routed.affinity"] += 1
            return pick, "affinity"
        fresh = [s for s in healthy if s.configured_n is None]
        if fresh:
            self.counters["routed.fresh"] += 1
            return self._two_choices(fresh), "fresh"
        self.counters["routed.balanced"] += 1
        return self._two_choices(healthy), "balanced"

    @asynccontextmanager
    async def lease(self, n: int,
                    route_info: Optional[Dict[str, Any]] = None,
                    ) -> AsyncIterator[ChipShard]:
        """Hold one healthy shard's lock for a degree-``n`` window.

        Routing and locking race against health changes: if the chosen
        shard is marked unhealthy while this lease waits on its lock, the
        lease re-routes to a healthy sibling instead of dispatching onto
        a drained chip.  Work already *holding* a lock when the shard
        goes unhealthy completes normally.

        Args:
            route_info: optional dict filled with routing provenance for
                the granted lease - ``chip`` (shard index), ``decision``
                (affinity/fresh/balanced/spill) and ``rerouted`` (how
                many unhealthy picks were abandoned first).  Trace spans
                carry it so a saved trace explains every placement.
        """
        rerouted = 0
        while True:
            shard, decision = self._route(n)
            shard.pending_leases += 1
            try:
                await shard.lock.acquire()
            except BaseException:
                shard.pending_leases -= 1
                raise
            if not shard.healthy and any(
                    s.healthy for s in self.shards if s is not shard):
                # the shard died while we queued on its lock: re-route
                shard.pending_leases -= 1
                shard.lock.release()
                self.counters["rerouted.unhealthy"] += 1
                rerouted += 1
                continue
            if route_info is not None:
                route_info["chip"] = shard.index
                route_info["decision"] = decision
                route_info["rerouted"] = rerouted
            try:
                yield shard
            finally:
                shard.pending_leases -= 1
                shard.lock.release()
            return

    # -- health ---------------------------------------------------------------

    def mark_unhealthy(self, index: int) -> ChipShard:
        """Administratively drain chip ``index``: it stops receiving new
        windows; whatever holds its lock right now completes."""
        shard = self.shards[index]
        shard.healthy = False
        return shard

    def mark_healthy(self, index: int) -> ChipShard:
        """Return a drained chip to the routing pool."""
        shard = self.shards[index]
        shard.healthy = True
        return shard

    async def quiesce(self, index: Optional[int] = None) -> None:
        """Wait until the given shard (or every shard) holds no batch."""
        shards = self.shards if index is None else [self.shards[index]]
        for shard in shards:
            async with shard.lock:
                pass

    # -- convenience ----------------------------------------------------------

    def capacity_for(self, n: int) -> int:
        """Per-shard parallel-superbank capacity (shards are identical)."""
        return self.shards[0].timeline.chip.configure(n).superbanks

    # -- reporting ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Aggregated fleet state plus the per-shard timelines.

        ``makespan_cycles`` is the slowest shard's virtual clock (the
        fleet finishes when its last chip does); ``utilization`` is total
        compute over ``num_chips * makespan`` so idle shards count
        against the fleet; ``clock_skew`` is (max - min) / max clock
        across healthy shards - 0 means perfectly balanced.
        """
        per_shard = [dict(s.timeline.snapshot(),
                          index=s.index, healthy=s.healthy)
                     for s in self.shards]
        clocks = [s["clock_cycles"] for s in per_shard]
        makespan = max(clocks) if clocks else 0
        busy = sum(s["busy_cycles"] for s in per_shard)
        reconfig = sum(s["reconfig_cycles"] for s in per_shard)
        batches = sum(s["batches"] for s in per_shard)
        items = sum(s["items"] for s in per_shard)
        reconfigurations = sum(s["reconfigurations"] for s in per_shard)
        healthy_clocks = [s["clock_cycles"] for s in per_shard
                          if s["healthy"]] or clocks
        skew = ((max(healthy_clocks) - min(healthy_clocks))
                / max(healthy_clocks) if healthy_clocks
                and max(healthy_clocks) else 0.0)
        return {
            "num_chips": len(self.shards),
            "healthy_chips": sum(1 for s in self.shards if s.healthy),
            "policy": self.policy,
            "makespan_cycles": makespan,
            "busy_cycles": busy,
            "reconfig_cycles": reconfig,
            "utilization": (busy / (len(self.shards) * makespan)
                            if makespan else 0.0),
            "clock_skew": skew,
            "batches": batches,
            "items": items,
            "reconfigurations": reconfigurations,
            "reconfigurations_per_batch": (reconfigurations / batches
                                           if batches else 0.0),
            "routing": dict(self.counters),
            "shards": per_shard,
        }

    def render(self) -> str:
        """One-screen human rendering of the fleet state."""
        snap = self.snapshot()
        lines = [
            f"fleet: {snap['healthy_chips']}/{snap['num_chips']} chips "
            f"healthy, policy {snap['policy']}",
            f"    makespan {snap['makespan_cycles']} cycles, "
            f"utilization {snap['utilization']:.1%}, "
            f"skew {snap['clock_skew']:.1%}",
            f"    {snap['batches']} batches / {snap['items']} "
            f"mult-equivalents, {snap['reconfigurations']} reconfigurations "
            f"({snap['reconfigurations_per_batch']:.3f}/batch)",
            "    routing " + ", ".join(
                f"{k}={v}" for k, v in snap["routing"].items() if v),
        ]
        for shard in snap["shards"]:
            flag = "" if shard["healthy"] else "  [DRAINED]"
            lines.append(
                f"    chip {shard['index']}: clock {shard['clock_cycles']:>12d} "
                f"busy {shard['busy_cycles']:>12d} "
                f"(util {shard['utilization']:.1%}) "
                f"n={shard['configured_n']} "
                f"batches={shard['batches']}{flag}")
        return "\n".join(lines)
