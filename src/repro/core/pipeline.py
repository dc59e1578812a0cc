"""Analytic pipeline model: latency, throughput and energy of CryptoPIM.

This is the model behind Table II and Figures 4-6.  It prices the block
cascade built by :func:`repro.core.stages.build_blocks` under a
:class:`~repro.core.stages.CostPolicy`:

* **pipelined latency** = depth x slowest-block residency (every block
  advances at the rate of the slowest stage);
* **pipelined throughput** = one multiplication per slowest-block residency;
* **non-pipelined latency** = sum of block residencies along the path
  (polynomials A and B progress through their private 'pre'/'fwd' banks in
  parallel, so multiplicity does not extend the path);
* **energy** integrates every op's (cycles x active rows) over all physical
  blocks (multiplicity counted) plus transfer/write events.

With the CryptoPIM policy and variant, the 16-bit stage latency is
1643 cycles and the 32-bit one 6611, reproducing every CryptoPIM row of
Table II exactly (38 stages x 1643 x 1.1 ns = 68.67 us for n=256, ...).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from ..ntt.params import params_for_degree
from ..pim.device import DeviceModel
from ..pim.energy import EnergyModel
from .config import CryptoPimConfig, PipelineVariant
from .stages import CostPolicy, StageBlock, build_blocks
from .timing import MultiplicationReport

__all__ = ["PipelineModel"]


class PipelineModel:
    """The immutable cost table of one CryptoPIM configuration.

    Every block latency is derived once, at construction; the stage,
    latency and throughput figures read the stored values and each
    ``report(pipelined)`` is built once and then reused.  To price the
    same cascade under another policy, build another model - assigning
    to an attribute raises ``AttributeError``.

    Args:
        config: ring + variant + device.
        policy: cost policy; defaults to CryptoPIM's own.  Baselines pass
            their BP-1/2/3 policies to reproduce Figure 6.
    """

    config: CryptoPimConfig
    policy: CostPolicy
    blocks: Tuple[StageBlock, ...]
    _latencies: Tuple[int, ...]
    _stage: int
    _reports: Dict[bool, MultiplicationReport]

    def __init__(self, config: CryptoPimConfig, policy: Optional[CostPolicy] = None):
        if policy is None:
            policy = CostPolicy(config.q, config.bitwidth)
        blocks = tuple(build_blocks(config.n, config.variant))
        latencies = tuple(b.latency(policy) for b in blocks)
        self.__dict__.update(config=config, policy=policy, blocks=blocks,
                             _latencies=latencies, _stage=max(latencies),
                             _reports={})

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            f"PipelineModel is immutable; build a new model instead of "
            f"setting {name!r}")

    @classmethod
    @lru_cache(maxsize=64)
    def for_degree(cls, n: int,
                   variant: PipelineVariant = PipelineVariant.CRYPTOPIM,
                   policy: Optional[CostPolicy] = None) -> "PipelineModel":
        """The paper's configuration for degree ``n``; memoised, so every
        caller asking for the same (n, variant, policy) shares one table."""
        return cls(CryptoPimConfig(params=params_for_degree(n), variant=variant),
                   policy=policy)

    # -- structural properties ------------------------------------------------

    @property
    def device(self) -> DeviceModel:
        return self.config.device

    @property
    def depth(self) -> int:
        """Blocks along the dataflow path (= pipeline stages)."""
        return len(self.blocks)

    def block_latencies(self) -> List[int]:
        return list(self._latencies)

    @property
    def stage_cycles(self) -> int:
        """Residency of the slowest block - the pipelined stage latency."""
        return self._stage

    def slowest_block(self) -> StageBlock:
        return self.blocks[self._latencies.index(self._stage)]

    # -- latency / throughput ----------------------------------------------------

    def total_block_cycles(self) -> int:
        """Total work cycles across every *physical* block (multiplicity
        expanded) - what a sequential functional execution of all blocks
        meters.  The bit-level :class:`~repro.arch.dataflow.PimMachine`
        must agree with this exactly."""
        return sum(latency * b.multiplicity
                   for latency, b in zip(self._latencies, self.blocks))

    def latency_cycles(self, pipelined: bool = True) -> int:
        if pipelined:
            return self.depth * self._stage
        return sum(self._latencies)

    def latency_us(self, pipelined: bool = True) -> float:
        return self.device.cycles_to_us(self.latency_cycles(pipelined))

    def throughput_per_s(self, pipelined: bool = True) -> float:
        cycles = self._stage if pipelined else self.latency_cycles(False)
        return 1.0 / self.device.cycles_to_seconds(cycles)

    # -- energy ---------------------------------------------------------------------

    def op_row_events(self) -> int:
        n = self.config.n
        return sum(
            b.op_row_events(self.policy, n) * b.multiplicity for b in self.blocks
        )

    def overhead_row_events(self) -> int:
        n = self.config.n
        return sum(
            b.overhead_row_events(self.policy, n) * b.multiplicity
            for b in self.blocks
        )

    def energy(self):
        model = EnergyModel(self.device)
        ops = self.op_row_events()
        overhead = self.overhead_row_events()
        return model.energy_from_events(ops + overhead, transfer_events=overhead)

    # -- reports ----------------------------------------------------------------------

    def report(self, pipelined: bool = True) -> MultiplicationReport:
        report = self._reports.get(pipelined)
        if report is None:
            report = self._reports[pipelined] = MultiplicationReport(
                n=self.config.n,
                q=self.config.q,
                bitwidth=self.config.bitwidth,
                variant=self.config.variant.value,
                pipelined=pipelined,
                depth_blocks=self.depth,
                stage_cycles=self._stage,
                latency_cycles=self.latency_cycles(pipelined),
                latency_us=self.latency_us(pipelined),
                throughput_per_s=self.throughput_per_s(pipelined),
                energy=self.energy(),
            )
        return report

    def __repr__(self) -> str:
        return (f"PipelineModel(n={self.config.n}, {self.config.variant.value}, "
                f"policy={self.policy.name}, depth={self.depth}, "
                f"stage={self._stage}cy)")
