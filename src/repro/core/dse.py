"""Automated design-space exploration with Pareto analysis.

The paper presents one design point and three pipeline variants; the
models in this repository can price the whole neighbourhood.  This module
enumerates configurations across the axes the reproduction parameterises -
pipeline variant, gate technology, switch weight, pipelining on/off - and
extracts the throughput/energy/area Pareto front.

The expected (and test-asserted) outcome: the paper's choice - pipelined
CRYPTOPIM arrangement with FELIX gates and light fixed-function switches -
is on the front, and the area-efficient arrangement appears only where
area is weighted (its name is its niche).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import List

from ..arch.area import AreaModel
from ..baselines.pim_baselines import MagicPolicy
from ..core.config import PipelineVariant
from ..core.pipeline import PipelineModel
from ..core.stages import CostPolicy
from ..ntt.params import params_for_degree

__all__ = ["DesignPoint", "enumerate_designs", "pareto_front"]


@dataclass(frozen=True)
class DesignPoint:
    """One priced configuration."""

    variant: str
    gates: str          # 'felix' | 'magic'
    pipelined: bool
    throughput_per_s: float
    energy_uj: float
    area_mm2: float
    latency_us: float

    def dominates(self, other: "DesignPoint") -> bool:
        """Weakly better on every objective, strictly on one.

        Objectives: maximise throughput; minimise energy and area.
        """
        not_worse = (self.throughput_per_s >= other.throughput_per_s
                     and self.energy_uj <= other.energy_uj
                     and self.area_mm2 <= other.area_mm2)
        strictly = (self.throughput_per_s > other.throughput_per_s
                    or self.energy_uj < other.energy_uj
                    or self.area_mm2 < other.area_mm2)
        return not_worse and strictly

    def label(self) -> str:
        mode = "P" if self.pipelined else "NP"
        return f"{self.variant}/{self.gates}/{mode}"


def enumerate_designs(n: int) -> List[DesignPoint]:
    """Price every configuration in the explored grid for degree ``n``."""
    area_model = AreaModel()
    params = params_for_degree(n)
    policies = {"felix": None, "magic": MagicPolicy(params.q, params.bitwidth)}
    points: List[DesignPoint] = []
    for variant, gates, pipelined in product(
            PipelineVariant, ("felix", "magic"), (True, False)):
        model = PipelineModel.for_degree(n, variant=variant,
                                         policy=policies[gates])
        report = model.report(pipelined=pipelined)
        points.append(DesignPoint(
            variant=variant.value,
            gates=gates,
            pipelined=pipelined,
            throughput_per_s=report.throughput_per_s,
            energy_uj=report.energy_uj,
            area_mm2=area_model.multiplication_area(n, variant).total_mm2,
            latency_us=report.latency_us,
        ))
    return points


def pareto_front(points: List[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated subset, sorted by descending throughput."""
    front = [p for p in points
             if not any(other.dominates(p) for other in points)]
    return sorted(front, key=lambda p: -p.throughput_per_s)
