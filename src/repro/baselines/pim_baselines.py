"""The PIM baselines of Figure 6 (Section IV-C).

All three baselines share CryptoPIM's building blocks and architecture and
differ only in how the primitive operations are implemented:

* **BP-1** - the operations proposed in [35]: the slower multiplier
  (``13N^2 - 14N + 6`` cycles) and *multiplication-based* modulo reduction
  (classic Barrett = two constant multiplies + subtract; classic Montgomery
  = two multiplies on the full-width product + add).
* **BP-2** - BP-1 with every N-bit multiplication replaced by CryptoPIM's
  (``6.5N^2 - 11.5N + 3``), including the multiplies inside the reductions.
* **BP-3** - BP-2 with the reductions converted to shift-and-add - but
  *without* CryptoPIM's width optimisation (every add/sub runs at the full
  intermediate width).
* **CryptoPIM** - BP-3 plus width-optimised reductions
  (:class:`~repro.core.stages.CostPolicy` itself).

The paper's observed ratios - BP-2 ~1.9x faster than BP-1, BP-3 ~5.5x
faster than BP-2, CryptoPIM ~1.2x faster than BP-3, 12.7x end to end -
emerge from these policies compositionally (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..core.config import PipelineVariant
from ..core.pipeline import PipelineModel
from ..core.stages import CostPolicy
from ..ntt.params import params_for_degree
from ..pim.logic import (
    add_cycles,
    mul_cycles_baseline35,
    mul_cycles_cryptopim,
    sub_cycles,
)
from ..pim.magic import add_cycles_magic, sub_cycles_magic

__all__ = [
    "MagicPolicy",
    "MultiplicationReductionPolicy",
    "Bp1Policy",
    "Bp2Policy",
    "Bp3Policy",
    "BASELINE_POLICIES",
    "baseline_models",
]


class MultiplicationReductionPolicy(CostPolicy):
    """Cost policy whose modulo reductions are built from multiplications.

    The multiplier used both for the butterfly and inside the reductions is
    injected, which is exactly the BP-1 -> BP-2 step of the paper.
    """

    def __init__(self, q: int, bitwidth: int,
                 mul_fn: Callable[[int], int]):
        super().__init__(q, bitwidth)
        self._mul_fn = mul_fn

    def mul(self) -> int:
        return self._mul_fn(self.bitwidth)

    def barrett(self) -> int:
        """Barrett with real multiplications.

        Runs after an addition (input one bit over the datapath):
        ``u = (a*m) >> k`` (one N-bit multiply), ``u*q`` (another), then a
        subtract and a conditional correction.
        """
        n = self.bitwidth
        return 2 * self._mul_fn(n) + sub_cycles(n) + sub_cycles(n)

    def montgomery(self) -> int:
        """Montgomery with real multiplications.

        Runs on a full product (2N bits): ``m = a*q' mod R`` and ``m*q`` are
        2N-bit multiplies, followed by the wide add and the correction.
        """
        n = self.bitwidth
        return (2 * self._mul_fn(2 * n) + add_cycles(2 * n) + sub_cycles(n))


class Bp1Policy(MultiplicationReductionPolicy):
    """BP-1: [35] multiplier everywhere, multiplication-based reductions."""

    name = "bp1"

    def __init__(self, q: int, bitwidth: int):
        super().__init__(q, bitwidth, mul_fn=mul_cycles_baseline35)


class Bp2Policy(MultiplicationReductionPolicy):
    """BP-2: CryptoPIM multiplier, still multiplication-based reductions."""

    name = "bp2"

    def __init__(self, q: int, bitwidth: int):
        super().__init__(q, bitwidth, mul_fn=mul_cycles_cryptopim)


class Bp3Policy(CostPolicy):
    """BP-3: shift-add reductions without the bit-width optimisation."""

    name = "bp3"

    def barrett(self) -> int:
        return self.kit.barrett.cost(width_optimised=False).cycles

    def montgomery(self) -> int:
        return self.kit.montgomery.cost(width_optimised=False).cycles


class MagicPolicy(CostPolicy):
    """A MAGIC-only CryptoPIM: NOR-built adders (9N+1 / 10N+1), the [35]
    multiplier, but CryptoPIM's shift-add reduction *algorithms* (each
    add/sub re-costed at MAGIC rates).

    Not one of the paper's BP baselines: it isolates the gate-technology
    axis (MAGIC [9] vs FELIX [10]) from the algorithmic axis of Figure 6.
    """

    name = "magic"

    def add(self) -> int:
        return add_cycles_magic(self.bitwidth)

    def sub(self) -> int:
        return sub_cycles_magic(self.bitwidth)

    def mul(self) -> int:
        return mul_cycles_baseline35(self.bitwidth)

    def barrett(self) -> int:
        # same programs, adders at 9/6 the FELIX per-bit rate
        return round(self.kit.barrett.cost().cycles * 9 / 6)

    def montgomery(self) -> int:
        return round(self.kit.montgomery.cost().cycles * 9 / 6)


#: Figure 6 series, in the paper's order
BASELINE_POLICIES: Dict[str, type] = {
    "BP-1": Bp1Policy,
    "BP-2": Bp2Policy,
    "BP-3": Bp3Policy,
    "CryptoPIM": CostPolicy,
}


def baseline_models(n: int) -> Dict[str, PipelineModel]:
    """Non-pipelined models for every Figure 6 series at degree ``n``.

    The paper compares baselines against the *non-pipelined* design, which
    uses the area-efficient block arrangement.
    """
    params = params_for_degree(n)
    models: Dict[str, PipelineModel] = {}
    for label, policy_cls in BASELINE_POLICIES.items():
        models[label] = PipelineModel.for_degree(
            n, variant=PipelineVariant.AREA_EFFICIENT,
            policy=policy_cls(params.q, params.bitwidth))
    return models
