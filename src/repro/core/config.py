"""CryptoPIM accelerator configuration."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..ntt.params import NttParams, params_for_degree
from ..pim.device import PAPER_DEVICE, DeviceModel

__all__ = ["PipelineVariant", "CryptoPimConfig"]


class PipelineVariant(Enum):
    """The three pipeline organisations of Figure 4.

    * ``AREA_EFFICIENT`` (Fig. 4a): a computation and its modulo reduction
      share one memory block - fewest blocks, slowest stage (2700 cycles at
      16-bit/n=256 in the paper).
    * ``NAIVE`` (Fig. 4b): data computation and modulo split into separate
      blocks (1756 cycles/stage) at the cost of more blocks.
    * ``CRYPTOPIM`` (Fig. 4c): the paper's final pipeline - the multiplier
      gets its own block while Montgomery reduction, addition/subtraction
      and Barrett reduction share the other (1643 cycles/stage).
    """

    AREA_EFFICIENT = "area-efficient"
    NAIVE = "naive"
    CRYPTOPIM = "cryptopim"


@dataclass(frozen=True)
class CryptoPimConfig:
    """Full configuration of one CryptoPIM instance.

    Attributes:
        params: ring parameters (degree, modulus, datapath width).
        variant: pipeline organisation (Figure 4); the non-pipelined
            comparisons of Figures 5/6 run the AREA_EFFICIENT arrangement.
        device: ReRAM device model (1.1 ns cycle).
    """

    params: NttParams
    variant: PipelineVariant = PipelineVariant.CRYPTOPIM
    device: DeviceModel = PAPER_DEVICE

    @classmethod
    def for_degree(cls, n: int, variant: PipelineVariant = PipelineVariant.CRYPTOPIM,
                   device: DeviceModel = PAPER_DEVICE) -> "CryptoPimConfig":
        return cls(params=params_for_degree(n), variant=variant, device=device)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def q(self) -> int:
        return self.params.q

    @property
    def bitwidth(self) -> int:
        return self.params.bitwidth
