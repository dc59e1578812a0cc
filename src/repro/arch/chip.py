"""Chip-level configurable architecture: softbanks and superbanks.

Section III-D.2: CryptoPIM is a ReRAM chip with many memory banks that can
be *dynamically* arranged:

* a **softbank** groups ``b_m = n / 512`` parallel banks and processes the
  vector-wide operations of one polynomial;
* two softbanks form a **superbank** that executes one full polynomial
  multiplication;
* the hardware is sized for 32k-degree polynomials (64 banks per softbank,
  128 banks per superbank).  Smaller degrees reconfigure the same banks
  into *multiple* superbanks multiplying several polynomial pairs in
  parallel; degrees above 32k are processed in 32k segments iteratively.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

from ..core.config import PipelineVariant
from .bank import BANK_WIDTH, BankPlan, plan_bank

__all__ = ["ChipConfiguration", "CryptoPimChip", "MAX_NATIVE_DEGREE"]

#: largest degree processed without segmentation (paper design point)
MAX_NATIVE_DEGREE = 32768


@dataclass(frozen=True)
class ChipConfiguration:
    """One dynamic arrangement of the chip's banks for degree ``n``."""

    n: int
    bank_plan: BankPlan
    superbanks: int  # parallel multiplications, one pipeline each
    segments_per_polynomial: int
    banks_used: int
    banks_idle: int

    @property
    def utilization(self) -> float:
        total = self.banks_used + self.banks_idle
        return self.banks_used / total if total else 0.0


class CryptoPimChip:
    """The full accelerator chip with a fixed bank budget.

    Args:
        total_banks: physical banks on the chip; the paper's design point
            is 128 (exactly one 32k superbank).
        variant: pipeline organisation of the banks' block cascades.
    """

    def __init__(self, total_banks: int = 128,
                 variant: PipelineVariant = PipelineVariant.CRYPTOPIM):
        if total_banks < 2:
            raise ValueError("a chip needs at least one superbank (2 banks)")
        self.total_banks = total_banks
        self.variant = variant

    def configure(self, n: int) -> ChipConfiguration:
        """Arrange the banks for degree-``n`` multiplications.

        For ``n`` over the native maximum the inputs are cut into 32k
        segments processed iteratively on the same hardware (the plan is
        sized for the segment degree).  Built once per ``(total_banks,
        variant, n)``: dispatch and routing ask on every batch.
        """
        return _configure(self.total_banks, self.variant, n)

    def aggregate_throughput(self, n: int, per_pipeline_throughput: float) -> float:
        """Chip-level multiplications/s: pipelines run in every superbank.

        Table II reports the per-pipeline number; this is the configurable
        architecture's extra headroom for small degrees.
        """
        cfg = self.configure(n)
        return per_pipeline_throughput * cfg.superbanks / cfg.segments_per_polynomial

    def replicate(self, count: int) -> "list[CryptoPimChip]":
        """``count`` independent chips with this chip's bank budget and
        pipeline variant - the hardware inventory of a multi-chip fleet
        (each replica reconfigures its banks on its own)."""
        if count < 1:
            raise ValueError("a fleet needs at least one chip")
        return [CryptoPimChip(self.total_banks, self.variant)
                for _ in range(count)]

    def memory_cells(self) -> int:
        """Total ReRAM cells across all banks (32k sizing)."""
        plan = plan_bank(MAX_NATIVE_DEGREE, self.variant)
        return self.total_banks * plan.blocks_per_bank * BANK_WIDTH * BANK_WIDTH

    def __repr__(self) -> str:
        return f"CryptoPimChip(total_banks={self.total_banks}, {self.variant.value})"


@lru_cache(maxsize=256)
def _configure(total_banks: int, variant: PipelineVariant,
               n: int) -> ChipConfiguration:
    if n < 4 or n & (n - 1):
        raise ValueError(f"degree must be a power of two >= 4, got {n}")
    segments = max(1, ceil(n / MAX_NATIVE_DEGREE))
    plan = plan_bank(min(n, MAX_NATIVE_DEGREE), variant)
    per_superbank = plan.banks_per_multiplication
    superbanks = total_banks // per_superbank
    if superbanks == 0:
        raise ValueError(
            f"degree {n} needs {per_superbank} banks per multiplication "
            f"but the chip only has {total_banks}"
        )
    used = superbanks * per_superbank
    return ChipConfiguration(
        n=n,
        bank_plan=plan,
        superbanks=superbanks,
        segments_per_polynomial=segments,
        banks_used=used,
        banks_idle=total_banks - used,
    )
