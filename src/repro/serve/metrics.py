"""Serving metrics: counters, gauges, latency histograms, batch occupancy.

Follows the house style of :mod:`repro.core.tracing`: small frozen-ish
dataclasses, a machine-readable ``snapshot()`` and a human ``breakdown()``
that renders one aligned table per section.  ``snapshot()`` is plain
JSON; the trace export (:mod:`repro.obs.export`) embeds it.

No external metrics dependency: percentile math is a sorted-array lookup
(numpy), which is exact - these are simulation-sized sample sets, not
production cardinalities.  Past ``_RESERVOIR`` samples a histogram keeps
a uniform sample through the package's one skip-based reservoir rule
(:class:`repro.obs.reservoir.Reservoir`, Algorithm L), so ``N`` samples
cost O(k * (1 + ln(N / k))) random draws for a cap of ``k``, not ``N``.
"""

from __future__ import annotations

import json
from array import array
from typing import Dict, Optional, Sequence

import numpy as np

from ..obs.reservoir import Reservoir

__all__ = ["Counter", "Gauge", "LatencyHistogram", "MetricsRegistry"]

#: per-histogram sample cap; beyond it we keep a uniform random reservoir
_RESERVOIR = 65536


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time level (queue depth, backlog); remembers its high-water.

    The high-water mark is seeded by the *first* ``set`` rather than
    starting at 0.0, so a gauge that only ever sees negative values (a
    drift, a deficit) reports its true maximum instead of a spurious 0.
    """

    __slots__ = ("name", "value", "high_water", "_touched")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.high_water = 0.0
        self._touched = False

    def set(self, value: float) -> None:
        self.value = value = float(value)
        # NaN compares false, so it never raises the mark (as max() kept it)
        if value > self.high_water or not self._touched:
            self.high_water = value
            self._touched = True


class LatencyHistogram:
    """Latency (or occupancy) sample set with exact percentiles.

    Samples are kept verbatim up to a reservoir cap, then down-sampled by
    the skip-based reservoir rule (:class:`~repro.obs.reservoir.Reservoir`)
    so long overload runs cannot grow memory without bound while the
    quantile estimates stay unbiased.  Past the cap a sample costs a
    random draw only when the reservoir admits it, and a batch with no
    admission costs none.  A packed ``array('d')`` holds the samples at
    8 bytes each (a list takes 32).
    """

    def __init__(self, name: str, unit: str = "s"):
        self.name = name
        self.unit = unit
        self.count = 0
        self._sum = 0.0
        self._max = 0.0
        self._samples = array("d")
        self._sampler = Reservoir(_RESERVOIR, seed=0xC0FFEE)

    @property
    def _rng(self) -> np.random.Generator:
        """The reservoir's seeded generator."""
        return self._sampler.rng

    def record(self, value: float) -> None:
        self.record_many((value,))

    def record_many(self, values: Sequence[float]) -> None:
        """Record each of ``values`` in order, in one call.

        The state afterwards is the same as after one call per value:
        count, sum (added left to right), max, samples and the reservoir
        generator's draws.  While the reservoir has room the samples go
        in as one array extend; beyond it only the samples the reservoir
        admits are written, each into a uniform slot.  The first sample
        seeds the max (mirroring ``Gauge.high_water``), so an all-negative
        sample set (drift, deficit) reports its true maximum, not a
        spurious 0.0.
        """
        values = [float(v) for v in values]
        if not values:
            return
        seen = self.count
        self.count += len(values)
        total = self._sum
        for value in values:
            total += value
        self._sum = total
        top = max(values)
        self._max = top if seen == 0 else max(self._max, top)
        self._sampler.extend(self._samples, values)

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        if not self._samples:
            return 0.0
        return float(np.percentile(np.asarray(self._samples), p))

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self._max,
        }


class MetricsRegistry:
    """All of one service's instruments, addressable by name."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str, unit: str = "s") -> LatencyHistogram:
        if name not in self._histograms:
            self._histograms[name] = LatencyHistogram(name, unit)
        return self._histograms[name]

    # -- export --------------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """Machine-readable state of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {
                n: {"value": g.value, "high_water": g.high_water}
                for n, g in sorted(self._gauges.items())
            },
            "histograms": {
                n: dict(h.summary(), unit=h.unit)
                for n, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def breakdown(self) -> str:
        """One-screen human rendering, tracing-style aligned tables."""
        lines = ["serving metrics:"]
        if self._counters:
            lines.append("  counters:")
            for name, counter in sorted(self._counters.items()):
                lines.append(f"    {name:36s} {counter.value:10d}")
        if self._gauges:
            lines.append("  gauges (value / high-water):")
            for name, gauge in sorted(self._gauges.items()):
                lines.append(f"    {name:36s} {gauge.value:10.1f} / "
                             f"{gauge.high_water:.1f}")
        if self._histograms:
            lines.append("  histograms (p50 / p95 / p99 / max):")
            for name, hist in sorted(self._histograms.items()):
                s = hist.summary()
                scale = 1e3 if hist.unit == "s" else 1.0
                unit = "ms" if hist.unit == "s" else hist.unit
                lines.append(
                    f"    {name:36s} n={s['count']:<8d} "
                    f"{s['p50'] * scale:9.3f} / {s['p95'] * scale:9.3f} / "
                    f"{s['p99'] * scale:9.3f} / {s['max'] * scale:9.3f} {unit}"
                )
        return "\n".join(lines)
