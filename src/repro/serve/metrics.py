"""Serving metrics: counters, gauges, latency histograms, batch occupancy.

Follows the house style of :mod:`repro.core.tracing`: small frozen-ish
dataclasses, a machine-readable ``snapshot()`` and a human ``breakdown()``
that renders one aligned table per section.  ``snapshot()`` is plain
JSON; the trace export (:mod:`repro.obs.export`) embeds it.

No external metrics dependency: percentile math is a sorted-array lookup
(numpy), which is exact - these are simulation-sized sample sets, not
production cardinalities.
"""

from __future__ import annotations

import json
from array import array
from typing import Dict, Optional

import numpy as np

__all__ = ["Counter", "Gauge", "LatencyHistogram", "MetricsRegistry"]

#: per-histogram sample cap; beyond it we keep a uniform random reservoir
_RESERVOIR = 65536


class Counter:
    """Monotonic event counter."""

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

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.high_water = 0.0
        self._touched = False

    def set(self, value: float) -> None:
        self.value = float(value)
        if self._touched:
            self.high_water = max(self.high_water, self.value)
        else:
            self.high_water = self.value
            self._touched = True


class LatencyHistogram:
    """Latency (or occupancy) sample set with exact percentiles.

    Samples are kept verbatim up to a reservoir cap, then down-sampled by
    random replacement so long overload runs cannot grow memory without
    bound while the quantile estimates stay unbiased.  A packed
    ``array('d')`` holds them at 8 bytes a sample (a list takes 32).
    """

    def __init__(self, name: str, unit: str = "s"):
        self.name = name
        self.unit = unit
        self.count = 0
        self._sum = 0.0
        self._max = 0.0
        self._samples = array("d")
        self._rng = np.random.default_rng(0xC0FFEE)

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self._sum += value
        # the first sample seeds the max (mirroring Gauge.high_water):
        # an all-negative sample set (drift, deficit) must report its
        # true maximum, not a spurious 0.0
        self._max = value if self.count == 1 else max(self._max, value)
        if len(self._samples) < _RESERVOIR:
            self._samples.append(value)
        else:  # reservoir sampling keeps a uniform subset
            slot = int(self._rng.integers(0, self.count))
            if slot < _RESERVOIR:
                self._samples[slot] = value

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
