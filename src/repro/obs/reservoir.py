"""One uniform reservoir rule: skip-based sampling (Li's Algorithm L).

A :class:`Reservoir` decides which items of a stream a fixed-size sample
keeps; the caller owns the sample itself (an ``array('d')`` of latencies,
a list of trace roots).  The first ``capacity`` items go in verbatim.
After that only the items the sample *admits* cost random draws: each
admission replaces a uniform slot, shrinks Algorithm L's weight ``W`` and
skips ahead to the next admitted index, so a stream of ``N`` items pays
O(k * (1 + ln(N / k))) draws for a capacity of ``k``, three per admitted
item, instead of Algorithm R's one per item
(Li, "Reservoir-sampling algorithms of time complexity
O(n(1 + log(N/n)))", ACM TOMS 20(4), 1994).

Draws come from blocks of uniforms out of the reservoir's own seeded
generator, consumed in a fixed order (slot, weight, skip) and refilled
only when a block runs out.  The state after a stream therefore depends
on the stream's length alone: offering it in any chunking leaves the same
sample and the same generator state.
"""

from __future__ import annotations

import math
from typing import List, MutableSequence, Sequence, TypeVar

import numpy as np

__all__ = ["Reservoir"]

T = TypeVar("T")

#: uniforms drawn from the generator at a time
_BLOCK = 512


class Reservoir:
    """Admission rule for a uniform sample of at most ``capacity`` items."""

    __slots__ = ("capacity", "seen", "rng", "_block", "_used", "_next", "_w")

    def __init__(self, capacity: int, seed: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seen = 0   # items offered so far
        self.rng = np.random.default_rng(seed)
        self._block: List[float] = []
        self._used = 0
        self._next = 0  # stream index of the next admitted item, once full
        self._w = 1.0   # Algorithm L's weight, shrunk at every admission

    def extend(self, sample: MutableSequence[T], values: Sequence[T]) -> None:
        """Offer ``values`` in stream order to ``sample``, which holds the
        ``min(seen, capacity)`` items kept so far."""
        seen = self.seen
        end = seen + len(values)
        self.seen = end
        capacity = self.capacity
        if seen < capacity:
            sample.extend(values[:capacity - seen])
            if end < capacity:
                return
            self._skip_from(capacity)
        index = self._next
        while index < end:
            sample[int(self._uniform() * capacity)] = values[index - seen]
            self._skip_from(index + 1)
            index = self._next

    def _skip_from(self, start: int) -> None:
        """Shrink ``W``, then set the next admitted index at or past
        ``start`` (Algorithm L: the gap is geometric in ``1 - W``)."""
        w = self._w * math.exp(math.log1p(-self._uniform()) / self.capacity)
        self._w = w
        # W stays 1 only after a zero first draw: then nothing is skipped
        gap = math.log1p(-self._uniform()) / math.log1p(-w) if w < 1.0 else 0.0
        self._next = start + int(gap)

    def _uniform(self) -> float:
        if self._used == len(self._block):
            self._block = self.rng.random(_BLOCK).tolist()
            self._used = 0
        value = self._block[self._used]
        self._used += 1
        return value
