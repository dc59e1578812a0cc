"""How fast this host is running right now, against a fixed reference.

The benchmark shares its cores with other tenants, and their load moves
the speed of the whole CPU: on a 2-vCPU host, pure-Python loops and
numpy kernels that have nothing to do with the program slowed by up to
1.6x within two minutes, and the program's CPU time moved with its wall
time.  A figure taken on such a host reads the host as much as the
program.

:func:`slowdown` times four fixed kernels that import nothing of the
program - an integer loop, object and dict churn, many small numpy
operations and a few large ones - and returns the geometric mean of
their times over :data:`REFERENCE`.  The workloads take one sample
before their first round and one after every round, and scale each
round's wall-clock figures by the geometric mean of the two samples
around it.  Every wall-clock end-to-end metric is therefore reported in
reference seconds: what it would read on the reference host at its
usual speed.  A change to the program moves the figures exactly as it
moves the raw times; the raw figures are in the report line.

The garbage collector is off while a kernel runs, so the size of the
program's heap cannot change the kernels' times.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

_SMALL = np.arange(256, dtype=np.int64)
_LARGE = np.arange(64 * 4096, dtype=np.uint64)


class _Record:
    __slots__ = ("key", "name", "pair")

    def __init__(self, key: int, name: str, pair: tuple):
        self.key = key
        self.name = name
        self.pair = pair


def _integers() -> int:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


def _objects() -> int:
    index: Dict[str, _Record] = {}
    records = []
    for i in range(30_000):
        record = _Record(i, str(i), (i, i + 1))
        records.append(record)
        index[record.name] = record
    total = sum(index[r.name].key + len(r.pair) for r in records)
    records.sort(key=lambda r: -r.key)
    return total


def _small_arrays() -> int:
    a = _SMALL
    for _ in range(1500):
        a = ((a * 17 + 3) % 7681)[::-1].copy()
    return int(a[0])


def _large_arrays() -> int:
    a = _LARGE
    for _ in range(12):
        a = (a * np.uint64(3) + np.uint64(1)) % np.uint64(786433)
    return int(a[0])


KERNELS: Dict[str, Callable[[], int]] = {
    "integers": _integers,
    "objects": _objects,
    "small_arrays": _small_arrays,
    "large_arrays": _large_arrays,
}

#: seconds each kernel takes on the reference host (a 2-vCPU x86_64 VM,
#: Python 3.11, numpy 2.4) at its usual speed
REFERENCE: Dict[str, float] = {
    "integers": 0.0160,
    "objects": 0.0400,
    "small_arrays": 0.0105,
    "large_arrays": 0.0220,
}


def slowdown() -> float:
    """This host's time for the kernels over the reference's (>1: slower)."""
    logs: List[float] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, kernel in KERNELS.items():
            began = perf_counter()
            kernel()
            logs.append(math.log((perf_counter() - began) / REFERENCE[name]))
    finally:
        if enabled:
            gc.enable()
    return math.exp(sum(logs) / len(logs))


class HostSpeed:
    """Slowdown samples taken between rounds of a workload."""

    def __init__(self) -> None:
        slowdown()  # first calls pay for page faults and cold code
        self.samples = [slowdown()]

    def bracket(self) -> float:
        """Sample again; return the slowdown over the interval since the
        previous sample, the geometric mean of the two samples around it."""
        self.samples.append(slowdown())
        return math.sqrt(self.samples[-2] * self.samples[-1])
