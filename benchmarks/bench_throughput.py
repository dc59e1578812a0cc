#!/usr/bin/env python
"""Throughput benchmark: single vs batched multiplication.

Times three ways of computing B negacyclic products at each degree:

* ``legacy_loop``   - the seed's per-pair path: a Python loop over a
  kernel that rebuilds ``np.arange`` + masks for every stage of every
  call (faithful copy of the pre-stage-plan ``_gs_kernel_np``);
* ``single_loop``   - a per-pair loop over today's ``NttEngine.multiply``
  (cached stage plan, still one pair per call) - the before/after of the
  1-D index-caching change;
* ``multiply_many`` - one 2-D kernel invocation for the whole batch.

It also times the standalone batched transforms (``forward_many`` /
``inverse_many``) on the same block.  Every figure is the median of the
repeats.  Writes machine-readable ``BENCH_throughput.json`` at the repo root so
future PRs have a perf trajectory.  ``--quick`` shrinks sizes for CI.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.arch.chip import CryptoPimChip                      # noqa: E402
from repro.ntt.bitrev import bitrev_permute_array              # noqa: E402
from repro.ntt.params import params_for_degree                 # noqa: E402
from repro.ntt.transform import NttEngine                      # noqa: E402


# ---------------------------------------------------------------------------
# Legacy (seed) kernel - rebuilds stage indices on every call
# ---------------------------------------------------------------------------

def _legacy_gs_kernel(values: np.ndarray, twiddles: np.ndarray, q: int) -> np.ndarray:
    n = len(values)
    log_n = n.bit_length() - 1
    for i in range(log_n):
        distance = 1 << i
        idx = np.arange(n, dtype=np.int64)
        tops = idx[(idx & distance) == 0]
        bots = tops + distance
        w = twiddles[tops >> (i + 1)]
        t = values[tops].copy()
        values[tops] = (t + values[bots]) % q
        diff = (t + q - values[bots]) % q
        values[bots] = (w * diff) % q
    return values


class LegacyEngine:
    """The seed's per-pair multiplier, for before/after comparison."""

    def __init__(self, n: int):
        params = params_for_degree(n)
        self.q = params.q
        self.n_inv = params.n_inv
        self._phi = np.asarray(params.phi_powers(), dtype=np.uint64)
        self._phi_inv = np.asarray(params.phi_inv_powers(), dtype=np.uint64)
        self._fwd = np.asarray(params.forward_twiddles_bitrev(), dtype=np.uint64)
        self._inv = np.asarray(params.inverse_twiddles_bitrev(), dtype=np.uint64)

    def _forward(self, values: np.ndarray) -> np.ndarray:
        work = bitrev_permute_array(values % self.q)
        return _legacy_gs_kernel(work, self._fwd, self.q)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        q = self.q
        a_hat = self._forward((a * self._phi) % q)
        b_hat = self._forward((b * self._phi) % q)
        work = bitrev_permute_array(((a_hat * b_hat) % q) % q)
        _legacy_gs_kernel(work, self._inv, q)
        return (((work * self.n_inv) % q) * self._phi_inv) % q


# ---------------------------------------------------------------------------
# Timing harness
# ---------------------------------------------------------------------------

def _time_median(fn, repeats: int) -> float:
    """Median wall time of ``fn()`` over ``repeats`` runs (seconds)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def bench_degree(n: int, batch: int, repeats: int) -> dict:
    rng = np.random.default_rng(n)
    engine = NttEngine.for_degree(n)
    legacy = LegacyEngine(n)
    a_block = rng.integers(0, engine.q, (batch, n)).astype(np.uint64)
    b_block = rng.integers(0, engine.q, (batch, n)).astype(np.uint64)
    pairs = [(a_block[i], b_block[i]) for i in range(batch)]

    # correctness cross-check before timing anything
    reference = engine.multiply_many(a_block, b_block)
    assert np.array_equal(reference[0], legacy.multiply(a_block[0], b_block[0]))

    timings = {
        "legacy_loop": _time_median(
            lambda: [legacy.multiply(a, b) for a, b in pairs], repeats),
        "single_loop": _time_median(
            lambda: [engine.multiply(a, b) for a, b in pairs], repeats),
        "multiply_many": _time_median(
            lambda: engine.multiply_many(a_block, b_block), repeats),
    }
    transforms = {
        "forward_many": _time_median(
            lambda: engine.forward_many(a_block), repeats),
        "inverse_many": _time_median(
            lambda: engine.inverse_many(a_block), repeats),
    }
    superbanks = CryptoPimChip().configure(n).parallel_multiplications

    ops_per_s = {name: batch / seconds for name, seconds in timings.items()}
    baseline = ops_per_s["legacy_loop"]
    return {
        "n": n,
        "q": engine.q,
        "batch": batch,
        "superbanks": superbanks,
        "seconds": timings,
        "transform_seconds": transforms,
        "ops_per_s": ops_per_s,
        "speedup_vs_legacy_loop": {
            name: value / baseline for name, value in ops_per_s.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small batches / fewer repeats (CI smoke)")
    parser.add_argument("--batch", type=int, default=None,
                        help="batch size (default 64, quick 16)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repeats, median reported "
                             "(default 9, quick 3)")
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[256, 1024, 4096])
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_throughput.json")
    args = parser.parse_args(argv)

    batch = args.batch or (16 if args.quick else 64)
    repeats = args.repeats or (3 if args.quick else 9)
    sizes = args.sizes if not args.quick else args.sizes[:2]

    results = []
    for n in sizes:
        row = bench_degree(n, batch, repeats)
        results.append(row)
        speed = row["speedup_vs_legacy_loop"]
        print(f"n={n:5d} batch={batch:3d}  "
              f"legacy {row['ops_per_s']['legacy_loop']:9.0f} ops/s  "
              f"single x{speed['single_loop']:.2f}  "
              f"batched x{speed['multiply_many']:.2f}")

    payload = {
        "benchmark": "benchmarks/bench_throughput.py",
        "quick": bool(args.quick),
        "batch": batch,
        "repeats": repeats,
        "statistic": "median",
        "results": results,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[saved to {args.out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
