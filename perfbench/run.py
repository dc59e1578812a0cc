#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload closed-pk-256 --seed 1 \\
        --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints the per-layer
metrics.  Wall-clock figures are in reference seconds (see
``calibrate.py``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON report with the host fingerprint, sample counts and
the counts that must repeat exactly.  The exit code is 0 only when every
checked output was right and every exact count repeated.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

from calibrate import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: exact counts of earlier runs in this checkout, keyed by the hashes of
#: the program and of the benchmark
LEDGER = ROOT / ".bench_build" / "perfbench-exact.json"
#: set-ups per run; the first runs in this process, the rest in fresh ones
SETUPS = 5


def _parse(argv: Optional[List[str]], seconds: float) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it")
    return parser.parse_args(argv)


def _digest(paths: List[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _fingerprint(source: str, bench: str) -> Dict[str, Any]:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "commit": commit, "src_sha256": source, "bench_sha256": bench}


def _check_exact(key: str, counts: Dict[str, Any]) -> Optional[str]:
    """Compare with the counts an earlier run of the same code recorded."""
    try:
        ledger = json.loads(LEDGER.read_text())
    except (OSError, ValueError):
        ledger = {}
    seen = ledger.setdefault(key, counts)
    if seen != counts:
        return f"exact counts {counts} differ from an earlier run's {seen}"
    LEDGER.parent.mkdir(exist_ok=True)
    scratch = LEDGER.with_suffix(".tmp")
    scratch.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(scratch, LEDGER)
    return None


def _cold_setup(args: argparse.Namespace) -> Dict[str, float]:
    """One set-up in a fresh interpreter, so process-wide caches that an
    earlier set-up filled cannot hide work moved into set-up."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


async def _session(workload: Any, import_s: float, speed: HostSpeed,
                   seconds: float, setup_only: bool) -> Any:
    """Set up, then measure.  The set-up time is returned raw and in
    reference seconds, scaled by the host speed sampled around it."""
    began = perf_counter()
    await workload.setup()
    raw = import_s + perf_counter() - began
    setup_s = {"raw": raw, "scaled": raw / speed.bracket()}
    try:
        if setup_only:
            return setup_s
        return setup_s, await workload.measure(seconds)
    finally:
        await workload.close()


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(argv, spec["run_seconds"])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    speed = HostSpeed()
    began = perf_counter()
    from workloads import WORKLOADS  # imports the program
    import_s = perf_counter() - began
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, trace=bool(args.trace))
    if args.setup_only:
        setup_s = asyncio.run(
            _session(workload, import_s, speed, 0.0, True))
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_s, outcome = asyncio.run(
        _session(workload, import_s, speed, args.seconds, False))
    metrics = dict(outcome.metrics)
    if args.trace:
        declared = spec["per_layer"]
        # a layer the workload does not exercise reads 0
        for metric in declared:
            metrics.setdefault(metric["name"], 0.0)
    else:
        declared = spec["end_to_end"]
        setups = [setup_s] + [_cold_setup(args) for _ in range(SETUPS - 1)]
        metrics["setup_s"] = statistics.median(s["scaled"] for s in setups)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        outcome.notes["setups_s"] = setups
        outcome.notes["raw"]["setup_s"] = statistics.median(
            s["raw"] for s in setups)
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        raise RuntimeError(f"measured {sorted(metrics)}, declared {names}")

    source = _digest(sorted(SRC.rglob("*.py")))
    # the exact counts depend on the benchmark's constants too
    bench = _digest(sorted(HERE.glob("*.py")) + [ROOT / "BENCHMARK.json"])
    errors = [e for e in (outcome.error,) if e]
    if outcome.exact:
        key = ":".join([args.workload, source, bench]
                       + ([f"seed={args.seed}"] if outcome.exact_per_seed
                          else []))
        mismatch = _check_exact(key, outcome.exact)
        if mismatch:
            errors.append(mismatch)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    correct = outcome.failed == 0 and not errors
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": _fingerprint(source, bench),
        "exact": outcome.exact, "notes": outcome.notes, "errors": errors}))
    print(json.dumps({
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
