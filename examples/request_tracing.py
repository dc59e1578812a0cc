"""End-to-end request tracing through the CryptoPIM serving layer.

Runs a small traced serving session over the mixed Kyber/HE profile on
two simulated chips, then walks everything ``repro.obs`` produces from
it:

* the slowest request's *exact* stage decomposition - consecutive
  segments share their boundary timestamps, so the stages sum to the
  end-to-end latency with no residue;
* the execute spans' chip-cycle charges reconciled against each shard's
  virtual-clock ledger, cycle for cycle;
* the Chrome trace-event export (open it in ui.perfetto.dev) and the
  offline views ``python -m repro trace`` rebuilds from that file alone;
* :class:`repro.obs.KernelProfiler`, dropping below the execute span to
  NTT kernel wall time per radix pass (one cell per pass, keyed by the
  lowest butterfly stage it merges).

Run:  python examples/request_tracing.py
"""

import asyncio
import json
import math
import tempfile

import numpy as np

from repro.ntt.batch import float_schedule
from repro.ntt.transform import NttEngine
from repro.obs import KernelProfiler, decompose, render_lanes, stage_table
from repro.serve import (
    PROFILES,
    CryptoPimService,
    ServiceConfig,
    run_closed_loop,
)


async def traced_session():
    """One closed-loop run with tracing on; returns journal + chip views."""
    config = ServiceConfig(
        tracing=True,
        num_chips=2,
        routing="round_robin",   # guarantees reconfiguration spans
        max_batch_wait_s=1e-3,
        seed=7,
    )
    async with CryptoPimService(config) as service:
        report = await run_closed_loop(
            service, PROFILES["mixed-kyber-he"],
            total_requests=48, concurrency=8, seed=7)
        await service.drain()
        chip_ledgers = [shard.gate.timeline.snapshot()
                        for shard in service.fleet.shards]
        doc = service.trace_document()
        journal = service.journal
    return report, journal, chip_ledgers, doc


def exact_decomposition(journal) -> None:
    print("=== The slowest request, decomposed exactly ===")
    root = journal.slowest(1)[0]
    segments = decompose(root)
    print(f"request trace {root.trace_id}: "
          f"{root.attrs.get('kind')} n={root.attrs.get('n')}  "
          f"e2e {root.duration_s * 1e3:.3f} ms")
    for seg in segments:
        share = seg.duration_s / root.duration_s
        print(f"  {seg.label:12s} {seg.duration_s * 1e6:9.1f} us "
              f"({100 * share:5.1f}%)")

    # every boundary is one shared clock stamp, so the tiling is exact -
    # bitwise float equality, not approximate bookkeeping
    for left, right in zip(segments, segments[1:]):
        assert left.end_s == right.start_s
    assert segments[0].start_s == root.start_s
    assert segments[-1].end_s == root.end_s
    total = math.fsum(seg.duration_s for seg in segments)
    print(f"  segments sum to {total * 1e3:.6f} ms "
          f"(root: {root.duration_s * 1e3:.6f} ms) - shared stamps, "
          f"zero residue")


def cycle_reconciliation(journal, chip_ledgers) -> None:
    print("\n=== Execute spans vs the chip-cycle ledger ===")
    charged = {}
    seen = set()
    for root in journal.traces():
        for span in root.walk():
            if span.name != "execute":
                continue
            key = (span.attrs["chip"], span.attrs["batch_seq"])
            if key in seen:      # batch-mates share one execute span
                continue
            seen.add(key)
            chip = int(span.attrs["chip"])
            charged[chip] = charged.get(chip, 0) + span.cycles
    for chip, ledger in enumerate(chip_ledgers):
        hardware = ledger["busy_cycles"] + ledger["reconfig_cycles"]
        spans = charged.get(chip, 0)
        match = "==" if spans == hardware else "!="
        print(f"  chip {chip}: execute spans {spans:>9,} cyc "
              f"{match} timeline busy+reconfig {hardware:>9,} cyc")
        assert spans == hardware


def export_and_offline_views(doc) -> str:
    print("\n=== Chrome trace-event export + offline views ===")
    from repro.obs import validate_chrome_trace

    problems = validate_chrome_trace(doc)
    assert problems == [], problems
    with tempfile.NamedTemporaryFile(
            mode="w", suffix=".json", delete=False) as handle:
        json.dump(doc, handle)
        path = handle.name
    n_events = len(doc["traceEvents"])
    print(f"  {n_events} events, schema-valid - open in ui.perfetto.dev")
    print(f"  (serve-bench --trace {path} writes the same file; "
          f"python -m repro trace {path} rebuilds the views below)")
    print()
    print(stage_table(doc))
    print()
    print(render_lanes(doc))
    return path


def kernel_zoom() -> None:
    print("\n=== Below the execute span: per-pass NTT kernel time ===")
    engine = NttEngine.for_degree(1024)
    rng = np.random.default_rng(3)
    block = rng.integers(0, engine.q, (32, 1024)).astype(np.uint64)
    with KernelProfiler() as prof:
        engine.forward_many(block)
    # one cell per radix pass of the schedule, each seeing all 32 rows once
    passes = [lo for lo, _ in float_schedule(1024, engine.q).passes]
    cells = prof.stages(1024)
    assert sorted(stage for _, stage in cells) == passes, cells
    assert all(cell["rows"] == 32 for cell in cells.values()), cells
    print(prof.breakdown())


def main() -> None:
    report, journal, chip_ledgers, doc = asyncio.run(traced_session())
    print(f"served {report.completed} requests on 2 chips "
          f"({journal.aggregates()['completed']} traced, "
          f"{len(journal.traces())} retained)\n")
    exact_decomposition(journal)
    cycle_reconciliation(journal, chip_ledgers)
    export_and_offline_views(doc)
    kernel_zoom()


if __name__ == "__main__":
    main()
