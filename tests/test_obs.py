"""Tests for ``repro.obs``: spans and dual clocks, exact latency
decomposition, the bounded trace journal, Chrome trace-event export,
offline views, kernel stage profiling, and the end-to-end acceptance
criterion - every traced request's spans decompose its latency exactly
and the execute spans reconcile with the chip timelines cycle for cycle.
"""

import asyncio
import json
import math

import numpy as np
import pytest

from repro.ntt.transform import NttEngine
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    KernelProfiler,
    Span,
    TraceJournal,
    Tracer,
    decompose,
    export_chrome_trace,
    render_lanes,
    render_slowest,
    render_trace_doc,
    stage_table,
    trace_events,
    validate_chrome_trace,
)
from repro.serve import (
    PROFILES,
    CryptoPimService,
    RequestKind,
    ServeRequest,
    ServiceConfig,
    run_closed_loop,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt
        return self.now


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class TestSpan:
    def test_child_inherits_trace_and_links_parent(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.start_trace("request")
        child = root.child("queue")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert root.children == [child]

    def test_born_finished_child(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.start_trace("request", start_s=0.0)
        child = root.child("queue", start_s=1.0, end_s=2.5, batch_size=4)
        assert child.finished
        assert child.duration_s == 1.5
        assert child.attrs["batch_size"] == 4

    def test_finish_is_idempotent_first_close_wins(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        span = tracer.start_span("admit")
        clock.tick(1.0)
        span.finish()
        clock.tick(5.0)
        span.finish()
        assert span.end_s == 1.0

    def test_context_manager_closes(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.start_span("window") as span:
            clock.tick(0.25)
        assert span.finished
        assert span.duration_s == 0.25

    def test_set_cycles_validates_interval(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.start_span("execute")
        with pytest.raises(ValueError):
            span.set_cycles(100, 50)
        span.set_cycles(100, 250)
        assert span.cycles == 150

    def test_cycles_zero_when_uncharged(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.start_span("admit").cycles == 0

    def test_walk_is_preorder(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.start_trace("request", start_s=0.0)
        a = root.child("a", start_s=0.0, end_s=1.0)
        a.child("a1", start_s=0.0, end_s=0.5)
        root.child("b", start_s=1.0, end_s=2.0)
        assert [s.name for s in root.walk()] == ["request", "a", "a1", "b"]

    def test_to_dict_roundtrips_through_json(self):
        tracer = Tracer(clock=FakeClock())
        root = tracer.start_trace("request", start_s=0.0, kind="polymul")
        root.child("execute", start_s=0.0, end_s=1.0,
                   cycle_start=10, cycle_end=40, chip=0)
        root.finish(end_s=1.0)
        payload = json.loads(json.dumps(root.to_dict()))
        assert payload["attrs"]["kind"] == "polymul"
        (child,) = payload["children"]
        assert child["cycle_start"] == 10
        assert child["cycle_end"] == 40

    def test_root_finish_records_into_journal(self):
        journal = TraceJournal()
        tracer = Tracer(journal=journal, clock=FakeClock())
        root = tracer.start_trace("request", start_s=0.0)
        root.child("queue", start_s=0.0, end_s=1.0)
        assert journal.completed == 0
        root.finish(end_s=2.0)
        assert journal.completed == 1
        assert journal.stages["queue"].count == 1


class TestNullTracer:
    def test_disabled_singletons(self):
        assert not NULL_TRACER.enabled
        assert not NULL_SPAN.enabled
        assert NULL_TRACER.start_trace("request") is NULL_SPAN
        assert NULL_TRACER.start_span("admit") is NULL_SPAN

    def test_every_mutator_noops_and_chains(self):
        span = NULL_TRACER.start_trace("request", request_id=1)
        assert span.child("queue", start_s=0.0, end_s=1.0) is span
        assert span.set(chip=3) is span
        assert span.set_cycles(0, 10) is span
        assert span.finish() is span
        assert span.attrs == {}
        assert span.children == []
        assert span.cycles == 0


# ---------------------------------------------------------------------------
# exact decomposition
# ---------------------------------------------------------------------------

class TestDecompose:
    def _root(self):
        tracer = Tracer(clock=FakeClock())
        return tracer.start_trace("request", start_s=0.0)

    def test_contiguous_children_tile_exactly_no_gaps(self):
        root = self._root()
        root.child("admit", start_s=0.0, end_s=0.25)
        root.child("queue", start_s=0.25, end_s=1.0)
        root.child("execute", start_s=1.0, end_s=3.0)
        root.finish(end_s=3.0)
        segments = decompose(root)
        assert [s.label for s in segments] == ["admit", "queue", "execute"]
        assert all(s.kind == "span" for s in segments)
        # shared boundary stamps: consecutive segments meet at the same float
        for a, b in zip(segments, segments[1:]):
            assert a.end_s == b.start_s
        assert segments[0].start_s == root.start_s
        assert segments[-1].end_s == root.end_s
        assert sum(s.duration_s for s in segments) == pytest.approx(
            root.duration_s, rel=1e-12)

    def test_gaps_are_labelled_and_fill_the_root(self):
        root = self._root()
        root.child("admit", start_s=0.5, end_s=1.0)
        root.finish(end_s=2.0)
        segments = decompose(root)
        assert [(s.label, s.kind) for s in segments] == [
            ("(gap)", "gap"), ("admit", "span"), ("(gap)", "gap")]
        assert segments[0].duration_s == 0.5
        assert segments[-1].duration_s == 1.0

    def test_open_root_raises(self):
        with pytest.raises(ValueError, match="open span"):
            decompose(self._root())

    def test_overlapping_children_raise(self):
        root = self._root()
        root.child("a", start_s=0.0, end_s=2.0)
        root.child("b", start_s=1.0, end_s=3.0)
        root.finish(end_s=3.0)
        with pytest.raises(ValueError, match="before the previous"):
            decompose(root)

    def test_child_escaping_root_raises(self):
        root = self._root()
        root.child("a", start_s=0.0, end_s=5.0)
        root.finish(end_s=1.0)
        with pytest.raises(ValueError, match="after the"):
            decompose(root)


# ---------------------------------------------------------------------------
# the journal
# ---------------------------------------------------------------------------

def _record_traces(journal, durations):
    tracer = Tracer(journal=journal, clock=FakeClock())
    for i, duration in enumerate(durations):
        root = tracer.start_trace("request", start_s=float(i),
                                  request_id=i)
        root.child("queue", start_s=float(i), end_s=float(i) + duration / 2)
        root.child("execute", start_s=float(i) + duration / 2,
                   end_s=float(i) + duration, cycle_start=0,
                   cycle_end=100, chip=0)
        root.finish(end_s=float(i) + duration)
    return tracer


class TestTraceJournal:
    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceJournal(capacity=0)
        with pytest.raises(ValueError, match="sample_rate"):
            TraceJournal(sample_rate=0.0)
        with pytest.raises(ValueError, match="sample_rate"):
            TraceJournal(sample_rate=1.5)

    def test_aggregates_exact_while_reservoir_bounded(self):
        journal = TraceJournal(capacity=4, keep_slowest=2)
        durations = [float(d) for d in range(1, 21)]
        _record_traces(journal, durations)
        agg = journal.aggregates()
        assert agg["completed"] == 20
        assert agg["retained"] <= 4 + 2
        # aggregates are exact over ALL traces, not the retained sample
        assert agg["root"]["count"] == 20
        assert agg["root"]["wall_s"] == pytest.approx(sum(durations))
        assert agg["root"]["wall_max_s"] == 20.0
        assert agg["stages"]["queue"]["count"] == 20
        assert agg["stages"]["execute"]["cycles"] == 20 * 100
        assert list(agg["stages"]) == sorted(agg["stages"])

    def test_slowest_survive_sampling(self):
        journal = TraceJournal(capacity=2, keep_slowest=3)
        _record_traces(journal, [1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 0.5])
        slowest = [s.duration_s for s in journal.slowest()]
        assert slowest == [9.0, 8.0, 7.0]
        assert [s.duration_s for s in journal.slowest(1)] == [9.0]

    def test_traces_deduplicates_and_sorts_by_start(self):
        journal = TraceJournal(capacity=64, keep_slowest=8)
        _record_traces(journal, [3.0, 1.0, 2.0])
        traces = journal.traces()
        assert len(traces) == 3  # slowest overlap the reservoir: no dupes
        assert [t.start_s for t in traces] == sorted(
            t.start_s for t in traces)

    def test_sample_rate_thins_deterministically(self):
        def retained_ids(seed):
            journal = TraceJournal(capacity=64, sample_rate=0.5,
                                   keep_slowest=0, seed=seed)
            _record_traces(journal, [1.0] * 40)
            return [t.attrs["request_id"] for t in journal.traces()]

        first = retained_ids(7)
        assert 0 < len(first) < 40
        journal = TraceJournal(capacity=64, sample_rate=0.5,
                               keep_slowest=0, seed=7)
        _record_traces(journal, [1.0] * 40)
        assert journal.dropped == 40 - len(first)
        assert retained_ids(7) == first  # seeded: same stream, same sample

    def test_stage_max_seeded_from_first_sample(self):
        journal = TraceJournal()
        tracer = Tracer(journal=journal, clock=FakeClock())
        root = tracer.start_trace("request", start_s=0.0)
        # a zero-length stage must report max 0.0, not a stale default
        root.child("reconfigure", start_s=0.5, end_s=0.5)
        root.finish(end_s=1.0)
        assert journal.stages["reconfigure"].wall_max_s == 0.0
        assert journal.stages["reconfigure"].count == 1


# ---------------------------------------------------------------------------
# export + validation + views
# ---------------------------------------------------------------------------

def _sample_journal():
    journal = TraceJournal()
    tracer = Tracer(journal=journal, clock=FakeClock())
    for i, (chip, start) in enumerate(((0, 0.0), (1, 1.0))):
        root = tracer.start_trace("request", start_s=start,
                                  request_id=10 + i, kind="polymul", n=256)
        root.child("queue", start_s=start, end_s=start + 0.2)
        execute = root.child(
            "execute", start_s=start + 0.2, end_s=start + 1.0,
            cycle_start=1000 * i, cycle_end=1000 * i + 500,
            chip=chip, batch_seq=i + 1, batch_size=2, n=256)
        execute.child("reconfigure", start_s=start + 0.2, end_s=start + 0.2,
                      cycle_start=1000 * i, cycle_end=1000 * i + 64,
                      chip=chip, batch_seq=i + 1)
        root.finish(end_s=start + 1.0)
    return journal


class TestExport:
    def test_events_cover_three_processes(self):
        journal = _sample_journal()
        events = trace_events(journal.traces())
        by_pid = {}
        for ev in events:
            if ev["ph"] == "X":
                by_pid.setdefault(ev["pid"], []).append(ev)
        # pid 1: all spans; pid 2/3: execute + reconfigure mirrored per chip
        assert len(by_pid[1]) == 2 * 4
        assert len(by_pid[2]) == 2 * 2
        assert len(by_pid[3]) == 2 * 2
        # the cycle lane runs on the virtual chip clock
        cycle_execs = [ev for ev in by_pid[3] if ev["name"] == "execute"]
        assert {ev["ts"] for ev in cycle_execs} == {0.0, 1000.0}
        assert all(ev["dur"] == 500.0 for ev in cycle_execs)

    def test_request_threads_keyed_by_request_id(self):
        events = trace_events(_sample_journal().traces())
        tids = {ev["tid"] for ev in events
                if ev["ph"] == "X" and ev["pid"] == 1}
        assert tids == {10, 11}
        names = {(ev["pid"], ev["args"]["name"]) for ev in events
                 if ev["ph"] == "M" and ev["name"] == "thread_name"}
        assert (1, "req 10") in names
        assert (2, "chip 0") in names
        assert (3, "chip 1") in names

    def test_export_validates_and_roundtrips(self):
        doc = export_chrome_trace(_sample_journal())
        assert validate_chrome_trace(doc) == []
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["trace"]["completed"] == 2
        assert json.loads(json.dumps(doc)) == doc

    def test_empty_journal_exports_valid_doc(self):
        doc = export_chrome_trace(TraceJournal())
        assert validate_chrome_trace(doc) == []

    def test_validator_catches_bad_documents(self):
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"]
        bad = {"traceEvents": [
            {"ph": "B", "name": "x", "pid": 1, "tid": 1},
            {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": -1, "dur": "y"},
            {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
             "args": {}},
        ]}
        problems = validate_chrome_trace(bad)
        assert any("unsupported ph" in p for p in problems)
        assert any("negative" in p for p in problems)
        assert any("not numeric" in p for p in problems)
        assert any("args.name" in p for p in problems)


class TestViews:
    def test_stage_table_from_exported_doc(self):
        doc = export_chrome_trace(_sample_journal())
        text = stage_table(doc)
        assert "stage breakdown, 2 requests" in text
        assert "execute" in text
        assert "cyc" in text
        assert "e2e (roots)" in text

    def test_render_slowest_decomposes_requests(self):
        doc = export_chrome_trace(_sample_journal())
        text = render_slowest(doc, top=1)
        assert "top 1 slowest of 2 retained requests" in text
        assert "queue" in text
        assert "#" in text

    def test_render_lanes_dedupes_batches_per_chip(self):
        doc = export_chrome_trace(_sample_journal())
        text = render_lanes(doc)
        assert "chip 0" in text and "chip 1" in text
        # each chip ran one batch: 1 execute + 1 reconfigure span,
        # 500 charged cycles (the reconfigure child is a zoom-in)
        assert text.count("500 charged cycles") == 2

    def test_full_report_joins_all_views(self):
        doc = export_chrome_trace(_sample_journal())
        text = render_trace_doc(doc)
        assert "stage breakdown" in text
        assert "slowest" in text
        assert "cycle lanes" in text

    def test_empty_doc_renders_without_error(self):
        doc = export_chrome_trace(TraceJournal())
        assert "no request spans" in render_slowest(doc)
        assert "no fleet cycle lanes" in render_lanes(doc)


# ---------------------------------------------------------------------------
# kernel stage profiling
# ---------------------------------------------------------------------------

class TestKernelProfiler:
    def test_records_stage_timings_and_restores_hook(self):
        from repro.ntt import batch as ntt_batch

        engine = NttEngine.for_degree(256)
        rng = np.random.default_rng(0xFEED)
        block = rng.integers(0, engine.q, (4, 256)).astype(np.uint64)
        with KernelProfiler() as prof:
            engine.forward_many(block)
        stages = prof.stages(256)
        assert stages  # one cell per radix pass
        assert all(key[0] == 256 for key in stages)
        assert all(cell["rows"] >= 4 for cell in stages.values())
        assert prof.total_s > 0
        assert "kernel stage breakdown" in prof.breakdown()
        # the context manager restored the previous (absent) hook
        assert ntt_batch.set_stage_hook(None) is None

    def test_double_install_rejected(self):
        prof = KernelProfiler().install()
        try:
            with pytest.raises(RuntimeError):
                prof.install()
        finally:
            prof.uninstall()

    def test_nested_profilers_restore_outer(self):
        from repro.ntt import batch as ntt_batch

        outer = KernelProfiler().install()
        try:
            with KernelProfiler():
                pass
            # inner uninstall put the outer profiler back
            assert ntt_batch.set_stage_hook(outer) is outer
        finally:
            outer.uninstall()

    def test_to_dict_json_safe(self):
        prof = KernelProfiler()
        prof(256, 0, 4, 0.001)
        prof(256, 0, 4, 0.002)
        payload = json.loads(json.dumps(prof.to_dict()))
        (cell,) = payload["stages"]
        assert cell == {"n": 256, "stage": 0, "calls": 2,
                        "rows": 8, "seconds": pytest.approx(0.003)}


# ---------------------------------------------------------------------------
# acceptance: end-to-end traced serving run
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def traced_run():
    """A degree-mixed run over 2 round-robin chips with tracing on.

    Round-robin routing forces degree switches, so reconfiguration
    penalties appear as spans and the cycle reconciliation below covers
    the reconfig path, not just busy time.
    """
    async def scenario():
        config = ServiceConfig(tracing=True, num_chips=2,
                               routing="round_robin",
                               max_batch_wait_s=1e-3, seed=11)
        async with CryptoPimService(config) as service:
            report = await run_closed_loop(
                service, PROFILES["mixed-kyber-he"], total_requests=24,
                concurrency=6, seed=3)
            await service.drain()
            chip_snaps = [shard.gate.timeline.snapshot()
                          for shard in service.fleet.shards]
            doc = service.trace_document()
            journal = service.journal
        return report, journal, chip_snaps, doc

    return asyncio.run(scenario())


class TestServiceTracingAcceptance:
    def test_every_request_completed_and_traced(self, traced_run):
        report, journal, _, _ = traced_run
        assert report.completed == 24
        assert report.rejected == {}
        assert journal.completed == 24
        assert len(journal.traces()) == 24  # capacity default holds all

    def test_every_trace_decomposes_exactly(self, traced_run):
        """The acceptance criterion: each root's spans tile its e2e
        latency with shared boundary stamps - admit | queue | window |
        lease | execute, then only the result-fan-out gap."""
        _, journal, _, _ = traced_run
        for root in journal.traces():
            segments = decompose(root)
            labels = [s.label for s in segments]
            assert labels[:5] == ["admit", "queue", "window", "lease",
                                  "execute"]
            assert labels[5:] in ([], ["(gap)"])
            # boundaries are the same float, not merely close
            assert segments[0].start_s == root.start_s
            assert segments[-1].end_s == root.end_s
            for a, b in zip(segments, segments[1:]):
                assert a.end_s == b.start_s
            assert math.fsum(s.duration_s for s in segments) == \
                pytest.approx(root.duration_s, rel=1e-9)

    def test_execute_cycles_reconcile_with_chip_timelines(self, traced_run):
        """Summing each chip's execute spans (deduplicated per batch)
        must reproduce the timeline ledger: busy + reconfig, cycle for
        cycle."""
        _, journal, chip_snaps, _ = traced_run
        charged = {}
        seen = set()
        saw_reconfigure = False
        for root in journal.traces():
            for span in root.walk():
                if span.name != "execute":
                    continue
                for child in span.children:
                    if child.name == "reconfigure":
                        saw_reconfigure = True
                        assert child.cycle_start == span.cycle_start
                        assert child.cycle_end <= span.cycle_end
                chip = span.attrs["chip"]
                key = (chip, span.attrs["batch_seq"])
                if key in seen:
                    continue  # every batch member carries the same span
                seen.add(key)
                charged[chip] = charged.get(chip, 0) + span.cycles
        assert saw_reconfigure  # the mix forced at least one degree switch
        for chip, snap in enumerate(chip_snaps):
            expected = snap["busy_cycles"] + snap["reconfig_cycles"]
            if expected:
                assert charged[chip] == expected

    def test_exported_document_is_valid_and_merged(self, traced_run):
        _, journal, _, doc = traced_run
        assert validate_chrome_trace(doc) == []
        assert json.loads(json.dumps(doc)) == doc
        other = doc["otherData"]
        assert other["trace"]["completed"] == 24
        assert other["metrics"]["counters"]["requests_completed"] == 24
        stages = other["trace"]["stages"]
        for stage in ("admit", "queue", "window", "lease", "execute"):
            assert stages[stage]["count"] == 24

    def test_views_render_from_the_real_export(self, traced_run):
        _, _, _, doc = traced_run
        text = render_trace_doc(doc, top=3)
        assert "stage breakdown, 24 requests" in text
        assert "per-shard cycle lanes" in text

    def test_trace_cli_renders_written_file(self, traced_run, tmp_path,
                                            capsys):
        from repro.cli import main

        _, _, _, doc = traced_run
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        assert main(["trace", str(path), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowest" in out

    def test_trace_cli_rejects_invalid_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["trace", str(bad)]) == 2
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps({"traceEvents": [{"ph": "Q"}]}))
        assert main(["trace", str(invalid)]) == 1


class TestServiceTracingDisabled:
    def test_disabled_service_has_no_journal(self):
        async def scenario():
            async with CryptoPimService() as service:
                assert service.journal is None
                assert service.tracer is NULL_TRACER
                engine = NttEngine.for_degree(256)
                rng = np.random.default_rng(1)
                a = rng.integers(0, engine.q, 256).astype(np.uint64)
                result = await service.submit(ServeRequest(
                    kind=RequestKind.NTT_FORWARD, n=256, payload=a))
                assert result.ok
                assert "trace" not in service.summary()
                with pytest.raises(RuntimeError, match="tracing is disabled"):
                    service.trace_document()
                with pytest.raises(RuntimeError, match="tracing is disabled"):
                    service.write_trace("/dev/null")

        asyncio.run(scenario())

    def test_rejected_request_trace_is_closed_and_tagged(self):
        async def scenario():
            config = ServiceConfig(tracing=True)
            async with CryptoPimService(config) as service:
                rejection = await service.submit(ServeRequest(
                    kind=RequestKind.POLYMUL, n=7, payload=None))
                assert rejection.reason.value == "unsupported"
                (root,) = service.journal.traces()
                assert root.finished
                assert root.attrs["rejected"] == "unsupported"
                segments = decompose(root)
                assert segments[0].label == "admit"

        asyncio.run(scenario())
