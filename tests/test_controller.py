"""Tests for the controller microcode compiler and issue scheduler."""

from collections import Counter

import numpy as np
import pytest

from repro.arch import bank, chip
from repro.arch.chip import MAX_NATIVE_DEGREE, CryptoPimChip
from repro.core.accelerator import CryptoPIM
from repro.core.controller import (
    compile_multiplication,
    completion_offsets,
    pipelined_completion_cycles,
)
from repro.core.config import PipelineVariant
from repro.core.pipeline import PipelineModel
from repro.core.scheduler import (
    RECONFIGURATION_CYCLES,
    BatchTiming,
    ChipScheduler,
    ChipTimeline,
    MultiplicationJob,
    chip_completion_cycles,
)
from repro.core.stages import CostPolicy, StageBlock


class TestCompilation:
    def test_trace_length_equals_np_latency(self):
        """The compiled sequential trace IS the non-pipelined latency."""
        for n in (64, 256, 2048):
            model = PipelineModel.for_degree(n)
            program = compile_multiplication(model)
            assert program.total_cycles == model.latency_cycles(False)

    def test_trace_is_contiguous(self):
        model = PipelineModel.for_degree(64)
        ops = compile_multiplication(model).ops
        for prev, cur in zip(ops, ops[1:]):
            assert cur.start_cycle == prev.end_cycle

    def test_every_block_gets_xfer_write_compute(self):
        model = PipelineModel.for_degree(64)
        program = compile_multiplication(model)
        for block in model.blocks:
            kinds = [op.kind for op in program.ops_for_block(block.label)]
            assert kinds[0] == "xfer"
            assert kinds[1] == "write"
            assert all(k == "compute" for k in kinds[2:])
            assert len(kinds) == 2 + len(block.ops)

    def test_area_efficient_variant_compiles(self):
        model = PipelineModel.for_degree(
            256, variant=PipelineVariant.AREA_EFFICIENT)
        program = compile_multiplication(model)
        assert program.variant == "area-efficient"
        assert program.total_cycles == model.latency_cycles(False)

    def test_listing_truncation(self):
        program = compile_multiplication(PipelineModel.for_degree(256))
        short = program.listing(limit=5)
        assert "more micro-ops" in short
        full = program.listing(limit=None)
        assert "more micro-ops" not in full
        assert f"total: {program.total_cycles} cycles" in full


class TestPipelinedSchedule:
    def test_first_result_at_pipeline_latency(self):
        model = PipelineModel.for_degree(256)
        completions = pipelined_completion_cycles(model, 1)
        assert completions == [model.latency_cycles(True)]

    def test_steady_state_rate_is_stage_latency(self):
        model = PipelineModel.for_degree(1024)
        completions = pipelined_completion_cycles(model, 100)
        gaps = {b - a for a, b in zip(completions, completions[1:])}
        assert gaps == {model.stage_cycles}

    def test_throughput_from_schedule_matches_model(self):
        """Completion-time slope == 1/throughput: closes the loop between
        the controller view and Table II."""
        model = PipelineModel.for_degree(512)
        completions = pipelined_completion_cycles(model, 1000)
        cycles_per_result = (completions[-1] - completions[0]) / 999
        measured_tput = 1.0 / model.device.cycles_to_seconds(cycles_per_result)
        assert measured_tput == pytest.approx(model.throughput_per_s(True))

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            pipelined_completion_cycles(PipelineModel.for_degree(256), 0)


#: chip degrees from the smallest ring to four 32k segments
ALL_DEGREES = [1 << k for k in range(2, 18)]


class TestOneCompletionLaw:
    @pytest.mark.parametrize("n", ALL_DEGREES)
    def test_every_caller_agrees(self, n):
        """ChipTimeline, ChipScheduler and multiply_batch all read the
        one law, with the chip's superbanks and 32k segments streamed."""
        config = CryptoPimChip().configure(n)
        superbanks = config.superbanks
        segments = config.segments_per_polynomial
        model = PipelineModel.for_degree(min(n, MAX_NATIVE_DEGREE))
        for count in sorted({1, max(1, superbanks - 1), superbanks,
                             superbanks + 1, 3 * superbanks + 2}):
            law = pipelined_completion_cycles(model, count, superbanks,
                                              segments)
            assert ChipTimeline().dispatch(n, count).completion_cycles == law
            report = ChipScheduler().schedule([MultiplicationJob(n, count)])
            assert report.makespan_cycles == law[-1]
            group = report.groups[0]
            assert law[-1] == (model.depth + group.per_superbank * segments
                               - 1) * model.stage_cycles

    @pytest.mark.parametrize("n", (256, 1024))
    def test_multiply_batch_prices_one_pipeline(self, n):
        acc = CryptoPIM.for_degree(n)
        superbanks = CryptoPimChip().configure(n).superbanks
        rng = np.random.default_rng(n)
        for count in (1, superbanks - 1, superbanks, superbanks + 1):
            pairs = [(rng.integers(0, acc.q, n), rng.integers(0, acc.q, n))
                     for _ in range(count)]
            batch = acc.multiply_batch(pairs)
            assert batch.completion_cycles == pipelined_completion_cycles(
                acc.model, count, superbanks=1)

    def test_segments_stream_back_to_back(self):
        """A 64k product is two 32k segments in consecutive slots."""
        native = PipelineModel.for_degree(MAX_NATIVE_DEGREE)
        end = ChipTimeline().dispatch(65536, 3).end_cycle
        assert end == ChipScheduler().schedule(
            [MultiplicationJob(65536, 3)]).makespan_cycles
        assert end == (native.depth + 3 * 2 - 1) * native.stage_cycles
        assert end == 469381

    def test_invalid_superbanks_or_segments(self):
        model = PipelineModel.for_degree(256)
        with pytest.raises(ValueError):
            pipelined_completion_cycles(model, 1, superbanks=0)
        with pytest.raises(ValueError):
            pipelined_completion_cycles(model, 1, segments=0)


class TestPricedOnce:
    def test_block_latencies_derived_once(self, monkeypatch):
        """Dispatches, batches and reports read one stored cost table
        instead of re-pricing the block cascade on every call."""
        priced = Counter()
        latency = StageBlock.latency

        def counting(block, policy):
            priced[id(block)] += 1
            return latency(block, policy)

        monkeypatch.setattr(StageBlock, "latency", counting)
        PipelineModel.for_degree.cache_clear()
        n = 256
        timeline = ChipTimeline()
        for _ in range(100):
            timeline.dispatch(n, 3)
        acc = CryptoPIM.for_degree(n)
        rng = np.random.default_rng(0)
        pair = (rng.integers(0, acc.q, n), rng.integers(0, acc.q, n))
        for _ in range(20):
            acc.multiply_batch([pair, pair])
            acc.report()
        timeline_model = PipelineModel.for_degree(n)
        assert timeline_model is not acc.model
        priced_blocks = {id(b) for b in timeline_model.blocks + acc.model.blocks}
        assert set(priced) == priced_blocks
        assert set(priced.values()) == {1}

    def test_chip_configured_once_per_degree(self, monkeypatch):
        """Dispatches and routing estimates read one stored chip
        arrangement per degree instead of re-planning the banks."""
        built = Counter()
        build = bank.build_blocks

        def counting(n, variant):
            built[n] += 1
            return build(n, variant)

        monkeypatch.setattr(bank, "build_blocks", counting)
        chip._configure.cache_clear()
        timeline = ChipTimeline()
        for i in range(100):
            n = (256, 1024)[i % 2]
            timeline.dispatch(n, 3)
            timeline.span_estimate(n)
        assert built == {256: 1, 1024: 1}
        assert timeline.chip.configure(256) is CryptoPimChip().configure(256)

    @pytest.mark.parametrize("n", (256, 1024, 32768, 65536))
    def test_dispatch_matches_the_unmemoised_law(self, n):
        """Every dispatch, first or repeated, after a reconfiguration or
        not, equals a timing built from the law's formula directly."""
        timeline = ChipTimeline()
        config = timeline.chip.configure(n)
        model = PipelineModel.for_degree(min(n, MAX_NATIVE_DEGREE))
        superbanks = config.superbanks
        segments = config.segments_per_polynomial
        for count in (1, 13, 64, 78, 384, 13, 1):
            for degree in (n, 512):  # the second one rewires the chip
                reconfig = (0 if timeline.configured_n in (None, degree)
                            else RECONFIGURATION_CYCLES)
                start = timeline.clock_cycles + reconfig
                timing = timeline.dispatch(degree, count)
                if degree != n:
                    continue
                expected = BatchTiming(
                    n=n, count=count, superbanks=superbanks,
                    start_cycle=start, reconfiguration_cycles=reconfig,
                    completion_cycles=[
                        start + (model.depth + (i // superbanks + 1)
                                 * segments - 1) * model.stage_cycles
                        for i in range(count)],
                    seq=timeline.batches)
                assert timing == expected

    def test_returned_cycle_lists_are_fresh(self):
        """The memoised offsets are an immutable tuple: mutating a list a
        caller got back changes nothing a later call returns."""
        model = PipelineModel.for_degree(256)
        config = CryptoPimChip().configure(256)
        offsets = completion_offsets(model, 13)
        assert isinstance(offsets, tuple)
        assert completion_offsets(model, 13) is offsets
        law = pipelined_completion_cycles(model, 13)
        chip_law = chip_completion_cycles(config, 13)
        dispatched = ChipTimeline().dispatch(256, 13).completion_cycles
        for returned in (law, chip_law, dispatched):
            returned[0] = -1
            returned.append(-2)
        assert pipelined_completion_cycles(model, 13) == list(offsets)
        assert chip_completion_cycles(config, 13) == list(
            completion_offsets(model, 13, config.superbanks))
        assert (ChipTimeline().dispatch(256, 13).completion_cycles
                == chip_completion_cycles(config, 13))

        acc = CryptoPIM.for_degree(256)
        rng = np.random.default_rng(3)
        pairs = [(rng.integers(0, acc.q, 256), rng.integers(0, acc.q, 256))
                 for _ in range(4)]
        batch = acc.multiply_batch(pairs)
        expected = list(completion_offsets(acc.model, 4))
        assert batch.completion_cycles == expected
        batch.completion_cycles.clear()
        assert acc.multiply_batch(pairs).completion_cycles == expected

    def test_policy_cannot_be_reassigned(self):
        model = PipelineModel.for_degree(256)
        with pytest.raises(AttributeError):
            model.policy = CostPolicy(7681, 16)
        assert PipelineModel.for_degree(256) is model
