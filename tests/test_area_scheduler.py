"""Tests for the area model and the chip scheduler."""

import pytest

from repro.arch.area import AreaModel
from repro.arch.chip import CryptoPimChip
from repro.core.config import PipelineVariant
from repro.core.pipeline import PipelineModel
from repro.core.scheduler import (
    RECONFIGURATION_CYCLES,
    ChipScheduler,
    MultiplicationJob,
)


class TestAreaModel:
    def test_switch_ratio_is_rows_over_three(self):
        """The paper's Figure 3 argument, quantified: a full crossbar
        switch needs rows/3 times the logic of the fixed-function one."""
        model = AreaModel()
        assert model.switch_area_ratio(512) == pytest.approx(512 / 3)
        assert model.switch_area_ratio(64) == pytest.approx(64 / 3)

    def test_fixed_function_switch_independent_of_fanout(self):
        """3 switches per row regardless of the (virtual) port count."""
        model = AreaModel()
        per_row = model.fixed_function_switch_mm2(512) / 512
        assert model.fixed_function_switch_mm2(1024) / 1024 == pytest.approx(per_row)

    def test_area_report_composition(self):
        report = AreaModel().multiplication_area(32768)
        assert report.total_mm2 == pytest.approx(
            report.blocks_mm2 + report.switches_mm2 + report.controller_mm2)
        assert report.blocks_mm2 > report.switches_mm2  # memory dominates
        assert "mm^2" in str(report)

    def test_area_grows_with_degree(self):
        model = AreaModel()
        areas = [model.multiplication_area(n).total_mm2
                 for n in (256, 2048, 32768)]
        assert areas == sorted(areas)

    def test_crossbar_penalty_substantial(self):
        """Replacing the fixed-function switches with full crossbars
        multiplies total area several-fold - the design's justification."""
        penalty = AreaModel().crossbar_switch_penalty(32768)
        assert penalty > 3.0

    def test_area_efficient_variant_smaller(self):
        model = AreaModel()
        cryptopim = model.multiplication_area(1024).total_mm2
        area_eff = model.multiplication_area(
            1024, PipelineVariant.AREA_EFFICIENT).total_mm2
        assert area_eff < cryptopim  # that is why it's called area-efficient

    def test_invalid_feature_size(self):
        with pytest.raises(ValueError):
            AreaModel(feature_um=0)


class TestScheduler:
    def test_single_small_job(self):
        scheduler = ChipScheduler()
        report = scheduler.schedule([MultiplicationJob(256, 64)])
        # 64 jobs over 64 superbanks: one fill, one result each
        model = PipelineModel.for_degree(256)
        assert report.makespan_cycles == model.depth * model.stage_cycles

    def test_batch_amortises_fill(self):
        scheduler = ChipScheduler()
        one = scheduler.schedule([MultiplicationJob(1024, 16)])
        many = scheduler.schedule([MultiplicationJob(1024, 16 * 100)])
        # 100x the work costs far less than 100x the time
        assert many.makespan_cycles < 5 * one.makespan_cycles

    def test_mixed_degrees_incur_reconfiguration(self):
        scheduler = ChipScheduler()
        split = scheduler.schedule([MultiplicationJob(256, 64),
                                    MultiplicationJob(2048, 8)])
        only_small = scheduler.schedule([MultiplicationJob(256, 64)])
        only_large = scheduler.schedule([MultiplicationJob(2048, 8)])
        assert split.makespan_cycles == (only_small.makespan_cycles
                                         + only_large.makespan_cycles
                                         + RECONFIGURATION_CYCLES)

    def test_same_degree_jobs_merged(self):
        scheduler = ChipScheduler()
        report = scheduler.schedule([MultiplicationJob(512, 10),
                                     MultiplicationJob(512, 22)])
        assert len(report.groups) == 1
        assert report.groups[0].count == 32

    def test_oversized_degree_segments(self):
        # large batches so segment count (2x work per input), not pipeline
        # fill, dominates the makespan
        scheduler = ChipScheduler()
        native = scheduler.schedule([MultiplicationJob(32768, 1000)])
        double = scheduler.schedule([MultiplicationJob(65536, 1000)])
        assert double.makespan_cycles > 1.8 * native.makespan_cycles

    def test_throughput_approaches_pipeline_limit(self):
        """A huge same-degree batch should reach ~superbanks x pipeline
        throughput."""
        scheduler = ChipScheduler()
        report = scheduler.schedule([MultiplicationJob(1024, 32_000)])
        model = PipelineModel.for_degree(1024)
        limit = model.throughput_per_s(True) * 32  # 32 superbanks at n=1024
        assert report.aggregate_throughput_per_s == pytest.approx(limit, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChipScheduler().schedule([])
        with pytest.raises(ValueError):
            MultiplicationJob(256, 0)

    def test_datacenter_mix_pins_group_offsets(self):
        """The five-degree mix of examples/datacenter_workload.py, two of
        its degrees segmented: every group starts one reconfiguration
        after the previous one ends, and the ledger charges each cycle of
        the makespan as busy or reconfiguration."""
        report = ChipScheduler().schedule([
            MultiplicationJob(256, 50_000),
            MultiplicationJob(1024, 10_000),
            MultiplicationJob(4096, 1_000),
            MultiplicationJob(32768, 100),
            MultiplicationJob(65536, 20),
        ])
        assert report.makespan_cycles == 4_899_539
        assert [(g.start_cycle, g.end_cycle) for g in report.groups] == [
            (0, 1_345_617), (1_346_617, 1_934_811), (1_935_811, 3_112_569),
            (3_113_569, 4_204_384), (4_205_384, 4_899_539)]
        busy_cycles = sum(g.end_cycle - g.start_cycle for g in report.groups)
        reconfig_cycles = sum(g.reconfiguration_cycles
                              for g in report.groups)
        assert reconfig_cycles == 4 * RECONFIGURATION_CYCLES
        assert busy_cycles + reconfig_cycles == report.makespan_cycles

    def test_report_str(self):
        report = ChipScheduler().schedule([MultiplicationJob(256, 4)])
        assert "makespan" in str(report)
