"""Tests for banks, softbanks and the configurable chip."""

import pytest

from repro.arch.bank import BANK_WIDTH, plan_bank
from repro.arch.chip import MAX_NATIVE_DEGREE, CryptoPimChip
from repro.core.config import PipelineVariant


class TestBankPlan:
    def test_paper_32k_sizing(self):
        """Section III-D.2: 49 blocks per bank, 64 banks per polynomial,
        128 banks per 32k multiplication."""
        plan = plan_bank(32768)
        assert plan.blocks_per_bank == 49
        assert plan.banks_per_polynomial == 64
        assert plan.banks_per_multiplication == 128

    def test_bank_width_is_512(self):
        assert BANK_WIDTH == 512

    def test_small_degree_single_bank_pair(self):
        plan = plan_bank(256)
        assert plan.banks_per_polynomial == 1
        assert plan.banks_per_multiplication == 2

    def test_blocks_per_bank_formula(self):
        """CryptoPIM variant: 3*log2(n) + 4 blocks per bank."""
        for n in (256, 1024, 32768):
            log_n = n.bit_length() - 1
            assert plan_bank(n).blocks_per_bank == 3 * log_n + 4

    def test_switch_count(self):
        plan = plan_bank(32768)
        assert plan.switches_per_bank == 48
        assert plan.total_switches == 48 * 128 + 63 * 2

    def test_total_blocks(self):
        assert plan_bank(32768).total_blocks == 49 * 128

    def test_area_efficient_needs_fewer_blocks(self):
        assert (plan_bank(1024, PipelineVariant.AREA_EFFICIENT).blocks_per_bank
                < plan_bank(1024, PipelineVariant.CRYPTOPIM).blocks_per_bank)


class TestChip:
    def test_default_sized_for_one_32k_superbank(self):
        chip = CryptoPimChip()
        cfg = chip.configure(32768)
        assert cfg.superbanks == 1
        assert cfg.banks_idle == 0

    def test_small_degrees_reconfigure_into_many_superbanks(self):
        """Section III-D.2: degrees below 32k multiply several polynomial
        pairs in parallel."""
        chip = CryptoPimChip()
        assert chip.configure(512).superbanks == 64
        assert chip.configure(16384).superbanks == 2

    def test_beyond_native_degree_segments(self):
        chip = CryptoPimChip()
        cfg = chip.configure(2 * MAX_NATIVE_DEGREE)
        assert cfg.segments_per_polynomial == 2
        assert cfg.superbanks == 1

    def test_aggregate_throughput_scales_with_superbanks(self):
        chip = CryptoPimChip()
        per_pipeline = 553311.0
        assert chip.aggregate_throughput(512, per_pipeline) == pytest.approx(
            per_pipeline * 64
        )

    def test_segmentation_halves_aggregate_throughput(self):
        chip = CryptoPimChip()
        native = chip.aggregate_throughput(32768, 137511.0)
        segmented = chip.aggregate_throughput(65536, 137511.0)
        assert segmented == pytest.approx(native / 2)

    def test_too_small_chip_rejected(self):
        with pytest.raises(ValueError):
            CryptoPimChip(total_banks=64).configure(32768)
        with pytest.raises(ValueError):
            CryptoPimChip(total_banks=1)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            CryptoPimChip().configure(1000)

    def test_utilization(self):
        chip = CryptoPimChip(total_banks=100)
        cfg = chip.configure(16384)  # 64 banks per superbank -> 1 superbank
        assert cfg.banks_used == 64
        assert cfg.banks_idle == 36
        assert cfg.utilization == pytest.approx(0.64)

    def test_memory_cells(self):
        chip = CryptoPimChip()
        assert chip.memory_cells() == 128 * 49 * 512 * 512
