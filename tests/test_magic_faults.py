"""Tests for the MAGIC NOR-only library and the fault-injection module."""

import numpy as np
import pytest

from repro.baselines.pim_baselines import MagicPolicy
from repro.core.pipeline import PipelineModel
from repro.core.stages import CostPolicy
from repro.pim.alu import from_bits, to_bits
from repro.pim.faults import (
    Fault,
    FaultKind,
    FaultyVectorUnit,
    fault_sensitivity_sweep,
)
from repro.pim.logic import CycleCounter
from repro.pim.magic import (
    FULL_ADDER_NETLIST,
    MagicAlu,
    add_cycles_magic,
    evaluate_netlist,
    magic_full_adder,
    sub_cycles_magic,
)


class TestMagicNetlist:
    def test_full_adder_truth_table(self):
        """Exhaustive check of the 9-NOR full adder."""
        cases = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        a = np.array([x[0] for x in cases], dtype=bool)
        b = np.array([x[1] for x in cases], dtype=bool)
        c = np.array([x[2] for x in cases], dtype=bool)
        total, carry = magic_full_adder(a, b, c)
        for i, (x, y, z) in enumerate(cases):
            assert int(total[i]) == (x + y + z) % 2
            assert int(carry[i]) == (x + y + z) // 2

    def test_netlist_is_nine_gates(self):
        assert len(FULL_ADDER_NETLIST) == 9

    def test_gate_count_metered(self):
        counter = CycleCounter()
        ones = np.ones(4, dtype=bool)
        evaluate_netlist(FULL_ADDER_NETLIST,
                         {"a": ones, "b": ones, "cin": ones}, counter)
        assert counter.cycles == 9
        assert counter.row_events == 9 * 4

    def test_adder_functional(self, rng):
        alu = MagicAlu()
        a = rng.integers(0, 2**16, 100).astype(np.uint64)
        b = rng.integers(0, 2**16, 100).astype(np.uint64)
        out = from_bits(alu.add(to_bits(a, 16), to_bits(b, 16)))
        assert np.array_equal(out, a + b)

    def test_adder_cycles_match_formula(self):
        counter = CycleCounter()
        alu = MagicAlu(counter)
        alu.add(to_bits(np.array([1], dtype=np.uint64), 16),
                to_bits(np.array([2], dtype=np.uint64), 16))
        assert counter.cycles == add_cycles_magic(16) == 145

    def test_formulas(self):
        assert add_cycles_magic(32) == 289
        assert sub_cycles_magic(16) == 161
        with pytest.raises(ValueError):
            add_cycles_magic(0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MagicAlu().add(np.zeros((2, 8), dtype=bool),
                           np.zeros((2, 4), dtype=bool))


class TestMagicPolicy:
    def test_magic_stage_roughly_doubles(self):
        """MAGIC gates vs FELIX: the ~2x stage-latency gap that also
        explains BP-1's multiplier (13 N^2 vs 6.5 N^2)."""
        felix = PipelineModel.for_degree(256).stage_cycles
        magic_model = PipelineModel.for_degree(
            256, policy=MagicPolicy(7681, 16))
        ratio = magic_model.stage_cycles / felix
        assert 1.7 < ratio < 2.4

    def test_magic_costs_exceed_felix(self):
        magic = MagicPolicy(12289, 16)
        felix = CostPolicy(12289, 16)
        for op in ("add", "sub", "mul", "barrett", "montgomery"):
            assert getattr(magic, op)() > getattr(felix, op)()


class TestFaultInjection:
    def test_healthy_unit_matches_reference(self, rng):
        unit = FaultyVectorUnit(7681, 16)
        a = rng.integers(0, 7681, 32).astype(np.uint64)
        b = rng.integers(0, 7681, 32).astype(np.uint64)
        reducer = unit.kit.montgomery_reducer()
        expected = np.array([reducer.redc(int(x) * int(y))
                             for x, y in zip(a, b)], dtype=np.uint64)
        assert np.array_equal(unit.mul_mod(a, b), expected)

    def test_fault_blast_radius_is_its_row(self, rng):
        """A single bad cell corrupts exactly its own row - row-parallel
        PIM has no cross-row data paths."""
        unit = FaultyVectorUnit(7681, 16, [Fault(5, 0, FaultKind.FLIP)])
        a = rng.integers(1, 7681, 32).astype(np.uint64)
        b = rng.integers(1, 7681, 32).astype(np.uint64)
        assert unit.error_rows(a, b).tolist() == [5]

    def test_stuck_at_matching_value_is_silent(self):
        """Stuck-at-0 on a bit that is already 0 changes nothing."""
        a = np.array([0b0101], dtype=np.uint64)  # bit 0 (MSB side) is 0
        b = np.array([3], dtype=np.uint64)
        unit = FaultyVectorUnit(7681, 16, [Fault(0, 0, FaultKind.STUCK_AT_0)])
        assert len(unit.error_rows(a, b)) == 0

    def test_stuck_at_1_msb_always_corrupts(self, rng):
        unit = FaultyVectorUnit(7681, 16, [Fault(0, 0, FaultKind.STUCK_AT_1)])
        a = rng.integers(0, 7681, 8).astype(np.uint64)  # MSB of 16-bit always 0
        b = rng.integers(1, 7681, 8).astype(np.uint64)
        assert 0 in unit.error_rows(a, b)

    def test_out_of_field_fault_rejected(self):
        unit = FaultyVectorUnit(7681, 16, [Fault(99, 0, FaultKind.FLIP)])
        with pytest.raises(IndexError):
            unit.mul_mod(np.zeros(8, dtype=np.uint64),
                         np.zeros(8, dtype=np.uint64))

    def test_sensitivity_sweep_all_bits_matter(self):
        """With random operands every stored bit position influences the
        reduced product (mod-q arithmetic has no dead bits)."""
        sweep = fault_sensitivity_sweep(7681, 16, rows=16)
        assert len(sweep) == 16
        assert sum(sweep.values()) >= 15  # allow one coincidental masking
