"""Ablation: architectural knobs - switch cost, block size, chip size.

The paper fixes the fixed-function switch (3 connections per row,
3N-cycle transfers), the 512x512 block and the 128-bank chip.  These
sweeps quantify the sensitivity of the headline numbers to each choice.
"""

from repro.arch.bank import plan_bank
from repro.arch.chip import CryptoPimChip
from repro.core.config import PipelineVariant
from repro.core.pipeline import PipelineModel
from repro.core.stages import CostPolicy
from repro.pim.logic import transfer_cycles


class SwitchCostPolicy(CostPolicy):
    """CryptoPIM policy with a scaled switch-transfer cost.

    ``factor = 1`` is the paper's fixed-function switch; larger factors
    model heavier interconnect (a full crossbar switch would pay both
    area and latency).
    """

    def __init__(self, q: int, bitwidth: int, factor: float):
        super().__init__(q, bitwidth)
        self.factor = factor

    def block_overhead(self) -> int:
        transfer = int(round(self.factor * transfer_cycles(self.bitwidth)))
        return transfer + 7 * self.bitwidth


def test_switch_cost_sensitivity(benchmark, save_artifact):
    def sweep():
        out = {}
        for factor in (0.0, 1.0, 2.0, 4.0, 8.0):
            model = PipelineModel.for_degree(
                1024, policy=SwitchCostPolicy(12289, 16, factor))
            out[factor] = (model.stage_cycles,
                           model.throughput_per_s(True))
        return out

    results = benchmark(sweep)
    lines = ["Ablation: switch-transfer cost factor (n=1024)",
             "factor  stage cycles  throughput (/s)"]
    for factor, (stage, tput) in results.items():
        lines.append(f"{factor:6.1f}  {stage:12d}  {tput:15,.0f}")
    # throughput degrades monotonically with switch cost
    tputs = [v[1] for v in results.values()]
    assert tputs == sorted(tputs, reverse=True)
    # even an 8x heavier switch costs < 25% throughput: the multiplier
    # dominates the stage, which is why the cheap fixed-function switch
    # is sufficient (the paper's area argument)
    assert tputs[-1] / tputs[0] > 0.75
    save_artifact("ablation_switch", "\n".join(lines))


def test_block_size_sensitivity(benchmark, save_artifact):
    def sweep():
        return {width: plan_bank(32768, bank_width=width)
                for width in (128, 256, 512, 1024)}

    plans = benchmark(sweep)
    lines = ["Ablation: block rows (bank width) at n=32k",
             "rows   banks/mult  total blocks"]
    for width, plan in plans.items():
        lines.append(f"{width:5d}  {plan.banks_per_multiplication:10d}  "
                     f"{plan.total_blocks:12d}")
    assert plans[512].banks_per_multiplication == 128  # paper design point
    assert (plans[256].banks_per_multiplication
            == 2 * plans[512].banks_per_multiplication)
    save_artifact("ablation_blocksize", "\n".join(lines))


def test_chip_size_sweep(benchmark, save_artifact):
    """Aggregate chip throughput vs bank budget for the 1024-degree
    public-key workload (the configurable-architecture payoff)."""
    per_pipeline = PipelineModel.for_degree(1024).throughput_per_s(True)

    def sweep():
        return {
            banks: CryptoPimChip(total_banks=banks).aggregate_throughput(
                1024, per_pipeline)
            for banks in (4, 16, 64, 128, 256)
        }

    results = benchmark(sweep)
    lines = ["Ablation: chip bank budget (n=1024 aggregate throughput)",
             "banks  mult/s"]
    for banks, tput in results.items():
        lines.append(f"{banks:5d}  {tput:12,.0f}")
    values = list(results.values())
    assert values == sorted(values)
    assert results[256] == 2 * results[128]
    save_artifact("ablation_chipsize", "\n".join(lines))


def test_variant_energy_ablation(benchmark, save_artifact):
    """Energy of each pipeline variant (the pipelining energy story)."""

    def sweep():
        out = {}
        for variant in PipelineVariant:
            model = PipelineModel.for_degree(1024, variant=variant)
            out[variant.value] = model.report(
                pipelined=variant is not PipelineVariant.AREA_EFFICIENT
            ).energy_uj
        return out

    energies = benchmark(sweep)
    lines = ["Ablation: per-variant energy (n=1024)", "variant  energy (uJ)"]
    for variant, energy in energies.items():
        lines.append(f"{variant:15s}  {energy:8.2f}")
    assert energies["cryptopim"] < 1.05 * energies["area-efficient"]
    save_artifact("ablation_variant_energy", "\n".join(lines))
