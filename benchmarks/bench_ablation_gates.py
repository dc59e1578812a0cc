"""Ablation: gate technology (MAGIC NOR-only vs FELIX fused ops).

CryptoPIM's primitive costs assume FELIX-style single-cycle fused gates.
Re-pricing the identical architecture with MAGIC (NOR-only) gates shows
how much of the end-to-end win is technology vs architecture - and
explains the ~2x gap between the [35] multiplier (13N^2) and CryptoPIM's
(6.5N^2).
"""

from repro.baselines.pim_baselines import MagicPolicy
from repro.core.pipeline import PipelineModel
from repro.core.stages import CostPolicy
from repro.ntt.params import PAPER_DEGREES


def test_gate_technology_sweep(benchmark, save_artifact):
    def sweep():
        out = {}
        for n in PAPER_DEGREES:
            felix = PipelineModel.for_degree(n)
            magic = PipelineModel.for_degree(n, policy=MagicPolicy(
                felix.config.q, felix.config.bitwidth))
            out[n] = (felix.stage_cycles, magic.stage_cycles,
                      felix.throughput_per_s(True),
                      magic.throughput_per_s(True))
        return out

    results = benchmark(sweep)
    lines = ["Ablation: FELIX fused gates vs MAGIC NOR-only",
             "N       FELIX stage  MAGIC stage  FELIX tput  MAGIC tput  gap"]
    for n, (fs, ms, ft, mt) in results.items():
        lines.append(f"{n:6d}  {fs:11d}  {ms:11d}  {ft:10,.0f}  {mt:10,.0f}  "
                     f"{ms / fs:4.2f}x")
        assert 1.5 < ms / fs < 2.5
    save_artifact("ablation_gates", "\n".join(lines))


def test_magic_reduction_premium(benchmark):
    """MAGIC re-pricing of the shift-add reductions alone."""

    def measure():
        felix = CostPolicy(12289, 16)
        magic = MagicPolicy(12289, 16)
        return (felix.barrett(), magic.barrett(),
                felix.montgomery(), magic.montgomery())

    fb, mb, fm, mm = benchmark(measure)
    assert mb / fb > 1.4
    assert mm / fm > 1.4
