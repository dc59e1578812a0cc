"""Design-space exploration: the paper's evaluation in five minutes.

Walks the reproduction's analytic models through the paper's main design
questions and prints compact versions of Figures 4-6 plus the chip
configurability table - a tour of everything `repro.eval` regenerates.

Run:  python examples/design_space_exploration.py
"""

from repro import PipelineModel, PipelineVariant
from repro.arch.chip import CryptoPimChip
from repro.baselines.pim_baselines import baseline_models
from repro.eval.claims import headline_claims
from repro.ntt.params import PAPER_DEGREES


def pipeline_variants() -> None:
    print("=== Which pipeline? (Figure 4, n=256) ===")
    print(f"{'variant':16s} {'blocks':>6s} {'stage cy':>9s} "
          f"{'P-latency us':>12s} {'throughput/s':>13s}")
    for variant in PipelineVariant:
        model = PipelineModel.for_degree(256, variant=variant)
        print(f"{variant.value:16s} {model.depth:6d} {model.stage_cycles:9d} "
              f"{model.latency_us(True):12.2f} "
              f"{model.throughput_per_s(True):13,.0f}")
    print("-> splitting the multiplier into its own block and fusing "
          "Montgomery+add/sub+Barrett wins.\n")


def pipelining_tradeoff() -> None:
    print("=== To pipeline or not? (Figure 5) ===")
    print(f"{'n':>6s} {'NP lat us':>10s} {'P lat us':>10s} "
          f"{'NP tput':>10s} {'P tput':>10s} {'gain':>6s}")
    for n in PAPER_DEGREES:
        np_model = PipelineModel.for_degree(
            n, variant=PipelineVariant.AREA_EFFICIENT)
        p_model = PipelineModel.for_degree(n)
        gain = p_model.throughput_per_s(True) / np_model.throughput_per_s(False)
        print(f"{n:6d} {np_model.latency_us(False):10.2f} "
              f"{p_model.latency_us(True):10.2f} "
              f"{np_model.throughput_per_s(False):10,.0f} "
              f"{p_model.throughput_per_s(True):10,.0f} {gain:5.1f}x")
    print("-> ~30-40x throughput for ~10-55% latency, ~1.5% energy.\n")


def baseline_comparison() -> None:
    print("=== Why each optimisation matters (Figure 6, n=1024) ===")
    models = baseline_models(1024)
    base = models["BP-1"].latency_us(False)
    for label, model in models.items():
        lat = model.latency_us(False)
        print(f"{label:10s} {lat:10.1f} us   ({base / lat:5.2f}x over BP-1)")
    print("-> fast multiplier ~2x, shift-add reductions ~5x more, "
          "width-optimisation another ~1.1x.\n")


def chip_configurability() -> None:
    print("=== One chip, every degree (Section III-D.2) ===")
    chip = CryptoPimChip()
    print(f"{'n':>6s} {'banks/mult':>10s} {'parallel mults':>14s} "
          f"{'segments':>8s} {'chip mult/s':>12s}")
    for n in (256, 1024, 4096, 32768, 65536):
        cfg = chip.configure(n)
        per_pipe = PipelineModel.for_degree(min(n, 32768)).throughput_per_s(True)
        print(f"{n:6d} {cfg.bank_plan.banks_per_multiplication:10d} "
              f"{cfg.superbanks:14d} "
              f"{cfg.segments_per_polynomial:8d} "
              f"{chip.aggregate_throughput(n, per_pipe):12,.0f}")
    print()


def scoreboard() -> None:
    print("=== Reproduction scoreboard (paper prose vs this model) ===")
    for claim in headline_claims():
        flag = "ok " if claim.within(0.25) else "dev"
        print(f"[{flag}] {claim.name:42s} paper {claim.paper_value:8.1f}  "
              f"measured {claim.measured_value:8.1f}")


if __name__ == "__main__":
    pipeline_variants()
    pipelining_tradeoff()
    baseline_comparison()
    chip_configurability()
    scoreboard()
