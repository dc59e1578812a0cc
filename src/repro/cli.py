"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's tables/figures, run a multiplication with
a hardware report, or dump the controller microcode - the quick way to
poke the reproduction without writing Python.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CryptoPIM (DAC 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("table1", "Table I: modulo-operation cycles"),
        ("table2", "Table II: CPU vs FPGA vs CryptoPIM"),
        ("fig4", "Figure 4: pipeline variants"),
        ("fig5", "Figure 5: pipelined vs non-pipelined"),
        ("fig6", "Figure 6: PIM baselines"),
        ("claims", "headline prose claims scoreboard"),
        ("variation", "Section IV-A Monte-Carlo robustness"),
        ("regress", "golden-value regression checks"),
        ("dse", "design-space exploration Pareto front"),
        ("security", "parameter security review"),
        ("summary", "one-screen reproduction summary"),
        ("all", "every table/figure above"),
    ):
        sub.add_parser(name, help=help_text)

    mult = sub.add_parser("multiply", help="run one multiplication")
    mult.add_argument("--n", type=int, default=1024, help="polynomial degree")
    mult.add_argument("--seed", type=int, default=0)
    mult.add_argument("--fidelity", choices=("fast", "bit"), default="fast")

    micro = sub.add_parser("microcode",
                           help="dump the controller trace of one multiplication")
    micro.add_argument("--n", type=int, default=256)
    micro.add_argument("--limit", type=int, default=24,
                       help="micro-ops to print (0 = all)")

    serve = sub.add_parser(
        "serve-bench",
        help="drive the async serving layer with synthetic load")
    serve.add_argument("--profile", default="polymul-1024",
                       help="workload profile (see repro.serve.PROFILES)")
    serve.add_argument("--requests", type=int, default=128)
    serve.add_argument("--concurrency", type=int, default=32)
    serve.add_argument("--rate", type=float, default=None,
                       help="open-loop Poisson rate/s (default: closed loop)")
    serve.add_argument("--tenants", type=int, default=1)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--queue-depth", type=int, default=128)
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="batching window deadline")
    serve.add_argument("--batch-capacity", type=int, default=None,
                       help="override the chip-derived window capacity")
    serve.add_argument("--chips", type=int, default=1,
                       help="size of the sharded chip fleet")
    serve.add_argument("--routing", choices=("affinity", "round_robin"),
                       default="affinity",
                       help="fleet routing policy (default: degree-affinity "
                            "with power-of-two-choices balancing)")
    serve.add_argument("--trace", metavar="PATH", default=None,
                       help="enable request tracing and write a Chrome "
                            "trace-event / Perfetto JSON file here")
    serve.add_argument("--trace-capacity", type=int, default=1024,
                       help="trace reservoir size (aggregates stay exact)")

    trace = sub.add_parser(
        "trace",
        help="render a saved serve-bench trace (slowest requests, "
             "stage breakdown, per-shard cycle lanes)")
    trace.add_argument("file", help="trace JSON written by serve-bench --trace")
    trace.add_argument("--top", type=int, default=5,
                       help="slowest requests to decompose")

    from .analyze.cli import add_analyze_parser
    add_analyze_parser(sub)

    return parser


def _cmd_multiply(args: argparse.Namespace) -> int:
    from .core.accelerator import CryptoPIM

    accelerator = CryptoPIM.for_degree(args.n, fidelity=args.fidelity)
    rng = np.random.default_rng(args.seed)
    a = rng.integers(0, accelerator.q, args.n)
    b = rng.integers(0, accelerator.q, args.n)
    result = accelerator.multiply(a, b)
    print(accelerator.last_report)
    print(f"result checksum: {int(result.sum()) % accelerator.q}")
    return 0


def _cmd_microcode(args: argparse.Namespace) -> int:
    from .core.controller import compile_multiplication
    from .core.pipeline import PipelineModel

    model = PipelineModel.for_degree(args.n)
    program = compile_multiplication(model)
    print(program.listing(limit=args.limit or None))
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import (
        PROFILES,
        CryptoPimService,
        ServiceConfig,
        run_closed_loop,
        run_open_loop,
    )

    if args.profile not in PROFILES:
        print(f"unknown profile {args.profile!r}; "
              f"choose from: {', '.join(sorted(PROFILES))}")
        return 2
    config = ServiceConfig(
        batch_capacity=args.batch_capacity,
        max_batch_wait_s=args.max_wait_ms / 1e3,
        queue_depth=args.queue_depth,
        num_chips=args.chips,
        routing=args.routing,
        tracing=args.trace is not None,
        trace_capacity=args.trace_capacity,
    )

    async def drive() -> int:
        async with CryptoPimService(config) as service:
            if args.rate is not None:
                report = await run_open_loop(
                    service, PROFILES[args.profile], rate_per_s=args.rate,
                    total_requests=args.requests, seed=args.seed,
                    tenants=args.tenants)
            else:
                report = await run_closed_loop(
                    service, PROFILES[args.profile],
                    total_requests=args.requests,
                    concurrency=args.concurrency, seed=args.seed,
                    tenants=args.tenants)
            print(report.render())
            print()
            print(service.render_summary())
            if args.trace is not None:
                from .obs import stage_table
                doc = service.write_trace(args.trace)
                print()
                print(stage_table(doc))
                print(f"\ntrace written to {args.trace} "
                      f"(open in ui.perfetto.dev or chrome://tracing)")
        return 0

    return asyncio.run(drive())


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .obs import render_trace_doc, validate_chrome_trace

    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot load trace {args.file!r}: {error}")
        return 2
    problems = validate_chrome_trace(doc)
    if problems:
        print(f"{args.file} is not a valid trace-event file:")
        for problem in problems[:10]:
            print(f"  {problem}")
        return 1
    print(render_trace_doc(doc, top=args.top))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "analyze":
        return args.func(args)
    from .eval import report as eval_report

    renderers = {
        "table1": eval_report.render_table1,
        "table2": eval_report.render_table2,
        "fig4": eval_report.render_figure4,
        "fig5": eval_report.render_figure5,
        "fig6": eval_report.render_figure6,
        "claims": eval_report.render_claims,
        "variation": eval_report.render_variation,
        "all": eval_report.render_all,
    }
    if args.command in renderers:
        print(renderers[args.command]())
        return 0
    if args.command == "regress":
        from .eval.regression import run_regressions
        results = run_regressions()
        for result in results:
            print(result)
        return 0 if all(r.ok for r in results) else 1
    if args.command == "dse":
        from .core.dse import enumerate_designs, pareto_front
        points = enumerate_designs(1024)
        front = pareto_front(points)
        for point in sorted(points, key=lambda p: -p.throughput_per_s):
            star = "*" if point in front else " "
            print(f"{star} {point.label():28s} "
                  f"tput={point.throughput_per_s:10,.0f}/s "
                  f"E={point.energy_uj:7.2f}uJ area={point.area_mm2:6.3f}mm^2")
        return 0
    if args.command == "summary":
        from .eval.summary import reproduction_summary
        print(reproduction_summary())
        return 0
    if args.command == "security":
        from .crypto.security import paper_parameter_review
        for estimate in paper_parameter_review().values():
            print(estimate)
        return 0
    if args.command == "multiply":
        return _cmd_multiply(args)
    if args.command == "microcode":
        return _cmd_microcode(args)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "trace":
        return _cmd_trace(args)
    raise AssertionError(args.command)  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
