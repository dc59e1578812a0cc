"""The ``repro analyze`` subcommand.

Exit codes: 0 = clean, 1 = gating findings (every unsuppressed finding
gates, as does a parse error), 2 = usage errors (unknown rule ids, bad
paths).  ``# repro: allow(RULE)`` on or above a line is the one way to
accept a finding.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from .engine import Analyzer
from .registry import all_rules

__all__ = ["add_analyze_parser", "run_analyze"]


def add_analyze_parser(subparsers: argparse._SubParsersAction) -> None:
    p = subparsers.add_parser(
        "analyze",
        help="run the repo-specific static-analysis rules",
        description=(
            "AST-based checks for the bug classes this repo has fixed by "
            "hand: modular-arithmetic width hazards, asyncio "
            "cancellation/ownership races, and cycle-accounting "
            "violations. See docs/LINTS.md for the rule catalogue."),
    )
    p.add_argument("paths", nargs="*", default=["src/repro"],
                   help="files or directories to scan (default: src/repro)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default: text)")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--list-rules", action="store_true",
                   help="list registered rules and exit")
    p.set_defaults(func=run_analyze)


def run_analyze(args: argparse.Namespace) -> int:
    if args.list_rules:
        return _list_rules(args)

    rule_ids: Optional[List[str]] = None
    if args.rules:
        rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()]

    started = time.perf_counter()
    try:
        analyzer = Analyzer(rules=rule_ids)
        report = analyzer.run([Path(p) for p in args.paths])
    except (KeyError, FileNotFoundError) as error:
        print(f"analyze: {error}", file=sys.stderr)
        return 2

    elapsed = time.perf_counter() - started
    failed = bool(report.findings) or bool(report.parse_errors)

    if args.format == "json":
        payload = {
            "files_scanned": report.files_scanned,
            "elapsed_seconds": round(elapsed, 3),
            "findings": [f.to_json() for f in report.findings],
            "parse_errors": report.parse_errors,
            "suppressed": report.suppressed,
            "ok": not failed,
        }
        print(json.dumps(payload, indent=2))
        return 1 if failed else 0

    for error in report.parse_errors:
        print(f"parse error: {error}")
    for finding in report.findings:
        print(finding.render())
        if finding.snippet:
            print(f"    {finding.snippet}")
    print(f"analyze: {report.files_scanned} file(s), "
          f"{len(report.findings)} finding(s), "
          f"{report.suppressed} suppressed [{elapsed:.2f}s]")
    return 1 if failed else 0


def _list_rules(args: argparse.Namespace) -> int:
    rules = all_rules()
    if args.format == "json":
        print(json.dumps([
            {
                "id": r.meta.id,
                "family": r.meta.family,
                "severity": r.meta.severity.value,
                "summary": r.meta.summary,
                "rationale": r.meta.rationale,
            }
            for r in rules
        ], indent=2))
        return 0
    for r in rules:
        print(f"{r.meta.id}  [{r.meta.family}/{r.meta.severity.value}]  "
              f"{r.meta.summary}")
    return 0
