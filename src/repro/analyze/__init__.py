"""repro.analyze: repo-specific static analysis for the bug classes this
codebase keeps fixing by hand.

Three rule families (see ``docs/LINTS.md`` for the full catalogue):

* **modmath** (MOD001-003): numpy datapath-width hazards around modular
  reduction - products that can wrap their dtype before the ``% q``,
  signed arrays in hot kernels, narrowing casts without a dominating
  reduction.
* **asyncio** (ASY001-004): the serving layer's cancellation and
  ownership discipline - ``wait_for(queue.get())`` item loss,
  fire-and-forget tasks, partial cancellation failover, foreign mutation
  of scheduler-owned state.
* **accounting** (ACC001-003): cycle-ledger integrity - counters mutated
  outside charge methods, reconfiguration cost folded into busy/idle,
  token buckets drained before backpressure gates.

Run via ``python -m repro analyze [paths]``; every finding gates, and
``# repro: allow(RULE-ID)`` at the site is the one way to accept one.
"""

from .config import DEFAULT_CONFIG, AnalyzeConfig
from .context import DType, ModuleContext
from .engine import AnalysisReport, Analyzer, collect_python_files
from .findings import Finding, RuleMeta, Severity
from .registry import Rule, all_rules, register, rules_by_id

__all__ = [
    "AnalysisReport",
    "AnalyzeConfig",
    "Analyzer",
    "DEFAULT_CONFIG",
    "DType",
    "Finding",
    "ModuleContext",
    "Rule",
    "RuleMeta",
    "Severity",
    "all_rules",
    "collect_python_files",
    "register",
    "rules_by_id",
]
