"""Finding and rule metadata types for the ``repro.analyze`` framework.

A :class:`Finding` is one (rule, file, line) diagnostic.  Every finding
gates; ``# repro: allow(RULE)`` at the site is the one way to accept one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict

__all__ = ["Severity", "Finding", "RuleMeta"]


class Severity(Enum):
    """How a finding gates CI.

    ``ERROR`` findings encode invariants whose violation produces wrong
    results or lost requests; ``WARNING`` findings encode discipline whose
    violation has historically preceded such bugs; ``INFO`` is advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


@dataclass(frozen=True)
class RuleMeta:
    """Static description of one rule (also drives ``docs/LINTS.md``)."""

    id: str
    family: str          # "modmath" | "asyncio" | "accounting" | "obs"
    severity: Severity
    summary: str         # one line, shown in findings
    rationale: str       # which past bug / paper constraint it encodes


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule."""

    rule: str
    severity: Severity
    path: str            # repo-relative posix path
    line: int            # 1-based
    col: int             # 0-based
    message: str
    snippet: str = ""    # stripped source line, for reports

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.severity.value} {self.rule}: {self.message}")

    def to_json(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

