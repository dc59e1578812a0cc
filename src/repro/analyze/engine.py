"""The analysis driver: gather files, parse, run rules, honour suppressions.

Inline suppression uses ``# repro: allow(RULE-ID[, RULE-ID...])`` on the
flagged line or the line directly above it; ``allow(*)`` silences every
rule for that line.  Suppressions are for *intentional* violations whose
safety argument fits in the surrounding code (e.g. a uint32 product proven
in range by a guard two lines up).  They are the one way to accept a
finding: every other finding gates.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .config import DEFAULT_CONFIG, AnalyzeConfig
from .context import ModuleContext
from .findings import Finding, Severity
from .registry import Rule, rules_by_id

__all__ = ["AnalysisReport", "Analyzer", "collect_python_files"]

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)")


def collect_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(sorted(p for p in path.rglob("*.py")
                              if "__pycache__" not in p.parts))
        elif path.suffix == ".py":
            out.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return out


@dataclass
class AnalysisReport:
    """Everything one run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: List[str] = field(default_factory=list)
    suppressed: int = 0

    @property
    def worst(self) -> Optional[Severity]:
        return max((f.severity for f in self.findings),
                   key=lambda s: s.rank, default=None)


class Analyzer:
    """Run a rule set over a file tree."""

    def __init__(self, rules: Optional[Iterable[str]] = None,
                 config: AnalyzeConfig = DEFAULT_CONFIG,
                 root: Optional[Path] = None):
        self.rules: List[Rule] = rules_by_id(list(rules) if rules else None)
        self.config = config
        self.root = (root or Path.cwd()).resolve()

    def _rel(self, path: Path) -> str:
        resolved = path.resolve()
        try:
            return resolved.relative_to(self.root).as_posix()
        except ValueError:
            return resolved.as_posix()

    def run(self, paths: Sequence[Path]) -> AnalysisReport:
        report = AnalysisReport()
        for path in collect_python_files([Path(p) for p in paths]):
            self._run_file(path, report)
        report.findings.sort(
            key=lambda f: (f.path, f.line, f.col, f.rule))
        return report

    def _run_file(self, path: Path, report: AnalysisReport) -> None:
        rel = self._rel(path)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError) as error:
            report.parse_errors.append(f"{rel}: {error}")
            return
        report.files_scanned += 1
        ctx = ModuleContext(path=rel, source=source, tree=tree)
        allows = _collect_allows(ctx.lines)
        for rule in self.rules:
            for finding in rule.check(ctx, self.config):
                if _is_allowed(finding, allows):
                    report.suppressed += 1
                else:
                    report.findings.append(finding)


def _collect_allows(lines: List[str]) -> dict:
    """line number -> set of allowed rule ids (or {'*'})."""
    allows: dict = {}
    for i, line in enumerate(lines, start=1):
        match = _ALLOW_RE.search(line)
        if match:
            ids = {part.strip() for part in match.group(1).split(",")
                   if part.strip()}
            allows[i] = ids
    return allows


def _is_allowed(finding: Finding, allows: dict) -> bool:
    for lineno in (finding.line, finding.line - 1):
        ids = allows.get(lineno)
        if ids and ("*" in ids or finding.rule in ids):
            return True
    return False
