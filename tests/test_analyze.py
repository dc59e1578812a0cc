"""Tests for ``repro.analyze``: the fixtures (the exact PR-3 bugs) must
be flagged with the expected rule ids, suppressions must behave, the CLI
must speak the documented exit codes, and the shipped ``src/repro`` tree
must scan clean.
"""

import json
import os
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.analyze import Analyzer, all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analyze"

ALL_RULE_IDS = [
    "MOD001", "MOD002", "MOD003",
    "ASY001", "ASY002", "ASY003", "ASY004",
    "ACC001", "ACC002", "ACC003",
    "OBS001",
]

# fixture file -> exact multiset of rule ids the analyzer must report
EXPECTED = {
    "pr3_batcher_bug.py": {"ASY001": 1},
    "pr3_admission_bug.py": {"ACC003": 1},
    "pr3_scheduler_bug.py": {"ACC002": 1},
    "pim/width_bug.py": {"MOD001": 1, "MOD002": 1, "MOD003": 1},
    "service_cancel_bug.py": {"ASY002": 1, "ASY003": 1, "ASY004": 2},
    "counter_bug.py": {"ACC001": 3},
    "obs_span_bug.py": {"OBS001": 2},
}


def analyze(paths, rules=None, root=None):
    report = Analyzer(rules=rules, root=root).run([Path(p) for p in paths])
    assert report.parse_errors == []
    return report


class TestRuleRegistry:
    def test_all_rules_registered(self):
        assert sorted(r.meta.id for r in all_rules()) == sorted(ALL_RULE_IDS)

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            Analyzer(rules=["NOPE999"])


class TestFixtures:
    """The committed fixtures reproduce the PR-3 bugs verbatim; every one
    must be flagged with exactly the expected rules - nothing missing,
    nothing spurious."""

    @pytest.mark.parametrize("fixture,expected", sorted(EXPECTED.items()))
    def test_fixture_flagged_exactly(self, fixture, expected):
        report = analyze([FIXTURES / fixture], root=FIXTURES)
        got = Counter(f.rule for f in report.findings)
        assert got == Counter(expected)

    def test_whole_fixture_tree(self):
        report = analyze([FIXTURES], root=FIXTURES)
        got = Counter(f.rule for f in report.findings)
        want = Counter()
        for counts in EXPECTED.values():
            want.update(counts)
        assert got == want

    def test_findings_carry_location_and_snippet(self):
        report = analyze([FIXTURES / "pr3_batcher_bug.py"], root=FIXTURES)
        (finding,) = report.findings
        assert finding.rule == "ASY001"
        assert finding.path == "pr3_batcher_bug.py"
        assert finding.line > 0
        assert "wait_for" in finding.snippet
        assert "pr3_batcher_bug.py" in finding.render()

    def test_control_samples_not_flagged(self):
        # the _ok functions in the width fixture must stay silent
        report = analyze([FIXTURES / "pim" / "width_bug.py"], root=FIXTURES)
        flagged_lines = {f.line for f in report.findings}
        source = (FIXTURES / "pim" / "width_bug.py").read_text().splitlines()
        for lineno in flagged_lines:
            ok_region = any(
                "_ok" in source[i]
                for i in range(max(0, lineno - 6), lineno)
                if source[i].lstrip().startswith("def ")
            )
            assert not ok_region, f"control sample flagged at line {lineno}"


MOD001_SNIPPET = """\
import numpy as np

def butterfly(top, twiddle, q):
    t = np.uint32(top)
    w = np.uint32(twiddle)
    return (t * w) % np.uint32(q)
"""


class TestSuppression:
    def _run(self, tmp_path, source):
        path = tmp_path / "kernel.py"
        path.write_text(source)
        return Analyzer(rules=["MOD001"], root=tmp_path).run([path])

    def test_unsuppressed_baseline_case(self, tmp_path):
        report = self._run(tmp_path, MOD001_SNIPPET)
        assert [f.rule for f in report.findings] == ["MOD001"]
        assert report.suppressed == 0

    def test_allow_on_flagged_line(self, tmp_path):
        source = MOD001_SNIPPET.replace(
            "% np.uint32(q)", "% np.uint32(q)  # repro: allow(MOD001)")
        report = self._run(tmp_path, source)
        assert report.findings == []
        assert report.suppressed == 1

    def test_allow_on_line_above(self, tmp_path):
        source = MOD001_SNIPPET.replace(
            "    return (t * w)",
            "    # repro: allow(MOD001)\n    return (t * w)")
        report = self._run(tmp_path, source)
        assert report.findings == []
        assert report.suppressed == 1

    def test_allow_star_silences_everything(self, tmp_path):
        source = MOD001_SNIPPET.replace(
            "% np.uint32(q)", "% np.uint32(q)  # repro: allow(*)")
        report = self._run(tmp_path, source)
        assert report.findings == []
        assert report.suppressed == 1

    def test_allow_other_rule_does_not_apply(self, tmp_path):
        source = MOD001_SNIPPET.replace(
            "% np.uint32(q)", "% np.uint32(q)  # repro: allow(ASY001)")
        report = self._run(tmp_path, source)
        assert [f.rule for f in report.findings] == ["MOD001"]
        assert report.suppressed == 0


def run_cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "analyze", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


class TestCli:
    def test_clean_tree_exits_zero(self):
        proc = run_cli("src/repro/analyze")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_findings_exit_one_with_json(self):
        proc = run_cli("tests/fixtures/analyze/pim", "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["ok"] is False
        assert sorted(f["rule"] for f in payload["findings"]) == [
            "MOD001", "MOD002", "MOD003"]
        assert payload["files_scanned"] == 1
        assert payload["parse_errors"] == []

    def test_unknown_rule_exits_two(self):
        proc = run_cli("src/repro/analyze", "--rules", "NOPE999")
        assert proc.returncode == 2
        assert "NOPE999" in proc.stderr

    def test_every_finding_gates_until_allowed(self, tmp_path):
        """No accepted-debt file: a finding fails the run until the code is
        fixed or the site carries ``# repro: allow(RULE)``."""
        target = tmp_path / "kernel.py"
        target.write_text(MOD001_SNIPPET)
        assert run_cli(str(target)).returncode == 1
        target.write_text(MOD001_SNIPPET.replace(
            "% np.uint32(q)", "% np.uint32(q)  # repro: allow(MOD001)"))
        proc = run_cli(str(target))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "1 suppressed" in proc.stdout
        target.write_text(MOD001_SNIPPET.replace("uint32", "uint64"))
        assert run_cli(str(target)).returncode == 0

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in ALL_RULE_IDS:
            assert rule_id in proc.stdout


class TestSelfCheck:
    """The acceptance gates: src/repro scans clean, fast enough to sit in
    CI."""

    def test_src_repro_clean_and_fast(self):
        started = time.perf_counter()
        report = Analyzer(root=REPO_ROOT).run([REPO_ROOT / "src" / "repro"])
        elapsed = time.perf_counter() - started
        assert report.parse_errors == []
        assert report.findings == [], [f.render() for f in report.findings]
        assert elapsed < 10.0
