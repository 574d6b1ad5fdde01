"""Baseline ratchet + SARIF export: identity, round-trip, CLI modes."""

import json
import subprocess
import sys
import textwrap

from repro.analysis import baseline, sarif
from repro.analysis.linter import lint_source
from repro.analysis.model import Finding


def finding(rule="shared-race", path="src/x.py", line=10, col=4,
            function="kernel", message="something racy"):
    return Finding(rule=rule, path=path, line=line, col=col,
                   function=function, message=message)


class TestFingerprint:
    def test_line_and_column_independent(self):
        # The whole point of the ratchet: edits above a finding must
        # not churn its identity.
        a = finding(line=10, col=4)
        b = finding(line=99, col=0)
        assert baseline.fingerprint(a) == baseline.fingerprint(b)

    def test_divergence_messages_survive_lines_added_above(self):
        # A guard's absolute line in the message would re-fingerprint
        # the finding whenever code above it moves.
        kernel = textwrap.dedent("""
            def kernel(ctx, addr):
                if ctx.warp_in_block == 0:
                    yield from ctx.syncthreads()
                if ctx.lane == 0:
                    yield from ctx.load(addr, "f4")
        """)
        before = lint_source("k.py", kernel)
        after = lint_source("k.py", "\n" * 7 + kernel)
        assert {f.rule for f in before} \
            == {"barrier-divergence", "divergent-yield"}
        assert [f.line for f in after] == [f.line + 7 for f in before]
        assert [baseline.fingerprint(f) for f in after] \
            == [baseline.fingerprint(f) for f in before]

    def test_sensitive_to_rule_path_function_message(self):
        base = baseline.fingerprint(finding())
        assert baseline.fingerprint(finding(rule="lock-order")) != base
        assert baseline.fingerprint(finding(path="src/y.py")) != base
        assert baseline.fingerprint(finding(function="other")) != base
        assert baseline.fingerprint(finding(message="else")) != base

    def test_stable_format(self):
        fp = baseline.fingerprint(finding())
        assert len(fp) == 16
        assert int(fp, 16) >= 0


class TestRoundTrip:
    def test_write_load_compare(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        old = [finding(), finding(rule="lock-order", message="inv")]
        baseline.write(path, old)

        doc = json.loads((tmp_path / "baseline.json").read_text())
        assert doc["version"] == baseline.VERSION
        assert len(doc["findings"]) == 2

        entries = baseline.load(path)
        # Same findings: nothing new, nothing stale.
        new, stale = baseline.compare(old, entries)
        assert new == [] and stale == {}

        # One fixed, one introduced.
        now = [finding(), finding(rule="divergent-yield",
                                  message="fresh bug")]
        new, stale = baseline.compare(now, entries)
        assert [f.rule for f in new] == ["divergent-yield"]
        assert len(stale) == 1
        [entry] = stale.values()
        assert entry["rule"] == "lock-order"

    def test_duplicate_findings_fold(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        baseline.write(path, [finding(line=1), finding(line=2)])
        assert len(baseline.load(path)) == 1

    def test_missing_or_corrupt_file_loads_empty(self, tmp_path):
        assert baseline.load(str(tmp_path / "absent.json")) == {}
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert baseline.load(str(bad)) == {}


class TestSarif:
    def test_document_shape(self):
        findings = [finding(),
                    finding(rule="parse-error", function="",
                            message="syntax error", line=0)]
        doc = sarif.to_sarif(findings, errors=[("src/x.py", "boom")])
        assert doc["version"] == "2.1.0"
        [run] = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = {r["id"] for r in driver["rules"]}
        assert {"shared-race", "lock-order", "barrier-divergence",
                "parse-error"} <= rule_ids
        [note] = run["invocations"][0]["toolExecutionNotifications"]
        assert note["message"]["text"] == "boom"

    def test_columns_are_one_based_and_lines_clamped(self):
        doc = sarif.to_sarif([finding(line=0, col=0)])
        [result] = doc["runs"][0]["results"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 1      # SARIF forbids line 0
        assert region["startColumn"] == 1    # 0-based AST col + 1

    def test_fingerprint_matches_baseline_identity(self):
        f = finding()
        doc = sarif.to_sarif([f])
        [result] = doc["runs"][0]["results"]
        assert result["partialFingerprints"]["reproLint/v1"] \
            == baseline.fingerprint(f)

    def test_severity_split(self):
        doc = sarif.to_sarif([finding(), finding(rule="parse-error")])
        levels = {r["ruleId"]: r["level"]
                  for r in doc["runs"][0]["results"]}
        assert levels["parse-error"] == "error"
        assert levels["shared-race"] == "warning"


class TestCLIBaselineModes:
    def _run(self, *argv, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *argv],
            capture_output=True, text=True, cwd=cwd)

    BUGGY = ("def kernel(ctx, a):\n"
             "    ctx.load(a, 'f4')\n"
             "    yield from ctx.fence()\n")

    def test_update_then_check_then_ratchet(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text(self.BUGGY)
        bl = tmp_path / "bl.json"

        # Baseline the existing debt: exit 0.
        proc = self._run(str(src), "--update-baseline",
                         "--baseline", str(bl))
        assert proc.returncode == 0, proc.stderr
        assert "1 finding(s)" in proc.stderr

        # Same debt, baseline applied: clean exit, nothing shown.
        proc = self._run(str(src), "--baseline", str(bl),
                         "--format=json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["findings"] == []
        assert doc["baselined"] == 1

        # New debt on top: only the new finding fails the run.
        src.write_text(self.BUGGY +
                       "def kernel2(ctx, a):\n"
                       "    ctx.store(a, 0, 'f4')\n"
                       "    yield from ctx.fence()\n")
        proc = self._run(str(src), "--baseline", str(bl),
                         "--format=json")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert [f["function"] for f in doc["findings"]] == ["kernel2"]
        assert doc["baselined"] == 1

        # Fixed-but-not-removed debt: warn (stale), still exit 0.
        src.write_text("def kernel(ctx, a):\n"
                       "    v = yield from ctx.load(a, 'f4')\n")
        proc = self._run(str(src), "--baseline", str(bl))
        assert proc.returncode == 0
        assert "no longer matches any finding" in proc.stderr

    def test_sarif_file_is_written(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text(self.BUGGY)
        out = tmp_path / "lint.sarif"
        proc = self._run(str(src), "--sarif", str(out))
        assert proc.returncode == 1      # finding still fails the run
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["results"][0]["ruleId"] \
            == "missing-yield-from"

    def test_effects_conflicts_with_no_interprocedural(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("def kernel(ctx, n):\n"
                       "    yield from ctx.sleep(n)\n")
        proc = self._run(str(src), "--no-interprocedural",
                         "--effects", "-")
        assert proc.returncode == 2
