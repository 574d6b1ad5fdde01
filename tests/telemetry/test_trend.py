"""Benchmark trend record: append, load, and the regression gate."""

import json
import subprocess

import pytest

from repro.telemetry.trend import (
    TREND_SCHEMA,
    TREND_VERSION,
    append_run,
    compare,
    current_commit,
    load_trend,
)


def metric(value, *, name="bandwidth", unit="GB/s", higher=True,
           tier1=True):
    return {"metric": name, "value": value, "unit": unit,
            "higher_is_better": higher, "tier1": tier1}


class TestAppendAndLoad:
    def test_fresh_file_created_schema_stamped(self, tmp_path):
        path = str(tmp_path / "trend.json")
        doc = append_run(path, {"table2": metric(95.0)},
                         commit="abc1234", date="2026-08-06T00:00:00Z")
        assert doc["schema"] == TREND_SCHEMA
        assert doc["version"] == TREND_VERSION
        (row,) = doc["runs"]
        assert row["commit"] == "abc1234"
        assert row["date"] == "2026-08-06T00:00:00Z"
        assert row["scale"] == "quick"
        assert row["metrics"]["table2"]["value"] == 95.0
        # And it round-trips from disk.
        assert load_trend(path) == doc

    def test_rows_append_in_order(self, tmp_path):
        path = str(tmp_path / "trend.json")
        append_run(path, {"e": metric(1.0)}, commit="a")
        doc = append_run(path, {"e": metric(2.0)}, commit="b")
        assert [r["commit"] for r in doc["runs"]] == ["a", "b"]

    def test_empty_metrics_leave_file_untouched(self, tmp_path):
        path = str(tmp_path / "trend.json")
        append_run(path, {})
        assert not (tmp_path / "trend.json").exists()

    def test_commit_defaults_to_head(self, tmp_path):
        path = str(tmp_path / "trend.json")
        doc = append_run(path, {"e": metric(1.0)})
        assert doc["runs"][0]["commit"] == current_commit() != ""

    def test_commit_marks_a_dirty_tree(self, tmp_path, monkeypatch):
        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t",
                 *args], cwd=tmp_path, check=True, capture_output=True,
                text=True).stdout.strip()

        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("a\n")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "seed")
        head = git("rev-parse", "--short", "HEAD")
        monkeypatch.chdir(tmp_path)
        # An untracked file leaves the tree clean.
        (tmp_path / "untracked.txt").write_text("x\n")
        assert current_commit() == head
        (tmp_path / "tracked.txt").write_text("b\n")
        assert current_commit() == f"{head}-dirty"

    def test_commit_outside_a_checkout_is_unknown(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        assert current_commit() == "unknown"

    def test_missing_file_loads_empty_document(self, tmp_path):
        doc = load_trend(str(tmp_path / "absent.json"))
        assert doc == {"schema": TREND_SCHEMA,
                       "version": TREND_VERSION, "runs": []}

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.update(schema="other/schema"), "schema"),
        (lambda d: d.update(version=99), "version"),
        (lambda d: d.update(runs={}), "runs"),
    ])
    def test_corrupt_files_rejected(self, tmp_path, mutate, match):
        path = tmp_path / "trend.json"
        doc = {"schema": TREND_SCHEMA, "version": TREND_VERSION,
               "runs": []}
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_trend(str(path))


def two_runs(prev_value, last_value, **kw):
    return {"schema": TREND_SCHEMA, "version": TREND_VERSION, "runs": [
        {"commit": "a", "date": "d1", "scale": "quick",
         "metrics": {"exp": metric(prev_value, **kw)}},
        {"commit": "b", "date": "d2", "scale": "quick",
         "metrics": {"exp": metric(last_value, **kw)}},
    ]}


class TestCompare:
    def test_single_run_is_not_comparable(self):
        doc = {"schema": TREND_SCHEMA, "version": TREND_VERSION,
               "runs": [{"metrics": {"e": metric(1.0)}}]}
        regressions, lines = compare(doc)
        assert regressions == []
        assert "nothing to compare" in lines[0]

    def test_higher_is_better_drop_regresses(self):
        regressions, lines = compare(two_runs(100.0, 85.0))
        (reg,) = regressions
        assert reg.experiment == "exp"
        assert reg.previous == 100.0 and reg.latest == 85.0
        assert reg.change == pytest.approx(-0.15)
        assert "REGRESSION" in "\n".join(lines)
        assert "-15.0%" in reg.describe()

    def test_higher_is_better_gain_passes(self):
        regressions, _ = compare(two_runs(100.0, 120.0))
        assert regressions == []

    def test_lower_is_better_rise_regresses(self):
        regressions, _ = compare(two_runs(200.0, 260.0, higher=False))
        (reg,) = regressions
        assert reg.change == pytest.approx(0.30)

    def test_lower_is_better_drop_passes(self):
        regressions, _ = compare(two_runs(200.0, 150.0, higher=False))
        assert regressions == []

    def test_within_threshold_passes(self):
        regressions, _ = compare(two_runs(100.0, 91.0))
        assert regressions == []

    def test_threshold_is_tunable(self):
        regressions, _ = compare(two_runs(100.0, 91.0), threshold=0.05)
        assert len(regressions) == 1

    @pytest.mark.parametrize("threshold", [float("nan"), -0.5,
                                           float("inf")])
    def test_out_of_range_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            compare(two_runs(100.0, 10.0), threshold=threshold)

    def test_zero_threshold_flags_any_harmful_move(self):
        regressions, _ = compare(two_runs(100.0, 99.0), threshold=0.0)
        assert len(regressions) == 1
        regressions, _ = compare(two_runs(100.0, 100.0), threshold=0.0)
        assert regressions == []

    def test_non_tier1_never_gates(self):
        regressions, lines = compare(two_runs(100.0, 10.0, tier1=False))
        assert regressions == []
        assert "REGRESSION" not in "\n".join(lines)

    def test_new_metric_has_no_baseline(self):
        doc = two_runs(1.0, 1.0)
        doc["runs"][-1]["metrics"]["fresh"] = metric(5.0)
        regressions, lines = compare(doc)
        assert regressions == []
        assert any("no baseline" in line for line in lines)

    def test_renamed_metric_not_compared(self):
        doc = two_runs(100.0, 100.0)
        doc["runs"][-1]["metrics"]["exp"] = metric(1.0, name="other")
        regressions, lines = compare(doc)
        assert regressions == []
        assert any("no baseline" in line for line in lines)

    def test_added_tier1_metric_warns(self):
        doc = two_runs(1.0, 1.0)
        doc["runs"][-1]["metrics"]["fresh"] = metric(5.0)
        _, lines = compare(doc)
        assert any("WARNING" in line and "appeared" in line
                   for line in lines)

    def test_added_non_tier1_metric_does_not_warn(self):
        doc = two_runs(1.0, 1.0)
        doc["runs"][-1]["metrics"]["fresh"] = metric(5.0, tier1=False)
        _, lines = compare(doc)
        assert not any("WARNING" in line for line in lines)

    def test_removed_tier1_metric_warns(self):
        doc = two_runs(1.0, 1.0)
        doc["runs"][-2]["metrics"]["gone"] = metric(7.0)
        regressions, lines = compare(doc)
        assert regressions == []       # a vanished metric cannot gate
        removed = [line for line in lines if "removed" in line]
        assert len(removed) == 1
        assert "gone" in removed[0]
        assert "WARNING" in removed[0] and "disappeared" in removed[0]

    def test_removed_non_tier1_metric_reported_without_warning(self):
        doc = two_runs(1.0, 1.0)
        doc["runs"][-2]["metrics"]["gone"] = metric(7.0, tier1=False)
        _, lines = compare(doc)
        removed = [line for line in lines if "removed" in line]
        assert len(removed) == 1
        assert "WARNING" not in removed[0]

    def test_renamed_metric_reported_as_removed_and_appeared(self):
        doc = two_runs(100.0, 100.0)
        doc["runs"][-1]["metrics"]["exp"] = metric(1.0, name="other")
        _, lines = compare(doc)
        joined = "\n".join(lines)
        assert "removed" in joined and "no baseline" in joined

    def test_only_latest_two_rows_compared(self):
        doc = two_runs(100.0, 99.0)
        doc["runs"].insert(0, {
            "commit": "old", "date": "d0", "scale": "quick",
            "metrics": {"exp": metric(500.0)}})
        regressions, _ = compare(doc)
        assert regressions == []


class TestCliGate:
    def test_repro_attr_compare_exit_codes(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        path = str(tmp_path / "trend.json")
        append_run(path, {"exp": metric(100.0)}, commit="a")
        append_run(path, {"exp": metric(50.0)}, commit="b")
        assert main(["trend", "--trend-file", path]) == 1
        assert "REGRESSION" in capsys.readouterr().out

        good = str(tmp_path / "good.json")
        append_run(good, {"exp": metric(100.0)}, commit="a")
        append_run(good, {"exp": metric(101.0)}, commit="b")
        assert main(["trend", "--trend-file", good]) == 0
        assert "no tier-1 regressions" in capsys.readouterr().out

    def test_repro_attr_compare_bad_file(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        path = tmp_path / "trend.json"
        path.write_text("{\"schema\": \"nope\"}")
        assert main(["trend", "--trend-file", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_nan_threshold_is_usage_error(self, tmp_path, capsys):
        # NaN compares false against everything, so as a threshold it
        # would pass this 90% tier-1 regression.
        from repro.telemetry.cli import main

        path = str(tmp_path / "trend.json")
        append_run(path, {"exp": metric(100.0)}, commit="a")
        append_run(path, {"exp": metric(10.0)}, commit="b")
        assert main(["trend", "--trend-file", path,
                     "--threshold", "nan"]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_negative_threshold_is_usage_error(self, tmp_path, capsys):
        # A negative threshold would flag an unchanged metric.
        from repro.telemetry.cli import main

        path = str(tmp_path / "trend.json")
        append_run(path, {"exp": metric(100.0)}, commit="a")
        append_run(path, {"exp": metric(100.0)}, commit="b")
        assert main(["trend", "--trend-file", path,
                     "--threshold", "-0.5"]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_committed_baseline_is_loadable(self):
        # The repo ships a baseline row so CI's trend gate has history.
        doc = load_trend("BENCH_trend.json")
        assert doc["runs"], "committed BENCH_trend.json must hold a row"
        for rec in doc["runs"][-1]["metrics"].values():
            assert {"metric", "value", "unit", "higher_is_better",
                    "tier1"} <= set(rec)
