"""Parallel runner: determinism across job counts, worker-failure
capture, seeding, and the CLI exit-code contract.

The synthetic experiments live at module level so spawn workers can
unpickle their point functions by reference (``tests.harness`` is a
package, so the module imports cleanly in a fresh interpreter).
"""

import json

import pytest

from repro.harness import cli
from repro.harness.registry import REGISTRY, Column, Experiment
from repro.harness.runner import (
    DEFAULT_BASE_SEED,
    ExperimentPointError,
    Instrumentation,
    point_seed,
    run_experiment,
)
from repro.telemetry import validate_profile

# ----------------------------------------------------------------------
# Synthetic experiments (module-level for spawn picklability)
# ----------------------------------------------------------------------


def _synth_grid(scale):
    return [{"value": v} for v in (1, 2, 3, 4)]


def _synth_point(*, scale, value):
    return [{"value": value, "square": value * value}]


def _crashy_point(*, scale, value):
    if value == 3:
        raise RuntimeError(f"synthetic crash at value={value}")
    return [{"value": value, "square": value * value}]


SYNTH = Experiment(
    name="synth", title="synthetic squares",
    columns=(Column("value", role="param"),
             Column("square", role="measured")),
    point=_synth_point, grid=_synth_grid)

CRASHY = Experiment(
    name="crashy", title="synthetic squares, one point crashes",
    columns=(Column("value", role="param"),
             Column("square", role="measured")),
    point=_crashy_point, grid=_synth_grid)


class TestSeeding:
    def test_seed_is_stable(self):
        a = point_seed("table1", 3, {"op": "read"})
        b = point_seed("table1", 3, {"op": "read"})
        assert a == b
        # Pinned: the seed derivation is part of the determinism
        # contract (changing it silently would change every result).
        assert a == point_seed("table1", 3, {"op": "read"},
                               DEFAULT_BASE_SEED)

    def test_seed_separates_points(self):
        seeds = {point_seed("table1", i, {"op": op})
                 for i in range(4) for op in ("read", "inc")}
        assert len(seeds) == 8

    def test_base_seed_changes_everything(self):
        assert point_seed("x", 0, {"a": 1}, base_seed=1) \
            != point_seed("x", 0, {"a": 1}, base_seed=2)


class TestDeterminism:
    def test_jobs_1_and_4_rows_identical_synthetic(self):
        serial = run_experiment(SYNTH, jobs=1, progress=False)
        parallel = run_experiment(SYNTH, jobs=4, progress=False)
        assert serial.result.rows == parallel.result.rows
        assert serial.result.rows == [
            {"value": v, "square": v * v} for v in (1, 2, 3, 4)]

    def test_jobs_1_and_4_identical_on_real_experiment(self):
        exp = REGISTRY["table1"]
        instrument = Instrumentation(profile=True, trace=False)
        serial = run_experiment(exp, jobs=1, instrument=instrument,
                                progress=False)
        parallel = run_experiment(exp, jobs=4, instrument=instrument,
                                  progress=False)
        assert serial.result.rows == parallel.result.rows
        assert serial.result.columns == parallel.result.columns
        # Merged suite profiles are equivalent up to the run section
        # (worker counts legitimately differ).
        for report in (serial, parallel):
            validate_profile(report.merged)
            assert report.merged["version"] == 8
        s, p = dict(serial.merged), dict(parallel.merged)
        s_run, p_run = s.pop("run"), p.pop("run")
        assert s == p
        assert s_run["workers"]["points"] \
            == p_run["workers"]["points"] == len(serial.outcomes)
        assert p_run["workers"]["jobs"] == 4


class TestFailureCapture:
    def test_crashed_point_spares_siblings(self):
        report = run_experiment(CRASHY, jobs=2, progress=False)
        assert not report.ok
        assert report.result.rows == [
            {"value": v, "square": v * v} for v in (1, 2, 4)]
        (err,) = report.result.errors
        assert err["params"] == {"value": 3}
        assert "synthetic crash" in err["error"]
        assert "RuntimeError" in err["traceback"]

    def test_serial_capture_matches_parallel(self):
        serial = run_experiment(CRASHY, jobs=1, progress=False)
        parallel = run_experiment(CRASHY, jobs=2, progress=False)
        assert serial.result.rows == parallel.result.rows
        assert [e["params"] for e in serial.result.errors] \
            == [e["params"] for e in parallel.result.errors]

    def test_point_error_summarises_first_failure(self):
        report = run_experiment(CRASHY, jobs=1, progress=False)
        exc = ExperimentPointError("crashy", report.result.errors)
        assert "crashy" in str(exc)
        assert "value" in str(exc)
        assert exc.errors is report.result.errors


class TestCliExitCodes:
    def _install(self, monkeypatch, exp):
        monkeypatch.setitem(REGISTRY, "table1", exp)

    def test_error_rows_exit_nonzero_without_losing_rows(
            self, monkeypatch, capsys):
        self._install(monkeypatch, CRASHY)
        rc = cli.main(["table1"])
        assert rc == 1
        captured = capsys.readouterr()
        # Sibling rows made it to the table; the failure is explicit.
        assert "16" in captured.out
        assert "synthetic crash" in captured.out
        assert "synthetic crash" in captured.err

    def test_clean_run_exits_zero(self, monkeypatch, capsys):
        self._install(monkeypatch, SYNTH)
        assert cli.main(["table1"]) == 0

    def test_jobs_flag_reaches_runner(self, monkeypatch, capsys,
                                      tmp_path):
        self._install(monkeypatch, SYNTH)
        target = tmp_path / "results.md"
        rc = cli.main(["table1", "--jobs", "2", "--markdown",
                       str(target)])
        assert rc == 0
        assert "2 workers" in capsys.readouterr().out
        assert "| 16 |" in target.read_text()

    def test_markdown_records_failed_points(self, monkeypatch, capsys,
                                            tmp_path):
        self._install(monkeypatch, CRASHY)
        target = tmp_path / "results.md"
        assert cli.main(["table1", "--markdown", str(target)]) == 1
        text = target.read_text()
        assert "failed point" in text
        assert "synthetic crash" in text


class TestSuiteProfileOnDisk:
    def test_cli_writes_current_schema_suite_profile(self, tmp_path,
                                                capsys):
        rc = cli.main(["table1", "--profile-dir", str(tmp_path),
                       "--jobs", "2"])
        assert rc == 0
        path = tmp_path / "table1" / "suite-profile.json"
        doc = json.loads(path.read_text())
        validate_profile(doc)
        assert doc["version"] == 8
        workers = doc["run"]["workers"]
        assert workers["jobs"] == 2
        assert workers["points"] == len(REGISTRY["table1"].grid("quick"))
        assert workers["launches"] >= workers["points"]
        assert workers["errors"] == 0


class TestKeywords:
    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_experiment(SYNTH, jobs=1, progress=False,
                           tracer=object())

    def test_profile_kwarg_rejected(self):
        # Observation switches travel only in the Instrumentation
        # bundle.
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_experiment(SYNTH, jobs=1, progress=False, profile=True)
