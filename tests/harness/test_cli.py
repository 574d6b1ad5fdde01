"""CLI behaviour: markdown output, profile-dir wiring, failure paths."""

import json
import os

import pytest

from repro.harness import cli
from repro.harness.registry import REGISTRY, Experiment
from repro.telemetry import validate_profile


def _one_grid(scale):
    return [{}]


def _one_point(*, scale):
    return [{"value": 1}]


def _boom_fold(rows, scale):
    raise RuntimeError("synthetic failure")


#: An experiment whose fold raises: the runner lets that propagate,
#: unlike a failing point, which becomes an error row.
FOLD_RAISES = Experiment(
    name="table1", title="fold raises", columns=("value",),
    point=_one_point, grid=_one_grid, fold=_boom_fold)


class TestMarkdownOutput:
    def test_creates_missing_parent_directories(self, tmp_path, capsys):
        target = tmp_path / "deep" / "nested" / "results.md"
        rc = cli.main(["table1", "--markdown", str(target)])
        assert rc == 0
        text = target.read_text()
        assert text.startswith("# Reproduction results")
        assert "wall time:" in text

    def test_failed_experiment_writes_partial_markdown(
            self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "results.md"
        monkeypatch.setitem(REGISTRY, "table1", FOLD_RAISES)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            cli.main(["table1", "--markdown", str(target)])
        text = target.read_text()
        assert "PARTIAL" in text
        assert "table1 — FAILED" in text
        assert "partial results" in capsys.readouterr().err

    def test_failure_without_markdown_still_raises(self, monkeypatch,
                                                   capsys):
        monkeypatch.setitem(REGISTRY, "table1", FOLD_RAISES)
        with pytest.raises(RuntimeError):
            cli.main(["table1"])


class TestProfileDir:
    def test_profiles_written_and_schema_valid(self, tmp_path, capsys):
        rc = cli.main(["table1", "--profile-dir", str(tmp_path)])
        assert rc == 0
        out_dir = tmp_path / "table1"
        profiles = sorted(out_dir.glob("profile-*.json"))
        traces = sorted(out_dir.glob("trace-*.json"))
        assert profiles
        assert traces
        for path in profiles:
            validate_profile(json.loads(path.read_text()))
        # the textual summary reaches the terminal too
        assert "warp stalls" in capsys.readouterr().out

    def test_no_profiles_without_flag(self, tmp_path, capsys):
        rc = cli.main(["table1"])
        assert rc == 0
        assert not os.listdir(tmp_path)


class TestEvictionPolicyFlag:
    def test_policy_reaches_experiments_that_take_it(self, capsys):
        rc = cli.main(["ablation_eviction", "--eviction-policy", "lru"])
        assert rc == 0
        out = capsys.readouterr().out
        # The sweep collapsed to the requested policy only.
        assert "lru" in out
        assert "fifo" not in out and "random" not in out

    def test_experiments_without_the_knob_still_run(self, capsys):
        rc = cli.main(["table1", "--eviction-policy", "lru"])
        assert rc == 0

    def test_unknown_policy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["ablation_eviction", "--eviction-policy", "mru"])


class TestArgErrors:
    def test_unknown_experiment_is_an_error(self, capsys):
        assert cli.main(["not-an-experiment"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_no_experiments_is_an_error(self, capsys):
        assert cli.main([]) == 2
