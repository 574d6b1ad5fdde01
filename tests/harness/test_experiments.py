"""Tests for the experiment harness (fast experiments only; the heavy
sweeps run in benchmarks/)."""

import math

import pytest

from repro.harness import REGISTRY, format_result, run_experiment
from repro.harness.experiments import (
    _EXPERIMENT_ORDER,
    TABLE1_PAPER,
    ExperimentResult,
)
from repro.harness.reporting import format_markdown
from repro.harness.runner import Instrumentation, point_seed, run_point


def run(name: str) -> ExperimentResult:
    """Run a registered experiment serially at quick scale; every
    point must succeed."""
    report = run_experiment(REGISTRY[name], progress=False)
    assert report.ok, report.result.errors
    return report.result


class TestRegistry:
    def test_all_tables_and_figures_present(self):
        expected = {"table1", "table2", "table3", "figure6a", "figure6b",
                    "figure6c", "figure7", "figure9", "unaligned",
                    "ablation_prefetch", "ablation_batching",
                    "ablation_registers", "ablation_eviction",
                    "ablation_readahead", "ablation_future_hw",
                    "ablation_io_preemption"}
        assert expected <= set(REGISTRY)

    def test_listing_order_holds_every_registered_id(self):
        assert sorted(_EXPERIMENT_ORDER) == sorted(REGISTRY)
        assert len(set(_EXPERIMENT_ORDER)) == len(_EXPERIMENT_ORDER)

    def test_registry_entries_accept_scale(self):
        report = run_experiment(REGISTRY["table1"], scale="quick",
                                progress=False)
        assert isinstance(report.result, ExperimentResult)


#: Registered id -> index of its cheapest quick grid point (0.01 to
#: 1.5 s each; a baseline point where the fold derives a ratio).
#: ``table3`` and ``figure9`` points take 8-15 s; their runners are
#: pinned by ``tests/gpu/golden_collage.json`` instead.
CHEAP_POINT = {
    "table1": 1, "table2": 0, "figure6a": 20, "figure6b": 0,
    "figure6c": 0, "figure7": 0, "unaligned": 0,
    "ablation_prefetch": 1, "ablation_batching": 0,
    "ablation_registers": 0, "ablation_eviction": 3,
    "ablation_readahead": 0, "ablation_future_hw": 0,
    "ablation_io_preemption": 0, "syscall_kvstore": 0,
    "syscall_grepscan": 0, "syscall_graphwalk": 1,
}


class TestEveryExperiment:
    """One quick point and the fold of every registered experiment
    run under test, so none of them is exercised only by hand."""

    def test_every_experiment_has_a_cheap_point(self):
        assert set(CHEAP_POINT) | {"table3", "figure9"} == set(REGISTRY)

    @pytest.mark.parametrize("name", list(CHEAP_POINT))
    def test_point_and_fold(self, name):
        exp = REGISTRY[name]
        index = CHEAP_POINT[name]
        params = exp.grid("quick")[index]
        out = run_point(exp.point, name, index, params,
                        point_seed(name, index, params), "quick",
                        Instrumentation.off())
        assert out.error is None, out.traceback
        assert out.rows
        rows = exp.fold(out.rows, "quick") if exp.fold else out.rows
        assert rows
        columns = set(exp.columns_for("quick"))
        for row in rows:
            assert set(row) <= columns, set(row) - columns
            for key, value in row.items():
                assert value is not None, key
                if isinstance(value, float):
                    assert math.isfinite(value), (key, value)


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return run("table1")

    def test_has_all_paper_cells(self, result):
        assert len(result.rows) == len(TABLE1_PAPER)

    def test_every_cell_close_to_paper(self, result):
        for row in result.rows:
            assert row["measured"] == pytest.approx(row["paper"],
                                                    rel=0.10)

    def test_row_lookup(self, result):
        row = result.row_by(implementation="Compiler", op="inc")
        assert row["paper"] == 152

    def test_row_lookup_missing_raises(self, result):
        with pytest.raises(KeyError):
            result.row_by(implementation="nope")


class TestAblations:
    def test_prefetch_helps_latency(self):
        result = run("ablation_prefetch")
        pf = result.row_by(variant="prefetching")
        ptx = result.row_by(variant="optimized_ptx")
        assert pf["read_latency_cycles"] < ptx["read_latency_cycles"]

    def test_batching_helps(self):
        result = run("ablation_batching")
        on = result.row_by(batching=True)
        off = result.row_by(batching=False)
        assert on["cycles"] < off["cycles"]

    def test_register_pressure_halves_occupancy(self):
        result = run("ablation_registers")
        assert result.row_by(regs_per_thread=128)["blocks_per_sm"] == 1
        assert result.row_by(regs_per_thread=128)["slowdown_vs_64"] > 1.2

    def test_future_hw_cuts_increment_cost(self):
        result = run("ablation_future_hw")
        hw = result.row_by(variant="hw_assisted")
        sw = result.row_by(variant="prefetching")
        assert hw["inc_latency_cycles"] < sw["inc_latency_cycles"] / 2

    def test_removed_wrapper_names_are_gone(self):
        import repro.harness as harness
        for name in ("table1", "figure7", "ablation_prefetch"):
            assert not hasattr(harness, name)


class TestReporting:
    @pytest.fixture(scope="class")
    def result(self):
        return run("table1")

    def test_text_table_contains_all_rows(self, result):
        text = format_result(result)
        assert "table1" in text
        assert "Prefetching" in text
        assert text.count("\n") >= len(result.rows) + 2

    def test_markdown_table(self, result):
        md = format_markdown(result)
        assert md.startswith("### table1")
        assert md.count("|") > len(result.rows) * 3


class TestCLI:
    def test_list(self, capsys):
        from repro.harness.cli import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "figure9" in out

    def test_unknown_experiment_rejected(self, capsys):
        from repro.harness.cli import main
        assert main(["not-an-experiment"]) == 2

    def test_no_args_is_usage_error(self, capsys):
        from repro.harness.cli import main
        assert main([]) == 2

    def test_runs_and_writes_markdown(self, tmp_path, capsys):
        from repro.harness.cli import main
        md = tmp_path / "out.md"
        assert main(["table1", "--markdown", str(md)]) == 0
        assert "Prefetching" in md.read_text()
