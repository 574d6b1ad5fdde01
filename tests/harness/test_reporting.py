"""Reporting: cell rendering, alignment, and profile summaries."""

import math

from repro.gpu import Device
from repro.harness.experiments import ExperimentResult
from repro.harness.reporting import (
    _cell,
    format_markdown,
    format_profile,
    format_result,
)
from repro.telemetry import capture


class TestCell:
    def test_none_renders_as_dash(self):
        assert _cell(None) == "-"

    def test_nan_is_labeled(self):
        assert _cell(float("nan")) == "NaN"

    def test_infinities_are_signed(self):
        assert _cell(math.inf) == "+inf"
        assert _cell(-math.inf) == "-inf"

    def test_finite_floats_compact(self):
        assert _cell(1.5) == "1.5"
        assert _cell(3.0) == "3"

    def test_negative_zero_is_zero(self):
        assert _cell(-0.0) == "0"
        assert _cell(round(-0.04, 1)) == "0"

    def test_strings_pass_through(self):
        assert _cell("clock") == "clock"


class TestFormatResult:
    def _result(self):
        return ExperimentResult(
            exp_id="t", title="T", columns=["name", "value", "flag"],
            rows=[
                {"name": "long-name", "value": 1.25, "flag": True},
                {"name": "x", "value": 1500.0, "flag": False},
                {"name": "nan-case", "value": float("nan"), "flag": True},
                {"name": "none-case", "value": None, "flag": False},
            ])

    def test_numeric_column_right_aligned(self):
        lines = format_result(self._result()).splitlines()
        cells = [line.split(" | ")[1] for line in lines[3:]]
        assert cells[0].endswith("1.25")
        assert cells[1].endswith("1500")
        # NaN / None render explicitly, right-aligned with the numbers.
        assert cells[2].endswith("NaN")
        assert cells[3].endswith("-")

    def test_text_column_left_aligned(self):
        lines = format_result(self._result()).splitlines()
        assert lines[3].startswith("long-name ")
        # bools are text, not numbers
        assert lines[3].split(" | ")[2].startswith("True")

    def test_markdown_wall_time(self):
        md = format_markdown(self._result(), elapsed=12.34)
        assert "*wall time: 12.3s*" in md
        assert "| NaN |" in md
        assert "| - |" in md

    def test_markdown_without_elapsed_unchanged(self):
        assert "wall time" not in format_markdown(self._result())


class TestFormatProfile:
    def test_summary_contains_headline_sections(self):
        with capture() as prof:
            device = Device(memory_bytes=8 * 1024 * 1024)
            src = device.alloc(4096)

            def kern(ctx):
                v = yield from ctx.load(src + ctx.lane * 4, "f4")
                yield from ctx.store(src + ctx.lane * 4, v, "f4")
                yield from ctx.syncthreads()

            device.launch(kern, grid=2, block_threads=64)
        text = format_profile(prof.longest())
        assert "dram" in text
        assert "SMs" in text
        assert "warp stalls" in text
        assert "GB/s" in text
        # accepts the raw dict too
        assert format_profile(prof.longest().to_dict()) == text
