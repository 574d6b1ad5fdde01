"""``repro-obs``: the telemetry console's attr and top front ends.

The spans and trend subcommands are driven from ``test_spans.py`` and
``test_trend.py``; this file covers attribution mode over a real
profiled launch, argument errors, and the bare command.
"""

import json

import pytest

from repro.gpu import Device
from repro.gpu.trace import Tracer
from repro.telemetry import capture
from repro.telemetry.cli import main
from repro.workloads import run_memcpy


@pytest.fixture(scope="module")
def profile_dir(tmp_path_factory):
    """A tiny traced + attributed memcpy run written to disk."""
    with capture(trace=True, attribution=True) as prof:
        device = Device(memory_bytes=32 * 1024 * 1024)
        r = run_memcpy(device, use_apointers=True, width=4, nblocks=2,
                       warps_per_block=4, iters_per_thread=4)
    assert r.verified
    out = tmp_path_factory.mktemp("profiles")
    prof.write(str(out))
    return out


class TestAttr:
    def test_renders_hidden_exposed_report(self, profile_dir, capsys):
        assert main(["attr", str(profile_dir)]) == 0
        out = capsys.readouterr().out
        assert "cycle attribution" in out
        assert "hidden" in out and "exposed" in out

    def test_validate_reports_schema_version(self, profile_dir, capsys):
        assert main(["attr", str(profile_dir), "--validate"]) == 0
        assert "valid profile (schema v8" in capsys.readouterr().out

    def test_json_keyed_by_trace_path(self, profile_dir, capsys):
        assert main(["attr", str(profile_dir), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        traces = sorted(str(p) for p in profile_dir.glob("trace-*.json"))
        assert traces and sorted(doc) == traces

    def test_older_version_profile_is_invalid(self, profile_dir, tmp_path,
                                              capsys):
        (src,) = profile_dir.glob("profile-*.json")
        doc = json.loads(src.read_text())
        doc["version"] = 7
        stale = tmp_path / "profile-000-stale.json"
        stale.write_text(json.dumps(doc))
        assert main(["attr", str(stale), "--validate"]) == 2
        assert "INVALID profile" in capsys.readouterr().err

    def test_truncated_trace_is_refused(self, tmp_path, capsys):
        tracer = Tracer(max_events=1)
        for i in range(3):
            tracer.record(0, 0, "compute", float(i), float(i + 1))
        assert tracer.dropped
        path = tmp_path / "trace-000.json"
        path.write_text(json.dumps(tracer.to_chrome_trace()))
        assert main(["attr", str(path)]) == 2
        assert "dropped" in capsys.readouterr().err

    def test_no_traces_is_usage_error(self, tmp_path, capsys):
        assert main(["attr", str(tmp_path)]) == 2
        assert "no trace files" in capsys.readouterr().err


class TestArguments:
    def test_bare_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("interval", ["-1", "0", "nan"])
    def test_top_rejects_non_positive_interval(self, tmp_path, interval):
        # Follow mode sleeps this long between frames: a negative or
        # NaN interval makes time.sleep raise, zero makes a busy loop.
        with pytest.raises(SystemExit) as exc:
            main(["top", str(tmp_path), "--interval", interval])
        assert exc.value.code == 2
