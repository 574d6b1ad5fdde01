"""Heartbeat plumbing: sender rate limiting, the single-writer
renderer, live runs (serial and spawn-parallel), and repro-obs top."""

import io
import json
import os

import pytest

from repro.harness.heartbeat import (
    HeartbeatRenderer,
    HeartbeatSender,
    cache_hit_rate,
    make_heartbeat,
)
from repro.harness.runner import (
    Instrumentation,
    LiveOptions,
    run_experiment,
)
from repro.telemetry import validate_profile
from repro.telemetry.cli import main as obs_main
from repro.telemetry.top import Dashboard

from tests.harness.test_runner import SYNTH

# Real experiments for live runs: table2 touches the full stack.
from repro.harness.registry import REGISTRY  # noqa: E402
import repro.harness.experiments  # noqa: F401  (populates REGISTRY)


def window_record(index, busy=50.0, width=100.0, **extra):
    rec = {"window": index, "t0": index * width,
           "t1": (index + 1) * width, "sm_busy": [busy],
           "dram_bytes": 0, "pcie_bytes": 0,
           "counters": {}, "gauges": {}}
    rec.update(extra)
    return rec


class TestSender:
    def test_lifecycle_beats_always_pass(self):
        seen = []
        sender = HeartbeatSender(seen.append, min_interval=3600.0)
        for kind in ("start", "point_done", "run_done"):
            sender.send(make_heartbeat(kind, "e"))
        assert [b["kind"] for b in seen] \
            == ["start", "point_done", "run_done"]

    def test_window_beats_rate_limited(self):
        seen = []
        sender = HeartbeatSender(seen.append, min_interval=3600.0)
        for i in range(5):
            sender.window_beat("e", 0, window_record(i))
        assert len(seen) == 1           # first passes, rest throttled
        assert sender.throttled == 4

    def test_zero_interval_passes_everything(self):
        seen = []
        sender = HeartbeatSender(seen.append, min_interval=0.0)
        for i in range(5):
            sender.window_beat("e", 0, window_record(i))
        assert len(seen) == 5

    def test_window_beat_reduces_record(self):
        seen = []
        sender = HeartbeatSender(seen.append, min_interval=0.0)
        sender.window_beat("e", 2, window_record(7, busy=25.0,
                                                 dram_bytes=512))
        (beat,) = seen
        assert beat["kind"] == "window"
        assert beat["point"] == 2 and beat["window"] == 7
        assert beat["sm_busy_frac"] == [0.25]
        assert beat["dram_bytes"] == 512

    def test_broken_channel_never_raises(self):
        def boom(_beat):
            raise OSError("pipe gone")
        sender = HeartbeatSender(boom, min_interval=0.0)
        sender.send(make_heartbeat("start", "e"))   # must not raise


class TestRenderer:
    def test_single_writer_line_and_counts(self):
        out = io.StringIO()
        r = HeartbeatRenderer(show=True, stream=out)
        r.handle(make_heartbeat("start", "exp", points=3, jobs=2))
        r.handle(make_heartbeat("point_done", "exp", point=0, ok=True))
        r.handle(make_heartbeat("point_done", "exp", point=1,
                                ok=False))
        r.handle(make_heartbeat("run_done", "exp"))
        text = out.getvalue()
        last = text.rstrip("\n").split("\r")[-1]
        assert last.startswith("[exp] 2/3 points (2 workers)")
        assert "1 failed" in last
        assert text.endswith("\n")      # close() terminated the line

    def test_no_progress_mode_writes_files_not_terminal(self, tmp_path):
        out = io.StringIO()
        r = HeartbeatRenderer(show=False, stream=out,
                              live_dir=str(tmp_path))
        r.handle(make_heartbeat("start", "exp", points=1, jobs=1))
        r.handle(make_heartbeat("run_done", "exp"))
        assert out.getvalue() == ""
        beats = [json.loads(line) for line in
                 (tmp_path / "heartbeats.jsonl").read_text()
                 .splitlines()]
        assert [b["kind"] for b in beats] == ["start", "run_done"]
        assert os.listdir(tmp_path) == ["heartbeats.jsonl"]

    def test_window_beats_surface_busy_and_cache(self):
        out = io.StringIO()
        r = HeartbeatRenderer(show=True, stream=out)
        r.handle(make_heartbeat("start", "exp", points=2, jobs=1))
        r.handle(make_heartbeat(
            "window", "exp", point=0, window=0,
            sm_busy_frac=[0.5, 0.7], dram_bytes=0, pcie_bytes=0,
            counters={"paging.minor_faults": 3,
                      "paging.major_faults": 1}, gauges={}))
        last = out.getvalue().split("\r")[-1]
        assert "busy 60%" in last
        assert "cache 75%" in last

    def test_cache_hit_rate_none_without_faults(self):
        assert cache_hit_rate({}) is None
        assert cache_hit_rate({"paging.minor_faults": 3,
                               "paging.major_faults": 1}) == 0.75


class TestLiveRuns:
    def test_serial_live_run_writes_streaming_layout(self, tmp_path):
        live = LiveOptions(live_dir=str(tmp_path), window_cycles=2000.0)
        report = run_experiment(REGISTRY["table2"], jobs=1,
                                progress=False,
                                instrument=Instrumentation(live=live))
        assert report.ok
        # live implies profiling: merged suite profile is schema v6
        # with the concatenated series.
        validate_profile(report.merged)
        series = report.merged["components"]["timeseries"]
        assert series["enabled"] == len(report.profiles)
        assert series["windows"] == len(series["series"]) > 0
        # one series file per point: a header, then stamped records
        points = len(REGISTRY["table2"].grid("quick"))
        files = sorted(f for f in os.listdir(tmp_path)
                       if f.startswith("series-"))
        assert len(files) == points
        header, rec = (json.loads(line) for line in
                       (tmp_path / files[0]).read_text()
                       .splitlines()[:2])
        assert header == {"experiment": "table2", "point": 0,
                          "pid": os.getpid(), "window_cycles": 2000.0}
        assert rec["experiment"] == "table2"
        assert rec["point"] == 0 and rec["window"] == 0
        # parent wrote the heartbeat stream, and nothing else
        kinds = [json.loads(line)["kind"] for line in
                 (tmp_path / "heartbeats.jsonl").read_text()
                 .splitlines()]
        assert kinds[0] == "start" and kinds[-1] == "run_done"
        assert kinds.count("point_done") == points
        assert "window" in kinds
        assert sorted(os.listdir(tmp_path)) \
            == sorted(files + ["heartbeats.jsonl"])

    def test_live_does_not_perturb_rows(self, tmp_path):
        plain = run_experiment(SYNTH, jobs=1, progress=False)
        live = run_experiment(
            SYNTH, jobs=1, progress=False,
            instrument=Instrumentation(
                live=LiveOptions(live_dir=str(tmp_path))))
        assert plain.result.rows == live.result.rows

    def test_parallel_live_run_heartbeats_cross_process(self, tmp_path):
        live = LiveOptions(live_dir=str(tmp_path), window_cycles=2000.0,
                           heartbeat_interval=0.0)
        report = run_experiment(REGISTRY["table2"], jobs=2,
                                progress=False,
                                instrument=Instrumentation(live=live))
        assert report.ok and report.jobs == 2
        validate_profile(report.merged)
        beats = [json.loads(line) for line in
                 (tmp_path / "heartbeats.jsonl").read_text()
                 .splitlines()]
        windows = [b for b in beats if b["kind"] == "window"]
        assert windows, "workers must ship window beats to the parent"
        # window beats carry worker pids, not the parent's
        assert all(b["pid"] != os.getpid() for b in windows)
        assert {b["pid"] for b in windows if True} \
            <= {o.worker_pid for o in report.outcomes}
        # every point's series file was written by its worker
        points = len(REGISTRY["table2"].grid("quick"))
        files = [f for f in os.listdir(tmp_path)
                 if f.startswith("series-")]
        assert len(files) == points

    def test_repro_top_renders_live_dir(self, tmp_path, capsys):
        live = LiveOptions(live_dir=str(tmp_path), window_cycles=2000.0,
                           heartbeat_interval=0.0)
        run_experiment(REGISTRY["table2"], jobs=2, progress=False,
                       instrument=Instrumentation(live=live))
        rc = obs_main(["top", str(tmp_path), "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro-obs top — table2 [done]" in out
        assert "SM0" in out and "[#" in out
        assert "dram" in out
        assert "2 worker(s) heard" in out

    def test_repro_top_rejects_missing_dir(self, tmp_path, capsys):
        rc = obs_main(["top", str(tmp_path / "absent"), "--once"])
        assert rc == 2


class TestDashboardIncrementalTail:
    def test_partial_lines_reread_next_poll(self, tmp_path):
        hb = tmp_path / "heartbeats.jsonl"
        hb.write_text(json.dumps(make_heartbeat(
            "start", "exp", points=2, jobs=1)) + "\n")
        dash = Dashboard(str(tmp_path))
        dash.poll()
        assert dash.points_total == 2
        # Append one whole line and one torn line (writer mid-flush).
        whole = json.dumps(make_heartbeat("point_done", "exp",
                                          point=0, ok=True))
        with open(hb, "a") as f:
            f.write(whole + "\n" + '{"kind": "point_d')
        dash.poll()
        assert dash.points_done == 1
        with open(hb, "a") as f:         # writer finishes the line
            f.write('one", "experiment": "exp", "point": 1, '
                    '"ok": true}\n')
        dash.poll()
        assert dash.points_done == 2

    def test_corrupt_complete_line_raises(self, tmp_path, capsys):
        hb = tmp_path / "heartbeats.jsonl"
        lines = [json.dumps(make_heartbeat("start", "exp", points=1,
                                           jobs=1)),
                 '{"kind": "point_done", "experiment": ',
                 json.dumps(make_heartbeat("point_done", "exp",
                                           point=0, ok=True)),
                 json.dumps(make_heartbeat("run_done", "exp"))]
        hb.write_text("\n".join(lines) + "\n")
        dash = Dashboard(str(tmp_path))
        # A complete line that does not parse is corruption, not a
        # torn write: it must not stall the tail on that line forever.
        with pytest.raises(ValueError,
                           match=r"heartbeats\.jsonl, line 2"):
            dash.poll()
        assert obs_main(["top", str(tmp_path), "--once"]) == 2
        assert "heartbeats.jsonl, line 2" in capsys.readouterr().err
