"""Chrome trace_event export: structural validity and paging spans."""

import json

import pytest

from repro.gpu import Device, K80_SPEC
from repro.gpu.trace import Tracer
from repro.telemetry import capture
from repro.workloads.filebench import make_file_env

PAGE = 4096


@pytest.fixture
def traced_fault_run():
    """A launch with both engine macro-ops and paging spans."""
    npages = 4
    device, gpufs, fid, _ = make_file_env(
        npages * PAGE, num_frames=npages + 4,
        memory_bytes=npages * PAGE + 32 * 1024 * 1024)

    def kern(ctx):
        for p in range(npages):
            yield from gpufs.gmmap(ctx, fid, p * PAGE)
            yield from gpufs.gmunmap(ctx, fid, p * PAGE)

    with capture(max_traces=1) as prof:
        device.launch(kern, grid=1, block_threads=64)
    return device, prof.traces[0]


def _validate_chrome_trace(doc):
    """Assert the Chrome trace_event contract our exporter relies on:
    X (complete) events with non-negative ts/dur, sorted by ts, and
    B/E pairs (if any) properly matched per track."""
    assert isinstance(doc["traceEvents"], list)
    open_stack = {}
    last_ts = None
    for ev in doc["traceEvents"]:
        assert ev["ph"] in ("X", "B", "E", "M", "C")
        if ev["ph"] == "M":
            continue
        assert ev["ts"] >= 0
        if last_ts is not None:
            assert ev["ts"] >= last_ts
        last_ts = ev["ts"]
        track = (ev["pid"], ev["tid"])
        if ev["ph"] == "X":
            assert ev["dur"] >= 0
        elif ev["ph"] == "B":
            open_stack.setdefault(track, []).append(ev["name"])
        elif ev["ph"] == "E":
            assert open_stack.get(track), "E without matching B"
            open_stack[track].pop()
    assert not any(v for v in open_stack.values()), "unclosed B events"


class TestChromeTrace:
    def test_export_is_valid_json_and_well_formed(self, traced_fault_run):
        device, tracer = traced_fault_run
        doc = json.loads(json.dumps(tracer.to_chrome_trace(device.spec)))
        _validate_chrome_trace(doc)

    def test_spans_cover_engine_and_paging(self, traced_fault_run):
        _, tracer = traced_fault_run
        doc = tracer.to_chrome_trace()
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        assert "memaccess" in names or "compute" in names
        assert "major_fault" in names
        assert "page_in" in names
        cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"engine", "paging"} <= cats

    def test_one_track_per_sm_and_warp(self, traced_fault_run):
        device, tracer = traced_fault_run
        doc = tracer.to_chrome_trace(device.spec)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        proc_names = {e["args"]["name"] for e in meta
                      if e["name"] == "process_name"}
        thread_names = {e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        assert any(n.startswith("SM ") for n in proc_names)
        assert any(n.startswith("warp ") for n in thread_names)
        # every span lands on a declared track
        tracks = {(e["pid"], e["tid"]) for e in doc["traceEvents"]
                  if e["ph"] == "M" and e["name"] == "thread_name"}
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X":
                assert (ev["pid"], ev["tid"]) in tracks

    def test_timestamps_scale_with_clock(self, traced_fault_run):
        device, tracer = traced_fault_run
        cycles_doc = tracer.to_chrome_trace()
        us_doc = tracer.to_chrome_trace(device.spec)
        t_cycles = max(e["ts"] + e["dur"]
                       for e in cycles_doc["traceEvents"]
                       if e["ph"] == "X")
        t_us = max(e["ts"] + e["dur"] for e in us_doc["traceEvents"]
                   if e["ph"] == "X")
        assert t_us == pytest.approx(t_cycles * 1e6 / K80_SPEC.clock_hz)
        assert us_doc["otherData"]["time_unit"] == "us"
        assert cycles_doc["otherData"]["time_unit"] == "cycles"

    def test_translation_fault_spans_from_apointer_layer(self):
        from repro.workloads import run_memcpy
        with capture() as prof:
            device = Device(memory_bytes=16 * 1024 * 1024)
            run_memcpy(device, use_apointers=True, width=4, nblocks=1,
                       warps_per_block=2, iters_per_thread=4)
        tracer = prof.traces[0]
        assert tracer is not None
        kinds = {e.kind for e in tracer.events}
        assert "translation_fault" in kinds

    def test_empty_tracer_exports_empty_trace(self):
        doc = Tracer().to_chrome_trace()
        assert doc["traceEvents"] == []
        _validate_chrome_trace(doc)
