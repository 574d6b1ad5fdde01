"""Tests for the execution tracer and timeline renderer."""

import dataclasses

import pytest

from repro.gpu import Device
from repro.gpu.trace import (
    COUNTER_KIND,
    TraceEvent,
    Tracer,
    render_timeline,
)
from repro.telemetry import capture
from repro.workloads import run_kvstore, run_memcpy

#: Window wider than the small memcpy launch, so its only counter
#: samples lie past the launch end.
SPAN_WINDOW = 7000.0


@pytest.fixture
def traced():
    device = Device(memory_bytes=8 * 1024 * 1024)
    src = device.alloc(64 * 1024)

    def kern(ctx):
        for i in range(4):
            ctx.charge(10, chain=10)
            _ = yield from ctx.load(src + ctx.global_tid * 4, "f4")
        yield from ctx.compute(30)
        yield from ctx.syncthreads()

    with capture(max_traces=1) as prof:
        device.launch(kern, grid=1, block_threads=64)
    return prof.traces[0]


class TestTracer:
    def test_events_recorded(self, traced):
        assert traced.events
        kinds = {e.kind for e in traced.events}
        assert "memaccess" in kinds
        assert "compute" in kinds

    def test_events_have_positive_duration(self, traced):
        assert all(e.duration >= 0 for e in traced.events)

    def test_by_kind_totals(self, traced):
        agg = traced.by_kind()
        assert agg["memaccess"]["count"] == 2 * 4  # 2 warps x 4 loads
        assert agg["memaccess"]["cycles"] > 0

    def test_per_warp_filter(self, traced):
        warps = traced.warps()
        assert len(warps) == 2
        only = traced.for_warp(warps[0])
        assert all(e.warp == warps[0] for e in only)

    def test_span_covers_events(self, traced):
        t0, t1 = traced.span()
        assert t0 <= min(e.start for e in traced.events)
        assert t1 >= max(e.end for e in traced.events)

    def test_span_ignores_counter_samples(self):
        # A time-series window's counter sample sits at the window end,
        # past the launch end; the span (and so the timeline's buckets)
        # must cover the launch, not the last window.
        with capture(trace=True, timeseries=True,
                     window_cycles=SPAN_WINDOW) as prof:
            run_memcpy(Device(), use_apointers=True, width=4, nblocks=2,
                       warps_per_block=4, iters_per_thread=4)
        tracer, cycles = prof.traces[0], prof.profiles[0].cycles
        assert cycles < SPAN_WINDOW
        assert any(e.kind == COUNTER_KIND and e.start == SPAN_WINDOW
                   for e in tracer.events)
        t0, t1 = tracer.span()
        assert t0 == 0.0 and t1 == cycles
        # The last busy column lies in the final tenth of the rows.
        rows = render_timeline(tracer, width=40).splitlines()[1:-1]
        assert max(len(row.rstrip()) for row in rows) >= 6 + 36

    def test_summary_text(self, traced):
        text = traced.summary()
        assert "memaccess" in text
        assert "events" in text

    def test_drop_cap(self):
        t = Tracer(max_events=1)
        t.record(0, 0, "compute", 0, 1)
        t.record(0, 0, "compute", 1, 2)
        assert len(t.events) == 1
        assert t.dropped == 1

    def test_events_are_a_view_of_the_rows(self, traced):
        assert all(type(row) is tuple for row in traced.rows)
        assert traced.events == [TraceEvent(*row) for row in traced.rows]
        assert list(dataclasses.asdict(traced.events[0])) == [
            "warp", "block", "kind", "start", "end", "detail", "sm", "req"]

    def test_events_view_is_rebuilt_after_later_records(self):
        t = Tracer()
        t.record(0, 0, "compute", 0.0, 1.0)
        view = t.events
        assert t.events is view                 # built once, then kept
        t.record(1, 0, "memaccess", 1.0, 5.0, "d", sm=2, req="0:1:0")
        assert t.events == [TraceEvent(*row) for row in t.rows]
        t.record_counter("timeseries.dram_bytes", 5.0, 128)
        assert t.events == [TraceEvent(*row) for row in t.rows]
        assert t.events[-1] == TraceEvent(
            0, -1, COUNTER_KIND, 5.0, 5.0, "timeseries.dram_bytes=128")
        assert all(type(row) is tuple for row in t.rows)

    def test_untraced_launch_records_nothing(self):
        device = Device(memory_bytes=8 * 1024 * 1024)

        def kern(ctx):
            yield from ctx.compute(5)

        result = device.launch(kern, grid=1, block_threads=32)
        assert result.cycles > 0  # simply must not blow up


def _tiny_memcpy():
    run_memcpy(Device(), use_apointers=True, width=4, nblocks=2,
               warps_per_block=4, iters_per_thread=4)


def _tiny_kvstore():
    run_kvstore(nwarps=2, records_per_warp=64, ops_per_warp=4,
                num_frames=6)


def _observed_trace(run, max_trace_events: int = 200_000) -> Tracer:
    with capture(trace=True, timeseries=True, window_cycles=2000.0,
                 max_trace_events=max_trace_events) as prof:
        run()
    (tracer,) = prof.traces
    return tracer


class TestCap:
    @pytest.mark.parametrize("run", [_tiny_memcpy, _tiny_kvstore])
    def test_capped_trace_is_the_uncapped_prefix(self, run):
        # Every cap, across the engine's per-request rows, the layers'
        # spans and the sampler's counter rows: the first k rows are
        # kept and every later one is dropped and counted.
        full = _observed_trace(run)
        total = len(full.rows)
        assert full.dropped == 0 and total > 100
        for k in range(1, total + 3):
            capped = _observed_trace(run, k)
            assert capped.rows == full.rows[:k], k
            assert capped.dropped == max(total - k, 0), k


class TestTimeline:
    def test_renders_rows_per_warp(self, traced):
        art = render_timeline(traced, width=40)
        lines = art.splitlines()
        assert len(lines) == 4  # header + 2 warps + legend
        assert lines[0].startswith("bucket_cycles=")
        assert lines[1].startswith("w")
        assert len(lines[1]) <= 7 + 40

    def test_empty_trace(self):
        assert render_timeline(Tracer()) == "(empty trace)"

    def test_contains_memory_glyph(self, traced):
        art = render_timeline(traced, width=60)
        assert "m" in art.split("\n")[1] + art.split("\n")[2]

    def test_bucket_header_reports_bucket_size(self, traced):
        t0, t1 = traced.span()
        header = render_timeline(traced, width=40).splitlines()[0]
        assert f"bucket_cycles={(t1 - t0) / 40:g}" in header
        assert "warps=2" in header

    def test_event_ending_at_span_end_lands_in_last_bucket(self):
        # Regression: `hi == width` after integer bucketing used to
        # fall off the row; the closing event must colour the final
        # column, not a phantom bucket past it.
        t = Tracer()
        t.record(0, 0, "compute", 0.0, 40.0)
        t.record(0, 0, "memaccess", 90.0, 100.0)
        art = render_timeline(t, width=10)
        row = art.splitlines()[1]
        assert row.endswith("m")

    def test_more_warps_footer(self):
        t = Tracer()
        for w in range(20):
            t.record(w, 0, "compute", 0.0, 10.0)
        art = render_timeline(t, width=20)
        lines = art.splitlines()
        assert lines[-1] == "(+4 more warps)"
        # header + 16 rows + legend + footer
        assert len(lines) == 1 + 16 + 1 + 1

    def test_no_footer_with_explicit_warp_selection(self):
        t = Tracer()
        for w in range(20):
            t.record(w, 0, "compute", 0.0, 10.0)
        art = render_timeline(t, width=20, warps=[0, 1])
        assert "more warps" not in art
        assert len(art.splitlines()) == 1 + 2 + 1
