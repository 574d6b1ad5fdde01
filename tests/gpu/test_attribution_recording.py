"""Engine-side attribution recording: stall/issue/translation events.

The recording is an overlay — it must never perturb simulated time
(traced and untraced launches produce bit-identical cycle counts), and
its events must be consistent enough for the analyzer: stalls carry
reasons, translation events carry the ``iss=..;lat=..;hid=..`` detail,
and activity tags from the translation / paging layers reach the
stall reasons.
"""

from functools import partial

import pytest

from repro.core import APConfig, AVM
from repro.gpu import Device
from repro.gpu.instructions import TimedLock
from repro.gpu.trace import ATTRIBUTION_KINDS, render_timeline
from repro.telemetry import capture
from repro.telemetry.attribution import _parse_translation_detail
from repro.workloads import run_memcpy
from tests.gpu.test_engine_golden import contended_kernel_device


def _launch_memcpy(traced: bool, *, use_apointers=True):
    """Run a tiny memcpy; returns (cycles, tracer-or-None).

    ``run_memcpy`` launches internally, so the tracer is hooked in
    ambiently through the profiler when requested.
    """
    device = Device(memory_bytes=32 * 1024 * 1024)
    if not traced:
        r = run_memcpy(device, use_apointers=use_apointers, width=4,
                       nblocks=2, warps_per_block=4, iters_per_thread=4)
        return r.cycles, None
    with capture(trace=True, max_traces=1) as prof:
        r = run_memcpy(device, use_apointers=use_apointers, width=4,
                       nblocks=2, warps_per_block=4, iters_per_thread=4)
    return r.cycles, prof.traces[0]


def _traced_launch(device, kern, **launch):
    """One launch under a tracing ``capture()``; returns its tracer."""
    with capture(trace=True, max_traces=1) as prof:
        device.launch(kern, **launch)
    return prof.traces[0]


def _launch_contended(traced: bool):
    """Run the golden contended atomic+barrier kernel; returns
    ((cycles, stats), tracer-or-None)."""
    device, kern = contended_kernel_device()
    if not traced:
        r = device.launch(kern, grid=2, block_threads=64)
        return (r.cycles, r.stats), None
    with capture(trace=True, max_traces=1) as prof:
        r = device.launch(kern, grid=2, block_threads=64)
    return (r.cycles, r.stats), prof.traces[0]


class TestZeroDrift:
    @pytest.mark.parametrize("launch", [
        pytest.param(partial(_launch_memcpy, use_apointers=True), id="True"),
        pytest.param(partial(_launch_memcpy, use_apointers=False),
                     id="False"),
        pytest.param(_launch_contended, id="contended"),
    ])
    def test_tracer_does_not_change_timing(self, launch):
        plain, _ = launch(False)
        traced, tracer = launch(True)
        assert tracer is not None and tracer.events
        assert traced == plain    # exactly — not approx

    def test_untraced_launch_records_no_overlay(self):
        device = Device(memory_bytes=8 * 1024 * 1024)

        def kern(ctx):
            yield from ctx.compute(5)
            yield from ctx.load(src + ctx.lane * 4, "f4")

        src = device.alloc(4096)
        result = device.launch(kern, grid=1, block_threads=32)
        assert result.cycles > 0


class TestStallRecording:
    @pytest.fixture(scope="class")
    def traced(self):
        _, tracer = _launch_memcpy(True)
        return tracer

    def test_overlay_kinds_present(self, traced):
        kinds = {e.kind for e in traced.events}
        assert ATTRIBUTION_KINDS <= kinds

    def test_stalls_carry_reasons(self, traced):
        reasons = {e.detail for e in traced.events if e.kind == "stall"}
        assert "memory" in reasons
        assert all(reasons), "every stall event must name a reason"

    def test_activity_tags_reach_stall_reasons(self):
        # Requests yielded under push_activity() carry the activity as
        # their stall reason instead of the mechanical default
        # ("exec_dependency" for compute).
        device = Device(memory_bytes=8 * 1024 * 1024)

        def kern(ctx):
            ctx.push_activity("translation")
            try:
                yield from ctx.compute(100, chain=100)
            finally:
                ctx.pop_activity()
            yield from ctx.compute(100, chain=100)

        tracer = _traced_launch(device, kern, grid=1, block_threads=32)
        reasons = {e.detail for e in tracer.events
                   if e.kind == "stall"}
        assert "translation" in reasons
        assert "exec_dependency" in reasons

    def test_fault_wait_activity_from_paging_layer(self):
        # Major faults run under the paging layer's "fault_wait"
        # activity: the PCIe wait must be attributed to it rather
        # than to a bare "io".
        from repro.telemetry import capture
        from repro.workloads.filebench import make_file_env

        npages, page = 4, 4096
        with capture(trace=True, max_traces=1) as prof:
            device, gpufs, fid, _ = make_file_env(
                npages * page, num_frames=npages + 4,
                memory_bytes=npages * page + 32 * 1024 * 1024)

            def kern(ctx):
                for p in range(npages):
                    yield from gpufs.gmmap(ctx, fid, p * page)
                    yield from gpufs.gmunmap(ctx, fid, p * page)

            device.launch(kern, grid=1, block_threads=32)
        tracer = prof.traces[0]
        reasons = {e.detail for e in tracer.events
                   if e.kind == "stall"}
        assert "fault_wait" in reasons

    def test_issue_events_on_known_sms(self, traced):
        issues = [e for e in traced.events if e.kind == "issue"]
        assert issues
        assert all(e.sm >= 0 for e in issues)
        assert all(e.duration > 0 for e in issues)

    def test_translation_details_parse_and_are_sane(self, traced):
        trs = [e for e in traced.events if e.kind == "translation"]
        assert trs
        for e in trs:
            iss, lat, hid = _parse_translation_detail(e.detail)
            assert iss >= 0 and lat >= 0 and hid >= 0
            assert iss + lat + hid > 0   # engine skips all-zero events

    def test_overlay_does_not_pollute_timeline(self, traced):
        art = render_timeline(traced, width=40)
        assert "?" not in art


class TestBarrierAndLockStalls:
    def test_barrier_wait_recorded(self):
        device = Device(memory_bytes=8 * 1024 * 1024)

        def kern(ctx):
            # Warp 0 computes 200 cycles, warp 1 arrives immediately:
            # warp 1 must log a barrier stall while it waits.
            if ctx.warp_id == 0:
                yield from ctx.compute(200, chain=200)
            yield from ctx.syncthreads()

        tracer = _traced_launch(device, kern, grid=1, block_threads=64)
        barriers = [e for e in tracer.events
                    if e.kind == "stall" and e.detail == "barrier"]
        assert barriers
        assert max(e.duration for e in barriers) > 0

    def test_contended_lock_wait_recorded(self):
        device = Device(memory_bytes=8 * 1024 * 1024)
        lock = TimedLock("t")

        def kern(ctx, lock):
            yield from ctx.lock(lock)
            yield from ctx.sleep(50)
            yield from ctx.unlock(lock)

        tracer = _traced_launch(device, kern, grid=1, block_threads=64,
                                args=(lock,))
        locks = [e for e in tracer.events
                 if e.kind == "stall" and e.detail == "lock"]
        assert locks, "the losing warp must log its lock wait"


class TestApointerTranslationEvents:
    def test_explicit_tracer_sees_translation_events(self):
        device = Device(memory_bytes=8 * 1024 * 1024)
        src = device.alloc(64 * 1024)
        avm = AVM(APConfig())

        def kern(ctx):
            ap = avm.gvmmap_device(ctx, src, 64 * 1024)
            yield from ap.seek(ctx, ctx.lane * 4)
            _ = yield from ap.read(ctx, "f4")
            yield from ap.destroy(ctx)

        tracer = _traced_launch(device, kern, grid=1, block_threads=32)
        trans = [e for e in tracer.events if e.kind == "translation"]
        assert trans, "apointer reads must emit translation events"
        # Every decomposition stays consistent: hid + exposed parts
        # can never exceed what the request charged.
        for e in trans:
            iss, lat, hid = _parse_translation_detail(e.detail)
            assert lat >= 0 and hid >= 0 and iss >= 0
