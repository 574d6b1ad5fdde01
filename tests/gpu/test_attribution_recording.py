"""Engine-side attribution recording: stall/issue/translation events.

The recording is an overlay — it must never perturb simulated time
(traced and untraced launches produce bit-identical cycle counts), and
its events must be consistent enough for the analyzer: stalls carry
reasons, translation events carry the ``iss=..;lat=..;hid=..`` detail,
and activity tags from the translation / paging layers reach the
stall reasons.
"""

import copy
from functools import partial

import numpy as np
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


# ----------------------------------------------------------------------
# The translation charge pair a request carries
# ----------------------------------------------------------------------
def _charge_pairs(body, traced: bool = True):
    """Run ``body(ctx, buf)`` as one warp, under a tracing
    ``capture()`` when ``traced``; return ``(kind, translation_charge)``
    of every request it yields, in order, as the request was yielded."""
    device = Device(memory_bytes=1 << 20)
    buf = device.alloc(4096)
    seen = []

    def kern(ctx):
        gen = body(ctx, buf)
        try:
            req = next(gen)
            while True:
                for r in req if type(req) is tuple else (req,):
                    seen.append((type(r).__name__.lower(),
                                 copy.deepcopy(r.translation_charge)))
                req = gen.send((yield req))
        except StopIteration:
            return

    if traced:
        _traced_launch(device, kern, grid=1, block_threads=32)
    else:
        device.launch(kern, grid=1, block_threads=32)
    return seen


#: A synthetic charge of other work between translation charges, named
#: so the calibration linter can see it is a deliberate test load.
OTHER_WORK = 9.0

#: Every way a warp takes its pending charge into a request, each
#: called ``(ctx, buf)``.
TAKERS = {
    "load": lambda ctx, buf: ctx.load(buf + ctx.lane * 4, "f4"),
    "store": lambda ctx, buf: ctx.store(buf + ctx.lane * 4,
                                        ctx.lane, "f4"),
    "load_scalar": lambda ctx, buf: ctx.load_scalar(buf, "u8"),
    "store_scalar": lambda ctx, buf: ctx.store_scalar(buf, 7, "u8"),
    "load_wide": lambda ctx, buf: ctx.load_wide(buf + ctx.lane * 16,
                                                "f4", 4),
    "store_wide": lambda ctx, buf: ctx.store_wide(
        buf + ctx.lane * 16, np.zeros((32, 4), "f4"), "f4"),
    "compute": lambda ctx, buf: ctx.compute(1),
    "flush": lambda ctx, buf: ctx.flush(),
    "copy": lambda ctx, buf: ctx.copy(buf, buf + 2048, 512),
}


class TestTranslationChargePair:
    @pytest.mark.parametrize("activity",
                             ["fault_wait", "syscall", "tlb_miss"])
    def test_other_work_leaves_no_pair(self, activity):
        def body(ctx, buf):
            ctx.push_activity(activity)
            ctx.charge(3)
            ctx.charge(2, tag="fault_wait")
            yield from ctx.load(buf + ctx.lane * 4, "f4")
            ctx.charge(4, chain=1)
            yield from ctx.copy(buf, buf + 2048, 512)
            ctx.pop_activity()
            ctx.charge(5, tag="tlb_miss")
            yield from ctx.compute(1)

        pairs = _charge_pairs(body)
        assert len(pairs) == 1 + 4 + 1
        assert all(pair is None for _, pair in pairs)

    @pytest.mark.parametrize("taker", sorted(TAKERS))
    def test_translation_charges_add_up_into_the_next_request(self,
                                                               taker):
        # 0.1 + 0.2 + 0.3 rounds differently from 0.1 + (0.2 + 0.3):
        # the pair sums in call order.
        def body(ctx, buf):
            ctx.charge(0.1, chain=1.0, tag="translation")
            ctx.charge(OTHER_WORK, tag="fault_wait")
            ctx.push_activity("translation")
            ctx.charge(0.2, chain=2.0)
            ctx.charge(OTHER_WORK, tag="tlb_miss")  # an explicit tag wins
            ctx.pop_activity()
            ctx.charge(0.3, chain=4.0, tag="translation")
            yield from TAKERS[taker](ctx, buf)
            yield from ctx.compute(1)

        pairs = _charge_pairs(body)
        assert pairs[0][1] == [0.1 + 0.2 + 0.3, 7.0]
        assert all(pair is None for _, pair in pairs[1:])

    def test_copy_steps_carry_their_translation_charge(self):
        def body(ctx, buf):
            ctx.push_activity("translation")
            ctx.charge(2, tag="syscall")
            yield from ctx.copy(buf, buf + 2048, 768)
            ctx.pop_activity()

        pairs = _charge_pairs(body)
        assert pairs == [("memaccess", [4, 4]), ("memaccess", None)] * 3

    def test_untraced_context_never_creates_a_pair(self):
        pending = []

        def body(ctx, buf):
            ctx.push_activity("translation")
            ctx.charge(3, tag="translation")
            ctx.charge(1)
            # The untraced class keeps no attribution state at all.
            pending.append("_pending_translation" in vars(ctx))
            yield from ctx.load(buf + ctx.lane * 4, "f4")
            yield from ctx.copy(buf, buf + 2048, 512)
            ctx.pop_activity()

        pairs = _charge_pairs(body, traced=False)
        assert pending == [False]
        assert len(pairs) == 1 + 4
        assert all(pair is None for _, pair in pairs)
