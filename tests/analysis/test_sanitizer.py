"""Runtime sanitizer: one deliberately broken kernel per invariant.

Each breaking kernel must produce *exactly one* structured
:class:`~repro.analysis.sanitizer.Violation` of the right kind, and
the corrected twin must produce none.  The off-mode tests pin the
zero-cost contract: no sanitizer object, no wrapper contexts, and
bit-identical cycle counts.
"""

import numpy as np
import pytest

from repro.analysis import sanitizer as sanitizers
from repro.gpu import Device
from repro.gpu.instructions import TimedLock
from repro.gpu.kernel import TracedWarpContext, WarpContext
from repro.host import HostFileSystem
from repro.host.ramfs import RamFS
from repro.paging import GPUfs, GPUfsConfig
from repro.telemetry import capture

PAGE = 4096


def make_env(sanitize: bool = True, pages: int = 8):
    device = Device(memory_bytes=32 * 1024 * 1024)
    fs = RamFS()
    fs.create("data", np.arange(pages * PAGE, dtype=np.uint8))
    gpufs = GPUfs(device, HostFileSystem(fs),
                  GPUfsConfig(page_size=PAGE, num_frames=16,
                              sanitize=sanitize))
    fid = gpufs.open("data")
    return device, gpufs, fid


@pytest.fixture
def env():
    return make_env()


class TestLockstep:
    def test_unbalanced_barrier_is_exactly_one_violation(self, env):
        device, gpufs, _ = env

        def kernel(ctx):
            yield from ctx.syncthreads()
            if ctx.warp_in_block == 0:
                yield from ctx.syncthreads()

        device.launch(kernel, grid=1, block_threads=64)
        violations = gpufs.sanitizer.violations
        assert len(violations) == 1
        [v] = violations
        assert v.invariant == "lockstep"
        assert v.block_id == 0
        assert {v.details["barriers"], v.details["expected"]} == {1, 2}

    def test_balanced_barriers_are_clean(self, env):
        device, gpufs, _ = env

        def kernel(ctx):
            yield from ctx.syncthreads()
            yield from ctx.syncthreads()

        device.launch(kernel, grid=2, block_threads=64)
        assert gpufs.sanitizer.violations == []


class TestPinLeak:
    def test_gmmap_without_gmunmap_is_exactly_one_violation(self, env):
        device, gpufs, fid = env

        def kernel(ctx):
            addr = yield from gpufs.gmmap(ctx, fid, 0)
            _ = yield from ctx.load(addr + ctx.lane * 4, "f4")

        device.launch(kernel, grid=1, block_threads=32)
        violations = gpufs.sanitizer.violations
        assert len(violations) == 1
        [v] = violations
        assert v.invariant == "pin-leak"
        assert v.details["pins"] == {f"{fid}:0": 1}

    def test_balanced_pins_are_clean(self, env):
        device, gpufs, fid = env

        def kernel(ctx):
            addr = yield from gpufs.gmmap(ctx, fid, 0)
            _ = yield from ctx.load(addr + ctx.lane * 4, "f4")
            yield from gpufs.gmunmap(ctx, fid, 0)

        device.launch(kernel, grid=1, block_threads=32)
        assert gpufs.sanitizer.violations == []

    def test_undestroyed_apointer_is_exactly_one_violation(self, env):
        from repro.core import APConfig, AVM

        device, gpufs, _ = env
        avm = AVM(APConfig())
        src = device.alloc(PAGE)

        def kernel(ctx):
            ptr = avm.gvmmap_device(ctx, src, PAGE)
            _ = yield from ptr.read(ctx, "f4")
            # missing: yield from ptr.destroy(ctx)

        device.launch(kernel, grid=1, block_threads=32)
        violations = gpufs.sanitizer.violations
        assert len(violations) == 1
        [v] = violations
        assert v.invariant == "pin-leak"
        assert "apointer" in v.message
        assert v.details["linked_lanes"] > 0

    def test_destroyed_apointer_is_clean(self, env):
        from repro.core import APConfig, AVM

        device, gpufs, _ = env
        avm = AVM(APConfig())
        src = device.alloc(PAGE)

        def kernel(ctx):
            ptr = avm.gvmmap_device(ctx, src, PAGE)
            _ = yield from ptr.read(ctx, "f4")
            yield from ptr.destroy(ctx)

        device.launch(kernel, grid=1, block_threads=32)
        assert gpufs.sanitizer.violations == []


class TestTornWrite:
    def test_overlapping_unordered_stores_are_one_violation(self, env):
        device, gpufs, _ = env
        buf = device.alloc(PAGE)

        def kernel(ctx):
            yield from ctx.store(buf + ctx.lane * 4,
                                 np.ones(32, np.float32), "f4")

        device.launch(kernel, grid=1, block_threads=64)
        violations = gpufs.sanitizer.violations
        assert len(violations) == 1
        [v] = violations
        assert v.invariant == "torn-write"
        assert v.details["other_warp"] != v.warp_id

    def test_disjoint_stores_are_clean(self, env):
        device, gpufs, _ = env
        buf = device.alloc(PAGE)

        def kernel(ctx):
            yield from ctx.store(buf + ctx.global_tid * 4,
                                 np.ones(32, np.float32), "f4")

        device.launch(kernel, grid=1, block_threads=64)
        assert gpufs.sanitizer.violations == []

    @pytest.mark.parametrize("gap, torn", [(12, 1), (16, 0)])
    def test_wide_store_is_checked_over_its_full_extent(self, env, gap,
                                                        torn):
        # Warp 0 writes 4 x f4 = 16 bytes per lane; warp 1 writes one f4
        # at byte ``gap`` of each lane's slot.  Byte 12 lies inside the
        # wide extent (not inside its first element), byte 16 past it.
        device, gpufs, _ = env
        buf = device.alloc(PAGE)
        wide = np.arange(32 * 4, dtype=np.float32).reshape(32, 4)

        def kernel(ctx):
            slot = buf + ctx.lane * 32
            if ctx.warp_in_block == 0:
                yield from ctx.store_wide(slot, wide, "f4")
            else:
                yield from ctx.store(slot + gap, np.full(32, -1.0,
                                                         np.float32), "f4")

        device.launch(kernel, grid=1, block_threads=64)
        violations = gpufs.sanitizer.violations
        assert len(violations) == torn
        assert all(v.invariant == "torn-write" for v in violations)
        slots = device.memory.read(buf, 32 * 32).view(np.float32)
        assert np.array_equal(slots.reshape(32, 8)[:, :3], wide[:, :3])

    @pytest.mark.parametrize("op, lane_bytes", [("write", 4),
                                                 ("write_wide", 8)])
    @pytest.mark.parametrize("shift, torn", [(0.5, 1), (1, 0)])
    def test_apointer_stores_are_checked(self, env, op, lane_bytes, shift,
                                         torn):
        # Each warp writes one contiguous warp line through its own
        # apointer; warp 1's line starts half a line (overlapping) or a
        # whole line (disjoint) after warp 0's.
        # A local import keeps the line numbers that lint-baseline.json
        # records for the kernels above.
        from repro.core import AVM, APConfig

        device, gpufs, _ = env
        buf = device.alloc(PAGE)
        avm = AVM(APConfig())
        line = 32 * lane_bytes
        start = int(shift * line)

        def kernel(ctx):
            ptr = avm.gvmmap_device(ctx, buf, PAGE, write=True)
            yield from ptr.seek(ctx, ctx.warp_in_block * start
                                + ctx.lane * lane_bytes)
            if op == "write":
                yield from ptr.write(ctx, np.ones(32, np.float32), "f4")
            else:
                yield from ptr.write_wide(
                    ctx, np.ones((32, 2), np.float32), "f4")
            yield from ptr.destroy(ctx)

        device.launch(kernel, grid=1, block_threads=64)
        violations = gpufs.sanitizer.violations
        assert len(violations) == torn
        assert gpufs.sanitizer.stats.stores_checked == 2
        if torn:
            [v] = violations
            assert v.invariant == "torn-write"
            assert (v.details["addr_lo"], v.details["addr_hi"]) == (
                buf + start, buf + line)

    def test_barrier_orders_the_writes(self, env):
        device, gpufs, _ = env
        buf = device.alloc(PAGE)

        def kernel(ctx):
            if ctx.warp_in_block == 0:
                yield from ctx.store(buf + ctx.lane * 4,
                                     np.ones(32, np.float32), "f4")
            yield from ctx.syncthreads()
            if ctx.warp_in_block == 1:
                yield from ctx.store(buf + ctx.lane * 4,
                                     np.zeros(32, np.float32), "f4")

        device.launch(kernel, grid=1, block_threads=64)
        assert gpufs.sanitizer.violations == []

    def test_common_lock_orders_the_writes(self, env):
        device, gpufs, _ = env
        buf = device.alloc(PAGE)
        lk = TimedLock()

        def kernel(ctx):
            yield from ctx.lock(lk)
            yield from ctx.store(buf + ctx.lane * 4,
                                 np.ones(32, np.float32), "f4")
            yield from ctx.unlock(lk)

        device.launch(kernel, grid=1, block_threads=64)
        assert gpufs.sanitizer.violations == []

    def test_history_does_not_leak_across_launches(self, env):
        device, gpufs, _ = env
        buf = device.alloc(PAGE)

        def kernel(ctx):
            yield from ctx.store(buf + ctx.lane * 4,
                                 np.ones(32, np.float32), "f4")

        # Two sequential single-warp launches write the same bytes;
        # launches are serialized, so this is not a race.
        device.launch(kernel, grid=1, block_threads=32)
        device.launch(kernel, grid=1, block_threads=32)
        assert gpufs.sanitizer.violations == []


#: The attribution and request-scope state only a traced context keeps.
TRACED_STATE = {"_activity", "activity", "_pending_translation",
                "_request_depth", "_request_seq", "_request_id"}


def observed_launch(traced: bool, sanitize: bool):
    """One launch of a kernel that tags, locks, spans and syncs: its
    first warp context, gpufs, cycles and trace rows (``None`` when
    untraced)."""
    device, gpufs, _ = make_env(sanitize=sanitize)
    buf = device.alloc(PAGE * 2)
    lock = TimedLock("l")
    seen = []

    def kernel(ctx, buf):
        seen.append(ctx)
        ctx.begin_request()
        ctx.push_activity("translation")
        ctx.charge(3)
        v = yield from ctx.load(buf + ctx.global_tid * 4, "f4",
                                chain_tag="translation")
        yield from ctx.scratch(2)
        ctx.pop_activity()
        yield from ctx.lock(lock)
        yield from ctx.store(buf + ctx.global_tid * 4, v + 1, "f4")
        yield from ctx.unlock(lock)
        ctx.trace_span("page_in", 0.0, ctx.now, "x")
        ctx.end_request()
        yield from ctx.syncthreads()

    with capture(trace=traced) as prof:
        result = device.launch(kernel, grid=2, block_threads=64,
                               args=(buf,))
    rows = list(prof.traces[0].rows) if traced else None
    return seen[0], gpufs, result.cycles, rows


class TestZeroCostWhenOff:
    """Each launch picks its warp context class once: traced only under
    a tracer, sanitized only under a sanitizer, and a sanitizer moves no
    cycle or trace row."""

    @pytest.mark.parametrize("sanitize", [False, True],
                             ids=["unsanitized", "sanitized"])
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    def test_launch_runs_its_context_class(self, traced, sanitize):
        ctx, gpufs, cycles, rows = observed_launch(traced, sanitize)
        assert type(ctx) is {
            (False, False): WarpContext,
            (False, True): sanitizers.SanitizedWarpContext,
            (True, False): TracedWarpContext,
            (True, True): sanitizers.SanitizedTracedWarpContext,
        }[traced, sanitize]
        assert ctx.sanitizer is gpufs.sanitizer
        assert (gpufs.sanitizer is not None) == sanitize
        if traced:
            assert ctx.tracer is not None and ctx._request_seq == 1
            assert any(row[2] == "page_in" for row in rows)
        else:
            assert ctx.tracer is None
            assert not TRACED_STATE & vars(ctx).keys()
        if sanitize:
            assert gpufs.sanitizer.stats.stores_checked
            _, _, plain_cycles, plain_rows = observed_launch(traced, False)
            assert (cycles, rows) == (plain_cycles, plain_rows)

    def test_on_mode_wraps_contexts(self, env):
        device, gpufs, _ = env
        seen = []

        def kernel(ctx):
            seen.append(ctx)
            yield from ctx.syncthreads()

        device.launch(kernel, grid=1, block_threads=32)
        assert type(seen[0]) is sanitizers.SanitizedWarpContext
        assert seen[0].sanitizer is gpufs.sanitizer

    def test_sanitizer_is_timing_neutral(self):
        def kernel(ctx, buf):
            v = yield from ctx.load(buf + ctx.global_tid * 4, "f4")
            yield from ctx.store(buf + ctx.global_tid * 4, v + 1, "f4")
            yield from ctx.syncthreads()

        cycles = []
        for sanitize in (False, True):
            device, gpufs, _ = make_env(sanitize=sanitize)
            buf = device.alloc(PAGE * 2)
            r = device.launch(kernel, grid=2, block_threads=64,
                              args=(buf,))
            cycles.append(r.cycles)
        assert cycles[0] == cycles[1]


class TestTelemetryIntegration:
    def test_sanitizer_component_in_profile(self):
        with capture() as prof:
            device, gpufs, fid = make_env()
            buf = device.alloc(PAGE)

            def kernel(ctx):
                yield from ctx.store(buf + ctx.lane * 4,
                                     np.ones(32, np.float32), "f4")

            device.launch(kernel, grid=1, block_threads=64)
        doc = prof.last.to_dict()
        san = doc["components"]["sanitizer"]
        assert san["warps_watched"] == 2
        assert san["torn_writes"] == 1
        assert san["lockstep_violations"] == 0
        assert san["pin_leaks"] == 0

    def test_unsanitized_profile_has_zeroed_section(self):
        with capture() as prof:
            device, gpufs, _ = make_env(sanitize=False)

            def kernel(ctx):
                yield from ctx.syncthreads()

            device.launch(kernel, grid=1, block_threads=32)
        san = prof.last.to_dict()["components"]["sanitizer"]
        assert san["warps_watched"] == 0
        assert san["torn_writes"] == 0
