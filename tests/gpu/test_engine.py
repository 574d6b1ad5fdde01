"""Integration tests for the event-driven engine and Device launch API.

These validate both the *functional* behaviour (data really moves) and the
*timing* behaviour (latency hiding, bandwidth saturation, barriers, locks)
that the paper's evaluation depends on.
"""

import numpy as np
import pytest

from repro.gpu import Device, K80_SPEC, Tracer
from repro.gpu.engine import Engine
from repro.gpu.instructions import TimedLock
from repro.gpu.launch import LaunchPlan


@pytest.fixture
def dev():
    return Device(memory_bytes=8 * 1024 * 1024)


def _copy_kernel(ctx, src, dst):
    idx = ctx.global_tid
    ctx.charge(2)
    vals = yield from ctx.load(src + idx * 4, "f4")
    yield from ctx.store(dst + idx * 4, vals, "f4")


class TestFunctional:
    def test_copy_kernel_moves_data(self, dev):
        n = 8 * 256
        src, dst = dev.alloc(n * 4), dev.alloc(n * 4)
        dev.memory.write(src, np.arange(n, dtype=np.float32))
        dev.launch(_copy_kernel, grid=8, block_threads=256, args=(src, dst))
        out = dev.memory.read(dst, n * 4).view(np.float32)
        assert np.array_equal(out, np.arange(n, dtype=np.float32))

    def test_atomic_add_is_exact_across_warps(self, dev):
        counter = dev.alloc(8)

        def kern(ctx, counter):
            yield from ctx.atomic_add(counter, 1)

        dev.launch(kern, grid=4, block_threads=128, args=(counter,))
        val = int(dev.memory.read(counter, 8).view(np.int64)[0])
        assert val == 4 * 128 // 32  # one atomic per warp

    def test_barrier_orders_scratchpad_writes(self, dev):
        out_addr = dev.alloc(4 * 1024)

        def kern(ctx, out_addr):
            shared = ctx.block.shared.setdefault(
                "vals", np.zeros(ctx.block.threads, dtype=np.float32))
            shared[ctx.block_tid] = ctx.global_tid
            yield from ctx.scratch(1)
            yield from ctx.syncthreads()
            # read a value written by a *different* warp
            peer = (ctx.block_tid + 32) % ctx.block.threads
            yield from ctx.scratch(1)
            yield from ctx.store(out_addr + ctx.global_tid * 4,
                                 shared[peer], "f4")

        dev.launch(kern, grid=2, block_threads=128, args=(out_addr,))
        out = dev.memory.read(out_addr, 4 * 256).view(np.float32)
        expected = np.concatenate([
            (np.arange(128) + 32) % 128,
            ((np.arange(128) + 32) % 128) + 128,
        ]).astype(np.float32)
        assert np.array_equal(out, expected)

    def test_clock_is_monotonic(self, dev):
        times = []

        def kern(ctx, src):
            t0 = yield from ctx.clock()
            _ = yield from ctx.load(src + ctx.global_tid * 4, "f4")
            t1 = yield from ctx.clock()
            times.append((t0, t1))

        src = dev.alloc(4096)
        dev.launch(kern, grid=1, block_threads=64, args=(src,))
        assert all(t1 > t0 for t0, t1 in times)


class TestTiming:
    def test_single_warp_read_latency_matches_table1_raw(self, dev):
        """Raw pointer read: paper Table I row 1 reports 225 cycles."""
        times = []

        def kern(ctx, src):
            t0 = yield from ctx.clock()
            ctx.charge(2, chain=2)
            _ = yield from ctx.load(src + ctx.global_tid * 4, "f4")
            t1 = yield from ctx.clock()
            times.append(t1 - t0)

        src = dev.alloc(4096)
        dev.launch(kern, grid=1, block_threads=32, args=(src,))
        assert times[0] == pytest.approx(225, rel=0.05)

    def test_streaming_copy_saturates_bandwidth(self):
        """A raw tiled copy should reach ~100% of achievable bandwidth."""
        dev = Device(memory_bytes=128 * 1024 * 1024)
        per_thread, grid, bt = 32, 52, 1024
        n = grid * bt * per_thread
        src, dst = dev.alloc(n * 4), dev.alloc(n * 4)

        def kern(ctx, src, dst):
            total = grid * bt
            for i in range(per_thread):
                idx = ctx.global_tid + i * total
                ctx.charge(3)
                v = yield from ctx.load(src + idx * 4, "f4")
                ctx.charge(2)
                yield from ctx.store(dst + idx * 4, v, "f4")

        res = dev.launch(kern, grid=grid, block_threads=bt, args=(src, dst))
        bw = res.stats.dram_bandwidth(dev.spec)
        assert bw == pytest.approx(dev.spec.dram_bandwidth_achievable,
                                   rel=0.05)

    def test_more_warps_hide_latency(self, dev):
        """Per-access cost drops as occupancy grows (Figure 6 mechanism)."""
        def kern(ctx, src, iters):
            for i in range(iters):
                ctx.charge(10, chain=10)
                _ = yield from ctx.load(
                    src + (ctx.global_tid * 4 + i * 128) % 4096, "f4")

        src = dev.alloc(8192)
        lone = dev.launch(kern, grid=1, block_threads=32, args=(src, 8))
        packed = dev.launch(kern, grid=13, block_threads=1024, args=(src, 8))
        per_access_lone = lone.cycles / 8
        # packed: 13 blocks * 32 warps run concurrently on 13 SMs
        per_access_packed = packed.cycles / 8 / 32
        assert per_access_packed < per_access_lone / 3

    def test_extra_instructions_hidden_when_memory_bound(self, dev):
        """The free-computation bubble: small instruction overheads cost
        nothing when the kernel is bandwidth-bound at full occupancy."""
        def kern_cheap(ctx, src, iters):
            total = 13 * 1024
            for i in range(iters):
                idx = ctx.global_tid + i * total
                ctx.charge(2)
                _ = yield from ctx.load(src + idx * 16, "f8")

        def kern_costly(ctx, src, iters):
            total = 13 * 1024
            for i in range(iters):
                idx = ctx.global_tid + i * total
                ctx.charge(20)  # extra instructions, issue-only
                _ = yield from ctx.load(src + idx * 16, "f8")

        dev2 = Device(memory_bytes=64 * 1024 * 1024)
        src = dev2.alloc(13 * 1024 * 16 * 16)
        cheap = dev2.launch(kern_cheap, grid=13, block_threads=1024,
                            args=(src, 16))
        costly = dev2.launch(kern_costly, grid=13, block_threads=1024,
                             args=(src, 16))
        overhead = costly.cycles / cheap.cycles - 1
        assert overhead < 0.10

    def test_extra_instructions_visible_single_warp(self, dev):
        """The same overhead is fully exposed with one resident warp."""
        def kern(ctx, src, extra):
            for i in range(8):
                ctx.charge(2 + extra, chain=2 + extra)
                _ = yield from ctx.load(src + ctx.global_tid * 4, "f4")

        src = dev.alloc(4096)
        cheap = dev.launch(kern, grid=1, block_threads=32, args=(src, 0))
        costly = dev.launch(kern, grid=1, block_threads=32, args=(src, 20))
        assert costly.cycles > cheap.cycles * 1.5

    def test_block_waves_serialize(self, dev):
        """With 4x more blocks than can be resident, runtime ~4x."""
        def kern(ctx, src):
            for i in range(4):
                ctx.charge(50, chain=50)
                _ = yield from ctx.load(src + ctx.global_tid * 4, "f4")

        src = dev.alloc(4096)
        one_wave = dev.launch(kern, grid=26, block_threads=1024, args=(src,))
        four_waves = dev.launch(kern, grid=104, block_threads=1024,
                                args=(src,))
        ratio = four_waves.cycles / one_wave.cycles
        assert 3.0 < ratio < 5.0


class TestLocks:
    def test_lock_serializes_critical_section(self, dev):
        lock = TimedLock("t")
        order = []

        def kern(ctx, lock):
            yield from ctx.lock(lock)
            order.append(("enter", ctx.warp_id))
            yield from ctx.sleep(100)
            order.append(("exit", ctx.warp_id))
            yield from ctx.unlock(lock)

        dev.launch(kern, grid=1, block_threads=128, args=(lock,))
        # Critical sections must be properly nested: enter/exit alternate.
        kinds = [k for k, _ in order]
        assert kinds == ["enter", "exit"] * 4
        assert lock.holder is None

    def test_contention_is_counted(self, dev):
        lock = TimedLock("t")

        def kern(ctx, lock):
            yield from ctx.lock(lock)
            yield from ctx.sleep(10)
            yield from ctx.unlock(lock)

        res = dev.launch(kern, grid=1, block_threads=256, args=(lock,))
        assert res.stats.lock_acquisitions == 8
        assert res.stats.lock_contentions > 0


class TestLaunchValidation:
    def test_unknown_engine_kwarg_rejected(self):
        for kwarg in ("mode", "profiler"):
            with pytest.raises(TypeError, match="unexpected keyword"):
                Engine(K80_SPEC, 1, **{kwarg: object()})

    def test_tracer_kwarg_rejected(self):
        # Instrumentation travels only in the EngineHooks bundle.
        with pytest.raises(TypeError, match="unexpected keyword"):
            Engine(K80_SPEC, 1, tracer=Tracer())

    def test_zero_grid_rejected(self, dev):
        with pytest.raises(ValueError):
            dev.launch(_copy_kernel, grid=0, block_threads=32, args=(0, 0))

    def test_unschedulable_kernel_rejected(self, dev):
        with pytest.raises(ValueError):
            dev.launch(_copy_kernel, grid=1,
                       block_threads=K80_SPEC.max_threads_per_sm * 2,
                       args=(0, 0))

    def test_stats_accumulate_per_launch(self, dev):
        src, dst = dev.alloc(1024), dev.alloc(1024)
        r1 = dev.launch(_copy_kernel, grid=1, block_threads=32,
                        args=(src, dst))
        assert r1.stats.loads == 1
        assert r1.stats.stores == 1
        assert dev.launches == 1


class TestLaunchPlanValidation:
    def test_single_wraps_factories(self):
        plan = LaunchPlan.single([lambda: None])
        assert plan.num_groups == 1

    def test_flat_factory_list_rejected(self):
        with pytest.raises(TypeError, match="groups"):
            LaunchPlan(groups=[lambda: None])

    def test_callable_groups_rejected(self):
        with pytest.raises(TypeError):
            LaunchPlan(groups=lambda: None)
