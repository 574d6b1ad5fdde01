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
from repro.gpu.trace import COUNTER_KIND
from repro.telemetry import capture


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
        for kwarg in ("mode", "profiler", "hooks"):
            with pytest.raises(TypeError, match="unexpected keyword"):
                Engine(K80_SPEC, 1, **{kwarg: object()})

    def test_tracer_kwarg_rejected(self):
        # The tracer rides on the one observer, ``profile=``.
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


# -- observer-combination matrix ----------------------------------------
#: Instruction counts and sizes of the handler-coverage kernel — named
#: so the calibration linter can see they are deliberate test loads.
SLICED_COMPUTE = 1600        # above Engine.ISSUE_SLICE: issued in slices
TAGGED_COMPUTE = 24
SCRATCH_OPS = 4
TRANSLATION_CHARGE = 40
TRANSLATION_CHAIN = 12
OVERLAP_CHAIN = 30
POST_CHAIN = 6
LOCK_HOLD_CYCLES = 60.0
PCIE_BYTES = 4096
HOST_SECONDS = 2e-6
IO_WAIT_CYCLES = 90.0
COVERAGE_GRID = 2
COVERAGE_THREADS = 128
COVERAGE_WINDOW = 700.0


def _translate(ctx):
    """Charge work under the ``translation`` activity (tagged only
    while tracing), as the apointer layer does."""
    ctx.push_activity("translation")
    ctx.charge(TRANSLATION_CHARGE, chain=TRANSLATION_CHAIN)
    ctx.pop_activity()


def coverage_kernel(ctx, base, counter, lock):
    """Reaches every engine handler path: sliced issue, scratch, atomic,
    tagged compute, a non-blocking load and its fence, a blocking load
    with translation chains, a store, uncontended and contended lock
    grants (half of them under an activity tag), a barrier, PCIe, host
    compute and an I/O-wait sleep."""
    addrs = base + ctx.global_tid * 16
    yield from ctx.compute(SLICED_COMPUTE)
    yield from ctx.scratch(SCRATCH_OPS)
    yield from ctx.atomic_add(counter, 1)
    ctx.push_activity("translation")
    ctx.charge(TRANSLATION_CHARGE, chain=TRANSLATION_CHAIN)
    yield from ctx.compute(TAGGED_COMPUTE)     # a tagged request
    ctx.pop_activity()
    _translate(ctx)
    yield from ctx.load_wide(addrs, "f4", elems=4, nonblocking=True)
    yield from ctx.fence()
    _translate(ctx)
    vals = yield from ctx.load(addrs, "f4", overlap_chain=OVERLAP_CHAIN,
                               post_chain=POST_CHAIN,
                               chain_tag="translation")
    _translate(ctx)
    yield from ctx.store(addrs + 4, vals, "f4")
    if ctx.warp_in_block % 2:
        ctx.push_activity("fault_wait")
    yield from ctx.lock(lock)
    if ctx.warp_in_block % 2:
        ctx.pop_activity()
    yield from ctx.sleep(LOCK_HOLD_CYCLES)
    yield from ctx.unlock(lock)
    yield from ctx.syncthreads()
    yield from ctx.pcie(PCIE_BYTES)
    yield from ctx.host_compute(HOST_SECONDS)
    yield from ctx.sleep(IO_WAIT_CYCLES, io_wait=True)


def run_coverage():
    """One coverage launch on a fresh device, observed by whatever
    ``capture()`` is active."""
    device = Device(memory_bytes=8 * 1024 * 1024)
    base = device.alloc(COVERAGE_GRID * COVERAGE_THREADS * 16 + 64)
    counter = device.alloc(8)
    return device.launch(coverage_kernel, grid=COVERAGE_GRID,
                         block_threads=COVERAGE_THREADS,
                         args=(base, counter, TimedLock("cov")))


#: Setup name -> ``(trace, timeseries)`` of the ``capture()`` around the
#: launch, or ``None`` for no capture.
OBSERVER_SETUPS = {
    "none": None,
    "profile": (False, False),
    "profile+trace": (True, False),
    "sampler": (False, True),
    "sampler+trace": (True, True),
}


def _run_setup(observed):
    """One coverage launch; returns ``(result, tracer or None)``."""
    if observed is None:
        return run_coverage(), None
    with capture(trace=observed[0], timeseries=observed[1],
                 window_cycles=COVERAGE_WINDOW) as prof:
        result = run_coverage()
    return result, prof.traces[-1]


class TestObserverMatrix:
    """Every observer combination sees one launch the same way: the
    simulation never depends on what observes it, and each consumer
    gets the same record whatever rides along with it."""

    @pytest.fixture(scope="class")
    def runs(self):
        return {name: _run_setup(setup)
                for name, setup in OBSERVER_SETUPS.items()}

    def test_cycles_and_stats_identical(self, runs):
        ref = runs["none"][0]
        for name, (result, _) in runs.items():
            assert result.cycles == ref.cycles, name
            assert vars(result.stats) == vars(ref.stats), name

    def test_profiles_identical(self, runs):
        profiled = {name: result.profile.to_dict()
                    for name, (result, _) in runs.items()
                    if result.profile is not None}
        assert set(profiled) == {"profile", "profile+trace", "sampler",
                                 "sampler+trace"}
        ref = profiled["profile"]
        assert ref["stalls"]
        for name, doc in profiled.items():
            assert [s["busy_cycles"] for s in doc["sms"]] \
                == [s["busy_cycles"] for s in ref["sms"]], name
            assert list(doc["stalls"].items()) \
                == list(ref["stalls"].items()), name
            for key in ("queue_cycles", "queued_accesses"):
                assert doc["dram"][key] == ref["dram"][key], (name, key)

    def test_traces_identical(self, runs):
        traced = {name: [e for e in tracer.events
                         if e.kind != COUNTER_KIND]
                  for name, (_, tracer) in runs.items()
                  if tracer is not None}
        assert set(traced) == {"profile+trace", "sampler+trace"}
        ref = traced["profile+trace"]
        for name, events in traced.items():
            assert events == ref, name

    def test_kernel_reaches_every_handler(self, runs):
        _, tracer = runs["profile+trace"]
        kinds = {e.kind for e in tracer.events}
        assert {"compute", "scratchaccess", "atomicop", "memaccess",
                "pcietransfer", "hostcompute", "sleep", "issue",
                "translation", "stall"} <= kinds
        reasons = {e.detail for e in tracer.events if e.kind == "stall"}
        assert {"issue_queue", "exec_dependency", "translation",
                "scratch", "atomic", "memory", "lock", "fault_wait",
                "barrier", "io", "spin", "sleep"} <= reasons
        result = runs["none"][0]
        assert result.stats.lock_contentions > 0
        assert result.stats.instructions > SLICED_COMPUTE
