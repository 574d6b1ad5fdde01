"""Request runs and engine-polled spins against their one-by-one forms.

A warp may yield a tuple of requests (a *run*); the engine dispatches
them one per event.  A ``Sleep`` with ``until`` is a spin the engine
re-polls.  Both must be exactly what the warp would have produced by
yielding the requests one at a time, or by looping over plain sleeps:
same cycles, stats, profile totals and trace records.  These properties
hold the engine to those references, kept here.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import Device, K80_SPEC, Tracer
from repro.gpu.engine import Engine
from repro.gpu.instructions import (
    AcquireLock,
    AtomicOp,
    Compute,
    HostCompute,
    LoadFence,
    MemAccess,
    PcieTransfer,
    ReleaseLock,
    ScratchAccess,
    Sleep,
    TimedLock,
)
from repro.gpu.kernel import BlockContext
from repro.gpu.memory import Scratchpad
from repro.paging.gpufs import SPIN_WAIT_CYCLES, GPUfs
from repro.paging.page_table import PageTableEntry
from repro.telemetry import capture
from repro.telemetry.hooks import EngineProfile

SPEC = dataclasses.replace(K80_SPEC, num_sms=2)
NUM_LOCKS = 2
WARPS_PER_BLOCK = 3
#: Three blocks on two SMs at one block each: one waits in the queue,
#: so I/O preemption has a block to swap in.
NUM_BLOCKS = 3

# Requests as plain tuples, rebuilt for every run (the engine mutates
# a sliced request).  Counts straddle Engine.ISSUE_SLICE.
counts = st.sampled_from([0.0, 4.0, 100.0, 511.0, 700.0, 1500.0])
simple_op = st.one_of(
    st.tuples(st.just("compute"), counts,
              st.one_of(st.none(), st.sampled_from([0.0, 3.0, 40.0]))),
    st.tuples(st.just("load"), st.integers(0, 8), counts,
              st.sampled_from([0.0, 2.0, 30.0]), st.booleans()),
    st.tuples(st.just("store"), st.integers(0, 8), counts),
    st.tuples(st.just("fence")),
    st.tuples(st.just("sleep"), st.sampled_from([0.0, 50.0, 400.0]),
              st.booleans()),
    st.tuples(st.just("host"), st.sampled_from([1e-7, 2e-6])),
    st.tuples(st.just("pcie"), st.sampled_from([512, 4096]),
              st.booleans()),
    st.tuples(st.just("scratch"), st.sampled_from([1.0, 8.0])),
    st.tuples(st.just("atomic"), st.sampled_from([0, 64])),
)
op = st.one_of(
    simple_op,
    st.tuples(st.just("locked"), st.integers(0, NUM_LOCKS - 1),
              st.lists(simple_op, max_size=3)))
#: One warp's script: items yielded as a run (True) or one by one.
script = st.lists(st.tuples(st.booleans(), st.lists(op, min_size=1,
                                                    max_size=6)),
                  max_size=5)


def _requests(ops, locks) -> list:
    out = []
    for o in ops:
        kind = o[0]
        if kind == "compute":
            out.append(Compute(count=o[1], chain=o[2]))
        elif kind == "load":
            out.append(MemAccess(transactions=o[1], count=o[2],
                                 chain=o[3], nonblocking=o[4]))
        elif kind == "store":
            out.append(MemAccess(transactions=o[1], is_store=True,
                                 count=o[2]))
        elif kind == "fence":
            out.append(LoadFence())
        elif kind == "sleep":
            out.append(Sleep(cycles=o[1], io_wait=o[2]))
        elif kind == "host":
            out.append(HostCompute(seconds=o[1]))
        elif kind == "pcie":
            out.append(PcieTransfer(nbytes=o[1], latency_free=o[2]))
        elif kind == "scratch":
            out.append(ScratchAccess(count=o[1]))
        elif kind == "atomic":
            out.append(AtomicOp(address=o[1]))
        else:
            lock = locks[o[1]]
            out.append(AcquireLock(lock))
            out.extend(_requests(o[2], locks))
            out.append(ReleaseLock(lock))
    return out


def _warp(items, locks, as_runs: bool, seen: list):
    """Yield each item's requests, as one tuple when the item is a run
    and ``as_runs`` is set; record the time the warp resumes after each
    item."""
    for is_run, ops in items:
        reqs = _requests(ops, locks)
        if is_run and as_runs:
            now = yield tuple(reqs)
        else:
            for req in reqs:
                now = yield req
        seen.append(now)


def _drive(scripts, as_runs: bool, gated: bool, preempt: bool) -> dict:
    spec = dataclasses.replace(SPEC, io_preemption=preempt)
    tracer = Tracer()
    profile = EngineProfile.for_sms(spec.num_sms, tracer=tracer)
    engine = Engine(spec, blocks_per_sm=1, profile=profile)
    locks = [TimedLock(f"l{i}") for i in range(NUM_LOCKS)]
    seen = [[] for _ in scripts]

    def factory(b):
        def make():
            block = BlockContext(block_id=b,
                                 threads=WARPS_PER_BLOCK * 32,
                                 warps=WARPS_PER_BLOCK,
                                 scratchpad=Scratchpad(1))
            ws = range(b * WARPS_PER_BLOCK, (b + 1) * WARPS_PER_BLOCK)
            return block, [_warp(scripts[w], locks, as_runs, seen[w])
                           for w in ws]
        return make

    if gated:
        engine.gate_host()
    engine.begin([factory(b) for b in range(NUM_BLOCKS)])
    host_free = 0.0
    while True:
        engine.advance()
        if not engine.parked:
            break
        # The parent's serialised host server, as a cluster runs it.
        arrival, seconds = engine.parked_host()
        start = max(arrival, host_free)
        host_free = start + seconds * spec.clock_hz
        engine.grant_host(start, host_free)
    cycles = engine.finish()
    return {"cycles": cycles, "stats": vars(engine.stats),
            "sm_busy": profile.sm_busy, "stalls": profile.stalls,
            "dram_queue": (profile.dram_queue_cycles,
                           profile.dram_queued_accesses),
            "trace": tracer.events, "resumes": seen}


class TestRunsAgainstOneByOne:
    @settings(max_examples=60, deadline=None)
    @given(scripts=st.lists(script, min_size=NUM_BLOCKS * WARPS_PER_BLOCK,
                            max_size=NUM_BLOCKS * WARPS_PER_BLOCK),
           gated=st.booleans(), preempt=st.booleans())
    def test_same_cycles_stats_profile_and_trace(self, scripts, gated,
                                                 preempt):
        one_by_one = _drive(scripts, False, gated, preempt)
        as_runs = _drive(scripts, True, gated, preempt)
        assert as_runs == one_by_one

    def test_a_sliced_head_resumes_the_run(self):
        """A compute above the issue slice at the head of a run is fed
        in slices, then the rest of the run follows."""
        items = [[(True, [("compute", 1500.0, None), ("sleep", 50.0,
                                                      False)])]]
        scripts = items * (NUM_BLOCKS * WARPS_PER_BLOCK)
        one_by_one = _drive(scripts, False, False, False)
        assert _drive(scripts, True, False, False) == one_by_one
        assert one_by_one["stats"]["instructions"] == \
            1500.0 * NUM_BLOCKS * WARPS_PER_BLOCK


# ----------------------------------------------------------------------
# Page-ready spins: the engine's polls against the warp's own loop
# ----------------------------------------------------------------------
#: Sixteen warps spin on one of two pages (a stagger apart), then
#: work and ride an I/O sleep; fourteen more ride I/O sleeps after a
#: delay.  Spinners alone stay under the preemption threshold (3/4 of
#: the block), so when a block is swapped out depends on which warps
#: are stalled on I/O at each sleep.
SPINNERS = range(2, 18)
STAGGER = 4
IO_SLEEP = 1500.0
WORK = 400


def _loop_wait_ready(gpufs, ctx, entry):
    """The page-ready spin as a warp loop: one plain sleep per poll."""
    while not entry.ready:
        gpufs.stats.busy_waits += 1
        yield from ctx.sleep(SPIN_WAIT_CYCLES, io_wait=True)


def _spin_launch(delays, preempt: bool, engine_polls: bool) -> dict:
    """Warps 0 and 1 of block ``b`` ready its two pages after
    ``delays[b][0]`` and ``delays[b][1]``; warps in :data:`SPINNERS`
    spin on one of them, the others sleep ``delays[b][2]``."""
    spec = dataclasses.replace(K80_SPEC, num_sms=1, io_preemption=preempt)
    device = Device(spec=spec, memory_bytes=4 * 1024 * 1024)
    gpufs = GPUfs(device)
    entries = [[PageTableEntry(0, 2 * b + i, frame=-1, ready=False)
                for i in range(2)] for b in range(len(delays))]
    lock = TimedLock("ready")
    wait = gpufs._wait_ready if engine_polls \
        else (lambda ctx, e: _loop_wait_ready(gpufs, ctx, e))

    def kern(ctx):
        w = ctx.warp_in_block
        entry = entries[ctx.block_id][w % 2]
        if w < 2:
            yield from ctx.sleep(delays[ctx.block_id][w])
            yield from ctx.lock(lock)
            entry.ready = True
            yield from ctx.unlock(lock)
            return
        yield from ctx.compute(STAGGER * (w % 8))
        if w in SPINNERS:
            yield from wait(ctx, entry)
            yield from ctx.compute(WORK)
        else:
            yield from ctx.sleep(delays[ctx.block_id][2])
        yield from ctx.sleep(IO_SLEEP, io_wait=True)
        yield from ctx.compute(WORK)

    # 1024 threads: two blocks fill the SM, the rest queue.
    with capture(trace=True) as profiler:
        res = device.launch(kern, grid=len(delays), block_threads=1024)
    return {"cycles": res.cycles, "stats": vars(res.stats),
            "busy_waits": gpufs.stats.busy_waits,
            "stalls": res.profile.to_dict()["stalls"],
            "trace": profiler.traces[-1].events}


class TestSpinAgainstWarpLoop:
    @settings(max_examples=25, deadline=None)
    @given(delays=st.lists(st.tuples(st.floats(0.0, 3000.0),
                                     st.floats(0.0, 3000.0),
                                     st.floats(0.0, 3000.0)),
                           min_size=1, max_size=4),
           preempt=st.booleans())
    def test_same_cycles_busy_waits_stalls_and_trace(self, delays,
                                                     preempt):
        loop = _spin_launch(delays, preempt, engine_polls=False)
        polled = _spin_launch(delays, preempt, engine_polls=True)
        assert polled == loop

    def test_spinners_spin_and_preempt(self):
        delays = [(2500.0, 2500.0, 500.0)] * 4
        loop = _spin_launch(delays, True, engine_polls=False)
        assert loop["busy_waits"] > 0
        assert loop["stats"]["preemptions"] > 0
        assert _spin_launch(delays, True, engine_polls=True) == loop
