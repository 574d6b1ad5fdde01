"""Shared unchanging requests against the fresh requests they replace.

An untraced warp yields one ``ScratchAccess`` per exact count, and each
``TimedLock`` its own ``AcquireLock``/``ReleaseLock``, instead of
building a request per call; every primitive that flushes the pending
charge first takes it from ``WarpContext._flush_request``; the leader's
integer words move by ``struct`` packers and are counted by
``GlobalMemory.span_transactions``; and ``PageTable.add_refs`` builds
its key and address inline.  The ``ref_*`` functions below are
those primitives as they were before, a fresh request on every call.
Each case runs with them patched in and without, and requires the same
cycles, every ``EngineStats`` field, device memory, the
``capture(trace=False)`` profile documents and the trace rows.  A
shared request must also still equal a freshly built one after a
traced launch: tags are set only on a traced warp's fresh requests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu import Device
from repro.gpu.device import Device as _Device
from repro.gpu.engine import Engine
from repro.gpu.instructions import (
    AcquireLock,
    AtomicOp,
    Barrier,
    Compute,
    LoadFence,
    MemAccess,
    PcieTransfer,
    ReleaseLock,
    ScratchAccess,
    Sleep,
    TimedLock,
)
from repro.gpu.kernel import WarpContext
from repro.gpu.memory import DTYPES, AffineLanes
from repro.paging.page_table import PageTable
from repro.telemetry import capture
from repro.workloads import run_graphwalk, run_kvstore
from repro.workloads.filebench import run_sequential_file_read
from tests.conftest import budget
from tests.gpu.test_engine_golden import contended_kernel_device


# ----------------------------------------------------------------------
# The primitives as they were: a fresh request on every call
# ----------------------------------------------------------------------
def ref_flush(self):
    pc, pch, pair = self._take_pending()
    if pc or pch:
        self.now = yield self._tagged(Compute(count=pc, chain=pch), pair)


def ref_scratch(self, count=1.0):
    pc, pch, pair = self._take_pending()
    if pc or pch:
        self.now = yield self._tagged(Compute(count=pc, chain=pch), pair)
    self.now = yield self._tagged(ScratchAccess(count=count), None)


def ref_fence(self):
    yield from self.flush()
    self.now = yield LoadFence()


def ref_syncthreads(self):
    yield from self.flush()
    self.now = yield Barrier()


def ref_lock(self, lock):
    yield from self.flush()
    self.now = yield self._tagged(AcquireLock(lock), None)


def ref_unlock(self, lock):
    self.now = yield ReleaseLock(lock)


def ref_pcie(self, nbytes, to_device=True, latency_free=False):
    yield from self.flush()
    self.now = yield self._tagged(
        PcieTransfer(nbytes=int(nbytes), to_device=to_device,
                     latency_free=latency_free), None)


def ref_clock(self):
    yield from self.flush()
    self.now = yield Sleep(cycles=0.0)
    return self.now


def ref_load_scalar(self, addr, dtype="u8"):
    dt = DTYPES[dtype]
    w = dt.itemsize
    addr = int(addr)
    memory = self.memory
    req = MemAccess(
        memory.transactions_for(AffineLanes(addr, w, 1), w),
        False, self._pending_count, self._pending_chain)
    self._pending_count = self._pending_chain = 0.0
    if self.tracer is not None:
        self._tagged(req, self._pending_translation)
        self._pending_translation = None
    self.now = yield req
    if addr < 0 or addr + w > memory.size:
        raise memory._span_error(addr, addr + w)
    return memory.data[addr:addr + w].view(dt)[0]


def ref_store_scalar(self, addr, value, dtype="u8"):
    dt = DTYPES[dtype]
    w = dt.itemsize
    addr = int(addr)
    memory = self.memory
    tx = memory.transactions_for(AffineLanes(addr, w, 1), w)
    if addr < 0 or addr + w > memory.size:
        raise memory._span_error(addr, addr + w)
    memory.data[addr:addr + w].view(dt)[0] = value
    req = MemAccess(tx, True, self._pending_count, self._pending_chain)
    self._pending_count = self._pending_chain = 0.0
    if self.tracer is not None:
        self._tagged(req, self._pending_translation)
        self._pending_translation = None
    self.now = yield req


def ref_atomic_add(self, addr, value=1, dtype="i8"):
    dt = DTYPES[dtype]
    addr = int(addr)
    word = self.memory.read(addr, dt.itemsize).view(dt)
    old = word.item()
    if dt.kind == "f":
        word[0] = old + value
    else:
        bits = 8 * dt.itemsize
        new = (old + int(value)) & ((1 << bits) - 1)
        if dt.kind == "i" and new >> (bits - 1):
            new -= 1 << bits
        word[0] = new
    req = AtomicOp(addr)
    if self.tracer is not None:
        self._tagged(req, None)
    self.now = yield req
    return old


def ref_add_refs(self, ctx, entry, refs):
    slot = self._index.get(entry.key)
    addr = self._slot_addr(slot if slot is not None else 0) + 8
    yield from ctx.atomic_add(addr, refs)
    # The body of PageTable.add_refs, whose finding is baselined there.
    entry.refcount += refs  # aplint: disable=shared-race
    if entry.refcount < 0:
        raise RuntimeError(
            f"negative refcount for page {entry.key}: {entry.refcount}")
    return entry.refcount


REFERENCES = {
    (WarpContext, "flush"): ref_flush,
    (WarpContext, "scratch"): ref_scratch,
    (WarpContext, "fence"): ref_fence,
    (WarpContext, "syncthreads"): ref_syncthreads,
    (WarpContext, "lock"): ref_lock,
    (WarpContext, "unlock"): ref_unlock,
    (WarpContext, "pcie"): ref_pcie,
    (WarpContext, "clock"): ref_clock,
    (WarpContext, "load_scalar"): ref_load_scalar,
    (WarpContext, "store_scalar"): ref_store_scalar,
    (WarpContext, "atomic_add"): ref_atomic_add,
    (PageTable, "add_refs"): ref_add_refs,
}


def both_ways(run):
    """``run()`` with the current primitives, then with the references
    patched in (and taken out again)."""
    current = run()
    saved = {key: key[0].__dict__[key[1]] for key in REFERENCES}
    try:
        for (cls, name), ref in REFERENCES.items():
            setattr(cls, name, ref)
        reference = run()
    finally:
        for (cls, name), fn in saved.items():
            setattr(cls, name, fn)
    return current, reference


# ----------------------------------------------------------------------
# Observing a run
# ----------------------------------------------------------------------
def plain(req) -> tuple:
    """A dispatched request as comparable data: its type and instance
    attributes (fields, tags, charge pair), a lock by its name and a
    spin's poll by its type."""
    out = {}
    for name, value in vars(req).items():
        if isinstance(value, TimedLock):
            value = value.name
        elif callable(value):
            value = type(value).__name__
        out[name] = value
    return type(req).__name__, out


def observe(run, traced: bool) -> dict:
    """Run ``run()`` once, recording every request the engine
    dispatches and every launch: cycles, all ``EngineStats`` fields,
    the launching device's memory digest after the run, and the profile
    documents (under ``capture(trace=False)``) or the trace rows (under
    a tracing ``capture()``)."""
    launches = []
    requests = []
    launch_cfg = _Device.launch_cfg
    dispatch = Engine._dispatch

    def recording_launch_cfg(device, *args, **kwargs):
        result = launch_cfg(device, *args, **kwargs)
        launches.append((device, result))
        return result

    def recording_dispatch(engine, req, runner, now):
        if type(req) is not tuple:      # a run's items come one by one
            requests.append(plain(req))
        dispatch(engine, req, runner, now)

    _Device.launch_cfg = recording_launch_cfg
    Engine._dispatch = recording_dispatch
    try:
        with capture(trace=traced) as prof:
            value = run()
    finally:
        _Device.launch_cfg = launch_cfg
        Engine._dispatch = dispatch
    seen = {
        "value": repr(value),
        "requests": requests,
        # ``repr`` tells an int count from a float one.
        "launches": [repr((r.cycles, dataclasses.asdict(r.stats)))
                     for _, r in launches],
        "memory": [hashlib.sha256(d.memory.data.tobytes()).hexdigest()
                   for d, _ in launches],
    }
    if traced:
        seen["rows"] = [None if t is None else list(t.rows)
                        for t in prof.traces]
    else:
        seen["profiles"] = [json.dumps(p.to_dict(), sort_keys=True)
                            for p in prof.profiles]
    return seen


def _graphwalk():
    return run_graphwalk(nwarps=4, steps=2, nnodes=8 * 1024, use_tlb=True)


def _kv_writeback():
    return run_kvstore(nwarps=4, records_per_warp=64, ops_per_warp=8,
                       num_frames=6)


def _filescan():
    return run_sequential_file_read(npages=64, warps=4, num_frames=16,
                                    copy_pages=False, readahead=True)


def _contended():
    device, kern = contended_kernel_device()
    return device.launch(kern, grid=4, block_threads=128).cycles


def _sanitized_syscalls():
    return run_kvstore(nwarps=2, records_per_warp=32, ops_per_warp=4,
                       sanitize=True)


WORKLOADS = {"graphwalk": _graphwalk, "kv-writeback": _kv_writeback,
             "filescan": _filescan, "contended": _contended,
             "sanitized-kvstore": _sanitized_syscalls}


class TestWorkloadsAgainstFreshRequests:
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["profiled", "traced"])
    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_same_results_profiles_and_trace_rows(self, name, traced):
        current, reference = both_ways(
            lambda: observe(WORKLOADS[name], traced))
        assert current["launches"], f"{name} launched nothing"
        assert current == reference


# ----------------------------------------------------------------------
# Random warp programs over the changed primitives
# ----------------------------------------------------------------------
NUM_LOCKS = 2
MEMORY = 1 << 16
#: Counts of every type a caller passes, zeros of both signs included
#: (a zero is never shared).
counts = st.sampled_from([1, 1.0, 4, 4.0, 2.5, 0, 0.0, -0.0, True])
charges = st.tuples(st.sampled_from([0.0, 3.0, 600.0]),
                    st.sampled_from([None, 0.0, 2.0]))
scalar_dtypes = st.sampled_from(sorted(DTYPES))
simple_op = st.one_of(
    st.tuples(st.just("charge"), charges,
              st.sampled_from(["", "translation", "tlb_miss"])),
    st.tuples(st.just("scratch"), counts),
    st.tuples(st.just("flush")),
    st.tuples(st.just("fence")),
    st.tuples(st.just("pcie"), st.sampled_from([256, 4096]),
              st.booleans()),
    st.tuples(st.just("clock")),
    st.tuples(st.just("atomic"), st.integers(0, 7),
              st.sampled_from(["i8", "u4", "f8"])),
    st.tuples(st.just("store"), st.integers(0, 7), scalar_dtypes),
    st.tuples(st.just("load"), st.integers(0, 7), scalar_dtypes),
    st.tuples(st.just("activity"), st.sampled_from(["", "translation",
                                                    "fault_wait"])),
)
op = st.one_of(
    simple_op,
    st.tuples(st.just("locked"), st.integers(0, NUM_LOCKS - 1),
              st.lists(simple_op, max_size=3)))
#: One script per warp of a two-warp block; two blocks.
programs = st.lists(st.lists(op, max_size=8), min_size=4, max_size=4)


def _run_ops(ctx, ops, base, clocks):
    """Run the simple ops of a script."""
    for o in ops:
        kind = o[0]
        if kind == "charge":
            (count, chain), tag = o[1], o[2]
            ctx.charge(count, chain, tag)
        elif kind == "scratch":
            yield from ctx.scratch(o[1])
        elif kind == "flush":
            yield from ctx.flush()
        elif kind == "fence":
            yield from ctx.fence()
        elif kind == "pcie":
            yield from ctx.pcie(o[1], latency_free=o[2])
        elif kind == "clock":
            clocks.append((yield from ctx.clock()))
        elif kind == "atomic":
            old = yield from ctx.atomic_add(base + 8 * o[1],
                                            ctx.warp_id + 1, o[2])
            clocks.append(repr(old))
        elif kind == "store":
            value = ctx.warp_id + (1 if DTYPES[o[2]].kind in "iu" else 0.5)
            yield from ctx.store_scalar(base + 8 * o[1], value, o[2])
        elif kind == "load":
            value = yield from ctx.load_scalar(base + 8 * o[1], o[2])
            clocks.append(repr(value))
        elif kind == "activity":
            if o[1]:
                ctx.push_activity(o[1])
            else:
                ctx.pop_activity()


def _run_script(ctx, ops, locks, base, clocks):
    """Run a script: simple ops, and locked groups of them."""
    for o in ops:
        if o[0] == "locked":
            lock = locks[o[1]]
            yield from ctx.lock(lock)
            yield from _run_ops(ctx, o[2], base, clocks)
            yield from ctx.unlock(lock)
        else:
            yield from _run_ops(ctx, [o], base, clocks)


def _program_launch(scripts, locks, contexts=None) -> list:
    """One launch of two two-warp blocks running ``scripts``, then a
    charged barrier and a clock; returns what the warps read.  The warp
    contexts are appended to ``contexts`` when it is given."""
    device = Device(memory_bytes=MEMORY)
    base = device.alloc(64)
    clocks = []

    def kern(ctx):
        if contexts is not None:
            contexts.append(ctx)
        yield from _run_script(ctx, scripts[ctx.warp_id], locks, base,
                               clocks)
        ctx.charge(5)
        yield from ctx.syncthreads()
        clocks.append((yield from ctx.clock()))

    device.launch(kern, grid=2, block_threads=64)
    return clocks


def assert_nothing_leaked(locks, contexts) -> None:
    """Every shared request still equals a freshly built one, with no
    instance attribute (a tag) a fresh one lacks."""
    shared = [r for ctx in contexts for r in ctx._scratch.values()]
    fresh = [ScratchAccess(r.count) for r in shared]
    shared += [r for lock in locks for r in (lock.acquire, lock.release)]
    fresh += [r for lock in locks
              for r in (AcquireLock(lock), ReleaseLock(lock))]
    assert shared == fresh
    assert [vars(r) for r in shared] == [vars(r) for r in fresh]


class TestProgramsAgainstFreshRequests:
    @settings(max_examples=budget(100), deadline=None)
    @given(programs, st.booleans())
    # A zero charge tagged "translation" leaves a [0, 0] pair that the
    # flush before the scratch access must clear.
    @example([[("charge", (0.0, None), "translation"), ("scratch", 1),
               ("load", 0, "u8")], [], [], []], True)
    def test_same_cycles_stats_profile_rows_and_values(self, scripts,
                                                       traced):
        # One set of locks serves every launch, so their shared
        # requests meet untraced and traced warps alike.
        locks = [TimedLock(f"l{i}") for i in range(NUM_LOCKS)]
        contexts = []
        current, reference = both_ways(
            lambda: observe(lambda: _program_launch(scripts, locks,
                                                    contexts), traced))
        assert current == reference
        assert_nothing_leaked(locks, contexts)

    def test_shared_requests_untouched_by_a_traced_launch(self):
        locks = [TimedLock(f"l{i}") for i in range(NUM_LOCKS)]
        ops = [("activity", "translation"), ("scratch", 3),
               ("locked", 0, [("scratch", 1.0), ("charge", (2.0, None),
                                                  "translation")]),
               ("locked", 1, [("scratch", 3)])]
        scripts = [ops] * 4
        untraced_contexts, traced_contexts = [], []
        observe(lambda: _program_launch(scripts, locks, untraced_contexts),
                traced=False)
        assert all((int, 3) in ctx._scratch for ctx in untraced_contexts)
        traced = observe(lambda: _program_launch(scripts, locks,
                                                 traced_contexts),
                         traced=True)
        # The traced run tagged its requests, all built fresh.
        assert any(fields.get("tag") == "translation"
                   for _, fields in traced["requests"])
        assert all(not ctx._scratch for ctx in traced_contexts)
        assert_nothing_leaked(locks, untraced_contexts + traced_contexts)

    def test_untraced_warps_share_one_request_per_count_and_lock(self):
        lock = TimedLock("l")
        seen = []

        def kern(ctx):
            for count in (2, 2, 2.0, 0.0, 0.0):
                yield from recording(ctx.scratch(count), seen.append)
            yield from recording(ctx.lock(lock), seen.append)
            yield from recording(ctx.unlock(lock), seen.append)

        Device(memory_bytes=MEMORY).launch(kern, grid=1, block_threads=32)
        assert len(seen) == 7
        two, two_again, two_float, zero, zero_again, acquire, release = seen
        assert two is two_again and two.count == 2
        assert two_float is not two and type(two_float.count) is float
        assert zero is not zero_again
        assert acquire is lock.acquire and release is lock.release


def recording(gen, keep):
    """Yield ``gen``'s requests through, passing each to ``keep``."""
    req = next(gen)
    while True:
        keep(req)
        now = yield req
        try:
            req = gen.send(now)
        except StopIteration as stop:
            return stop.value
