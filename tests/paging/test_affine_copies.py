"""The paging copies and leader accesses reach memory as affine lanes.

The GPUfs staging copy, the syscall layer's warp copy and the warp
leader's scalar loads and stores address one contiguous span per step
by construction, so they take global memory's closed form: the first
two hand it :class:`~repro.gpu.memory.AffineLanes`, and the staging
copy prices each full step with ``GlobalMemory.span_transactions``,
the formula of that form.  These tests spy on both to see which form
each step arrives in, and hold the one masked step left (a partial last
staging step) to the vector form it always had.  ``TestCopyRunAgainstSteps``
holds the staging copy's closed-form run to the step-by-step builder it
replaced, kept here as ``ref_copy``.
"""

import copy
import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import Sanitizer
from repro.gpu import Device, K80_SPEC
from repro.gpu.engine import Engine
from repro.gpu.instructions import MemAccess
from repro.gpu.memory import AffineLanes, GlobalMemory
from repro.telemetry import capture
from repro.workloads import run_graphwalk, run_grepscan, run_kvstore
from repro.workloads.filebench import run_sequential_file_read
from tests.conftest import budget

PAGE = 4096

#: The accessors a producer reaches ``transactions_for`` through.
ACCESSORS = {"load", "store", "load_wide", "store_wide"}
#: ``WarpContext.copy`` (the staging copy) and the leader's scalar
#: accessors count their own steps.
DIRECT = {"copy", "load_scalar", "store_scalar"}
PRODUCERS = DIRECT | {"_warp_copy"}


@pytest.fixture
def spy(monkeypatch):
    """Record ``(producer, addrs, mask, transactions)`` for every warp
    access: the producer is the function that called the accessor, or
    one of ``DIRECT``, which count their own steps.  A full staging
    step priced by ``span_transactions`` is recorded as the 8-byte
    lanes that tile its span."""
    calls = []
    count = GlobalMemory.transactions_for
    span = GlobalMemory.span_transactions

    def transactions_for(self, addrs, width, mask=None):
        tx = count(self, addrs, width, mask)
        caller = sys._getframe(1)
        name = caller.f_code.co_name
        if name not in DIRECT:
            assert name in ACCESSORS
            name = caller.f_back.f_code.co_name
        calls.append((name, addrs, mask, tx))
        return tx

    def span_transactions(self, base, nbytes):
        tx = span(self, base, nbytes)
        if sys._getframe(1).f_code.co_name == "copy":
            calls.append(("copy", AffineLanes(base, 8, nbytes // 8), None,
                          tx))
        return tx

    monkeypatch.setattr(GlobalMemory, "transactions_for", transactions_for)
    monkeypatch.setattr(GlobalMemory, "span_transactions",
                        span_transactions)
    return calls


def test_workload_copies_and_leader_accesses_are_affine(spy):
    filescan = run_sequential_file_read(
        npages=64, warps=4, num_frames=16, readahead=True, seed=3)
    kv = run_kvstore(nwarps=4, records_per_warp=64, ops_per_warp=8,
                     num_frames=6, seed=3)
    walk = run_graphwalk(nwarps=4, steps=2, nnodes=8 * 1024, seed=3)
    # The three above copy under 512 bytes per call; grepscan preads
    # whole pages, eight full warp-copy steps each.
    grep = run_grepscan(nwarps=2, pages_per_warp=2, seed=3)
    assert all(r.verified for r in (filescan, kv, walk, grep))
    seen = {name: [] for name in PRODUCERS}
    for producer, addrs, mask, _ in spy:
        if producer in seen:
            seen[producer].append((addrs, mask))
    # Every producer ran, and each of its steps was one affine span.
    # Whole pages leave no partial staging step to mask.
    for producer, steps in seen.items():
        assert steps, producer
        for addrs, mask in steps:
            assert type(addrs) is AffineLanes and mask is None, producer
            assert addrs.lanes == (1 if "scalar" in producer else 32)


def _vector_copy(ctx, src, dst, nbytes):
    """The staging copy with per-lane address vectors on every step."""
    width = 8
    step = width * ctx.warp_size
    for off in range(0, nbytes, step):
        lane_off = off + ctx.lane * width
        mask = None if off + step <= nbytes \
            else lane_off + width <= nbytes
        ctx.charge(4)
        vals = yield from ctx.load(src + lane_off, "u8", mask=mask)
        yield from ctx.store(dst + lane_off, vals, "u8", mask=mask)


def _recorded(gen, seen):
    """Drive ``gen`` as its warp, appending a copy of every request it
    yields (a run's one by one) as the request stood when yielded: the
    engine slices a request in place."""
    try:
        req = next(gen)
        while True:
            seen.extend(copy.deepcopy(r)
                        for r in (req if type(req) is tuple else (req,)))
            req = gen.send((yield req))
    except StopIteration as stop:
        return stop.value


def test_partial_staging_step_keeps_the_masked_vector_form(spy):
    nbytes = 1000               # three full steps and 29 of 32 lanes
    results = []
    for form in ("run", "vector"):
        device = Device(memory_bytes=8 * 1024 * 1024)
        src, dst = device.alloc(PAGE), device.alloc(PAGE)
        data = np.random.RandomState(1).randint(0, 256, PAGE,
                                                dtype=np.uint8)
        device.memory.write(src, data)
        seen = []

        def kern(ctx):
            steps = (ctx.copy(src, dst, nbytes) if form == "run"
                     else _vector_copy(ctx, src, dst, nbytes))
            yield from _recorded(steps, seen)

        del spy[:]
        res = device.launch(kern, grid=1, block_threads=32)
        expect = np.zeros(PAGE, dtype=np.uint8)
        expect[:nbytes] = data[:nbytes]
        assert np.array_equal(device.memory.read(dst, PAGE), expect)
        requests = [(r.transactions, r.is_store, r.count, r.chain)
                    for r in seen]
        results.append((list(spy), requests, res.cycles))
    (run_spy, run, run_cycles), (_, one_by_one, vector_cycles) = results
    # Full steps are priced as one span each, the partial step as
    # masked lane vectors.
    assert [type(a) is AffineLanes for _, a, _, _ in run_spy] \
        == [True] * 6 + [False] * 2
    for _, addrs, mask, _ in run_spy[6:]:
        assert mask is not None and int(mask.sum()) == 29
    # Step by step, the run's requests are the one-by-one loop's.
    assert len(run) == 8 and run == one_by_one
    assert run_cycles == vector_cycles


@pytest.mark.parametrize("nbytes", [1, 7])
@pytest.mark.parametrize("gap, torn", [(0, 1), (PAGE, 0)])
def test_staging_copy_tail_is_the_warps_store(nbytes, gap, torn):
    # Below 8 bytes no lane of the masked step is active, so the whole
    # copy is the untimed tail.
    device = Device(memory_bytes=8 * 1024 * 1024)
    device.sanitizer = sanitizer = Sanitizer()
    src, dst = device.alloc(PAGE), device.alloc(2 * PAGE)

    def kern(ctx):
        yield from ctx.copy(src, dst + ctx.warp_in_block * gap, nbytes)

    device.launch(kern, grid=1, block_threads=64)
    violations = sanitizer.violations
    assert [v.invariant for v in violations] == ["torn-write"] * torn
    if torn:
        assert (violations[0].details["addr_lo"],
                violations[0].details["addr_hi"]) == (dst, dst + nbytes)


def test_sanitized_two_warp_copy_matches_the_step_loop():
    """Two warps copy 1000 bytes (three full steps and a masked one)
    into one destination: the run records the same per-step stores as
    the one-request-per-step loop, so the sanitizer reports the same
    torn writes and counts the same stores."""
    reports = []
    for copy in ("run", "vector"):
        device = Device(memory_bytes=8 * 1024 * 1024)
        device.sanitizer = sanitizer = Sanitizer()
        src, dst = device.alloc(PAGE), device.alloc(PAGE)

        def kern(ctx):
            if copy == "run":
                yield from ctx.copy(src, dst, 1000)
            else:
                yield from _vector_copy(ctx, src, dst, 1000)

        res = device.launch(kern, grid=1, block_threads=64)
        reports.append((sanitizer.violations,
                        sanitizer.stats.stores_checked, res.cycles))
    (run, run_checked, run_cycles), (vector, vector_checked,
                                     vector_cycles) = reports
    assert run and [v.invariant for v in run] == ["torn-write"] * len(run)
    assert run == vector
    assert run_checked == vector_checked == 2 * 4
    assert run_cycles == vector_cycles


# ----------------------------------------------------------------------
# The closed-form run against the step-by-step builder it replaced
# ----------------------------------------------------------------------
def ref_copy(ctx, src, dst, nbytes):
    """``WarpContext.copy`` as it built its run before: per step, two
    ``AffineLanes`` counted by ``transactions_for`` (or masked lane
    vectors for a partial step), the charge through ``charge`` and
    ``_take_pending``, and a fresh tagged load and store."""
    mem = ctx.memory
    mem.write(dst, mem.read(src, nbytes).copy())
    width = 8
    lanes = ctx.warp_size
    step = width * lanes
    san = ctx.sanitizer
    run = []
    for off in range(0, nbytes, step):
        if off + step <= nbytes:
            src_lanes = AffineLanes(src + off, width, lanes)
            dst_lanes = AffineLanes(dst + off, width, lanes)
            mask = None
        else:
            lane_off = off + ctx.lane * width
            src_lanes, dst_lanes = src + lane_off, dst + lane_off
            mask = lane_off + width <= nbytes
        ctx.charge(4)
        pc, pch, tags = ctx._take_pending()
        run.append(ctx._tagged(MemAccess(
            transactions=mem.transactions_for(src_lanes, width, mask),
            count=pc, chain=pch), tags))
        if san is not None:
            san.note_store(ctx, np.asarray(dst_lanes), width, mask)
        run.append(ctx._tagged(MemAccess(
            transactions=mem.transactions_for(dst_lanes, width, mask),
            is_store=True), None))
    tail = nbytes % width
    if tail and san is not None:
        san.note_store(ctx, np.full(1, dst + nbytes - tail, np.int64),
                       tail, None)
    if run:
        ctx.now = yield tuple(run)


COPY_MEMORY = 1 << 16
#: ``(count, chain)`` charged before the copy: none, small, and above
#: ``Engine.ISSUE_SLICE`` so that the first load is sliced.
CHARGES = [(0.0, None), (3.0, None), (17.0, 5.0),
           (Engine.ISSUE_SLICE + 188.0, None), (1500.0, 40.0)]


@st.composite
def copies(draw):
    return dict(
        # 512 leaves 256-byte steps straddling segments unevenly; 4 is
        # narrower than a lane, which the coalescer counts per lane.
        tb=draw(st.sampled_from([4, 32, 64, 128, 256, 512])),
        # Sampled, not drawn as integers, so that offsets spread over
        # every residue of a segment instead of clustering near 0.
        src_off=draw(st.sampled_from(range(601))),
        dst_off=draw(st.sampled_from(range(601))),
        nbytes=draw(st.one_of(st.integers(0, 2 * PAGE),
                              st.integers(0, 15))),
        # The second warp's destination shift: 0 and 100 overlap the
        # first warp's, for the sanitizer to report.
        gap=draw(st.sampled_from([0, 100, 2 * PAGE + 1024])),
        charge=draw(st.sampled_from(CHARGES)),
        charge_tag=draw(st.sampled_from(["", "tlb_miss", "translation"])),
        activity=draw(st.sampled_from(["", "staging", "translation"])),
        trace=draw(st.booleans()),
        sanitize=draw(st.booleans()),
    )


def launch_copy(form, case):
    """Two warps each charge, then copy with ``form``; returns every
    request as yielded and what an observer sees: cycles, the engine
    stats, memory, trace rows and the sanitizer's records."""
    spec = dataclasses.replace(K80_SPEC, dram_transaction_bytes=case["tb"])
    dev = Device(spec=spec, memory_bytes=COPY_MEMORY)
    dev.memory.data[:] = np.random.RandomState(case["nbytes"]).randint(
        0, 256, COPY_MEMORY, dtype=np.uint8)
    src = dev.alloc(2 * PAGE + 1024) + case["src_off"]
    dst = dev.alloc(5 * PAGE) + case["dst_off"]
    count, chain = case["charge"]
    seen = [[], []]

    def kern(ctx):
        if case["activity"]:
            ctx.push_activity(case["activity"])
        ctx.charge(count, chain, tag=case["charge_tag"])
        w = ctx.warp_in_block
        yield from _recorded(
            form(ctx, src, dst + w * case["gap"], case["nbytes"]), seen[w])
        if case["activity"]:
            ctx.pop_activity()
        yield from ctx.compute(2)

    if case["sanitize"]:
        dev.sanitizer = san = Sanitizer()
    with capture(trace=case["trace"]) as prof:
        res = dev.launch(kern, grid=1, block_threads=64)
    out = {"requests": [[repr((type(r).__name__, vars(r), r.tag,
                                r.translation_charge, r.chain_tag))
                          for r in warp] for warp in seen],
           "cycles": res.cycles, "stats": vars(res.stats),
           "memory": dev.memory.data.tobytes()}
    if case["trace"]:
        out["trace"] = list(prof.traces[0].rows)
    if case["sanitize"]:
        out["sanitizer"] = ([(w.block_id, w.warp_id, w.epoch, w.locks,
                              w.addrs.tolist(), w.width, w.lo, w.hi, w.now)
                             for w in san._writes],
                            san.violations, vars(san.stats))
    return out


class TestCopyRunAgainstSteps:
    @settings(max_examples=budget(200), deadline=None)
    @given(copies())
    # Whole pages, a sub-8-byte tail, and a sliced first load under
    # the tracer and the sanitizer at once.
    @example(dict(tb=128, src_off=0, dst_off=0, nbytes=PAGE, gap=0,
                  charge=(0.0, None), charge_tag="", activity="",
                  trace=False, sanitize=False))
    @example(dict(tb=512, src_off=300, dst_off=8, nbytes=2 * PAGE - 3,
                  gap=100, charge=(1500.0, 40.0), charge_tag="tlb_miss",
                  activity="staging", trace=True, sanitize=True))
    @example(dict(tb=32, src_off=5, dst_off=0, nbytes=7, gap=0,
                  charge=(3.0, None), charge_tag="", activity="staging",
                  trace=True, sanitize=True))
    def test_same_requests_cycles_stats_trace_and_records(self, case):
        got = launch_copy(lambda ctx, *a: ctx.copy(*a), case)
        want = launch_copy(ref_copy, case)
        assert got == want
