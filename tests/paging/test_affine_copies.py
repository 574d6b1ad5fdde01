"""The paging copies and leader accesses reach memory as affine lanes.

The GPUfs staging copy, the syscall layer's warp copy and the warp
leader's scalar loads and stores address one contiguous span per step
by construction, so they hand :class:`~repro.gpu.memory.AffineLanes`
to global memory and take its closed form.  These tests spy on
``GlobalMemory.transactions_for`` to see which form each step arrives
in, and hold the one masked step left (a partial last staging step) to
the vector form it always had.
"""

import sys

import numpy as np
import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.gpu import Device
from repro.gpu.memory import AffineLanes, GlobalMemory
from repro.workloads import run_graphwalk, run_grepscan, run_kvstore
from repro.workloads.filebench import run_sequential_file_read

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
    one of ``DIRECT``, which count their own steps."""
    calls = []
    count = GlobalMemory.transactions_for

    def transactions_for(self, addrs, width, mask=None):
        tx = count(self, addrs, width, mask)
        caller = sys._getframe(1)
        name = caller.f_code.co_name
        if name not in DIRECT:
            assert name in ACCESSORS
            name = caller.f_back.f_code.co_name
        calls.append((name, addrs, mask, tx))
        return tx

    monkeypatch.setattr(GlobalMemory, "transactions_for", transactions_for)
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


def test_partial_staging_step_keeps_the_masked_vector_form(spy):
    nbytes = 1000               # three full steps and 29 of 32 lanes
    results = []
    for copy in ("affine", "vector"):
        device = Device(memory_bytes=8 * 1024 * 1024)
        src, dst = device.alloc(PAGE), device.alloc(PAGE)
        data = np.random.RandomState(1).randint(0, 256, PAGE,
                                                dtype=np.uint8)
        device.memory.write(src, data)

        def kern(ctx):
            if copy == "affine":
                yield from ctx.copy(src, dst, nbytes)
            else:
                yield from _vector_copy(ctx, src, dst, nbytes)

        del spy[:]
        res = device.launch(kern, grid=1, block_threads=32)
        expect = np.zeros(PAGE, dtype=np.uint8)
        expect[:nbytes] = data[:nbytes]
        assert np.array_equal(device.memory.read(dst, PAGE), expect)
        results.append((list(spy), res.cycles))
    (affine, affine_cycles), (vector, vector_cycles) = results
    assert [type(a) is AffineLanes for _, a, _, _ in affine] \
        == [True] * 6 + [False] * 2
    for _, addrs, mask, _ in affine[6:]:
        assert mask is not None and int(mask.sum()) == 29
    assert sum(tx for *_, tx in affine) == sum(tx for *_, tx in vector)
    assert affine_cycles == vector_cycles


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
