"""Golden cluster fixture: multi-GPU results pinned across changes.

``golden_cluster.json`` (next to this file) records, for a fixed set of
:func:`repro.gpu.multigpu.launch_cluster` runs, the makespan, every
:class:`~repro.gpu.engine.EngineStats` field of the merged result and a
sha256 of every device's memory; DSM cases add the cluster's coherence
counters and a digest of the shared region.  It is the reference the
per-device-engine cluster path is checked against:

* a host-free 3-device writer cluster;
* a host-gated 3-device cluster whose warps make host RPCs;
* the DSM producer/consumer case (one device reads pages the other
  left dirty while both run);
* a reduced DSM Jacobi stencil over two devices (every launch).

Regenerate with ``PYTHONPATH=src python tests/gpu/test_cluster_golden.py``
— only in a change that says why cluster results moved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import APConfig, AVM
from repro.dsm import DSMCluster
from repro.gpu import Device, K80_SPEC
from repro.gpu.multigpu import ClusterLaunch, launch_cluster

GOLDEN = Path(__file__).with_name("golden_cluster.json")

PAGE = 4096

#: Synthetic instruction counts — named so the calibration linter can
#: see they are deliberate test loads, not drifted hardware estimates.
WRITER_BLOCK = 100
WRITER_CHAIN = 10
RPC_PROLOGUE = 200
RPC_EPILOGUE = 50

#: Reduced Jacobi grid: one row per page, split across two devices.
JACOBI_ROWS = 8
JACOBI_ITERS = 2
JACOBI_THREADS = 256


def _sha(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


def _record(result, devices) -> dict:
    return {
        "cycles": result.cycles,
        "stats": dataclasses.asdict(result.stats),
        "memory_sha256": [_sha(d.memory.data) for d in devices],
    }


def _dsm_record(cluster: DSMCluster) -> dict:
    return {
        "dsm_stats": dataclasses.asdict(cluster.stats),
        "region_sha256": _sha(cluster.region_array()),
    }


def _devices(n: int) -> list[Device]:
    return [Device(spec=K80_SPEC, memory_bytes=8 * 1024 * 1024)
            for _ in range(n)]


def _writer_kernel(ctx, base, value):
    yield from ctx.compute(WRITER_BLOCK, chain=WRITER_CHAIN)
    yield from ctx.store(base + ctx.lane * 4,
                         np.full(32, value, np.uint32), "u4")


def _rpc_kernel(ctx, base):
    yield from ctx.compute(RPC_PROLOGUE, chain=WRITER_CHAIN)
    yield from ctx.host_compute(1e-6)
    yield from ctx.compute(RPC_EPILOGUE)
    yield from ctx.host_compute(2e-6)
    yield from ctx.store(base + ctx.lane * 4,
                         np.full(32, ctx.warp_id + 1, np.uint32), "u4")


def _host_free() -> dict:
    devices = _devices(3)
    result = launch_cluster(
        [ClusterLaunch(d, _writer_kernel, 2, 64,
                       args=(d.alloc(4096), i + 1))
         for i, d in enumerate(devices)])
    return _record(result, devices)


def _host_gated() -> dict:
    devices = _devices(3)
    result = launch_cluster(
        [ClusterLaunch(d, _rpc_kernel, 2, 64, args=(d.alloc(4096),))
         for d in devices])
    return _record(result, devices)


def _dsm_cluster(region_pages: int, frames: int) -> DSMCluster:
    return DSMCluster(num_devices=2, region_bytes=region_pages * PAGE,
                      frames_per_device=frames,
                      memory_bytes=16 * 1024 * 1024)


def _dsm_producer_consumer() -> dict:
    """Device 0 leaves pages 0-3 dirty, then writes pages 4-7 while
    device 1 reads pages 0-3 concurrently, forcing mid-run flushes."""
    cluster = _dsm_cluster(8, 16)
    avm0, avm1 = AVM(APConfig()), AVM(APConfig())
    b0, b1 = cluster.backend_for(0), cluster.backend_for(1)

    def writer(ctx):
        ptr = avm0.map_backend(ctx, b0, cluster.region_bytes, write=True)
        for p in range(4):
            yield from ptr.seek(ctx, p * PAGE + ctx.lane * 4)
            yield from ptr.write(ctx, np.full(32, 99, np.uint32), "u4")
        yield from ptr.destroy(ctx)

    cluster.devices[0].launch(writer, grid=1, block_threads=32)

    seen = []

    def reader(ctx):
        ptr = avm1.map_backend(ctx, b1, cluster.region_bytes)
        for p in range(4):
            yield from ptr.seek(ctx, p * PAGE + ctx.lane * 4)
            seen.append((yield from ptr.read(ctx, "u4")).copy())
        yield from ptr.destroy(ctx)

    def busy(ctx):
        ptr = avm0.map_backend(ctx, b0, cluster.region_bytes, write=True)
        for p in range(4, 8):
            yield from ptr.seek(ctx, p * PAGE + ctx.lane * 4)
            yield from ptr.write(ctx, np.full(32, 7, np.uint32), "u4")
        yield from ptr.destroy(ctx)

    result = launch_cluster([
        ClusterLaunch(cluster.devices[0], busy, 1, 32),
        ClusterLaunch(cluster.devices[1], reader, 1, 32),
    ])
    assert all(np.all(vals == 99) for vals in seen)
    return {**_record(result, cluster.devices), **_dsm_record(cluster)}


def _dsm_jacobi() -> dict:
    """``examples/dsm_jacobi.py`` on a smaller grid: each device sweeps
    half the rows, reading its neighbour's halo row through DSM."""
    rows, half = JACOBI_ROWS, JACOBI_ROWS // 2
    row_floats = PAGE // 4
    cluster = _dsm_cluster(2 * rows, 2 * rows)
    initial = np.random.RandomState(9).uniform(
        -1, 1, (rows, row_floats)).astype(np.float32)
    cluster.ramfs.open("dsm").pwrite(0, initial)
    avms = [AVM(APConfig()), AVM(APConfig())]

    def make_kernel(dev, src, dst):
        backend = cluster.backend_for(dev)
        my_rows = range(dev * half, (dev + 1) * half)

        def kernel(ctx):
            ptr = avms[dev].map_backend(ctx, backend,
                                        cluster.region_bytes, write=True)
            col = ctx.warp_in_block * 128 + ctx.lane * 4
            for row in my_rows:
                if row in (0, rows - 1):
                    # Boundary rows copy over unchanged.
                    yield from ptr.seek(ctx, (src + row) * PAGE + col)
                    vals = yield from ptr.read(ctx, "f4")
                    yield from ptr.seek(ctx, (dst + row) * PAGE + col)
                    yield from ptr.write(ctx, vals, "f4")
                    continue
                acc = np.zeros(ctx.warp_size, dtype=np.float64)
                for dr, w in ((-1, 1.0), (0, 2.0), (1, 1.0)):
                    yield from ptr.seek(ctx,
                                        (src + row + dr) * PAGE + col)
                    vals = yield from ptr.read(ctx, "f4")
                    ctx.charge(2, chain=2)
                    acc += w * vals.astype(np.float64)
                yield from ptr.seek(ctx, (dst + row) * PAGE + col)
                yield from ptr.write(ctx, (acc / 4.0).astype(np.float32),
                                     "f4")
            yield from ptr.destroy(ctx)
            yield from cluster.gpufs[dev].flush(ctx)

        return kernel

    launches = []
    src, dst = 0, rows
    for _ in range(JACOBI_ITERS):
        result = launch_cluster([
            ClusterLaunch(cluster.devices[dev],
                          make_kernel(dev, src, dst), 1, JACOBI_THREADS)
            for dev in range(2)])
        launches.append(_record(result, cluster.devices))
        src, dst = dst, src
    # Each thread owns one column; the stencil is vertical, so the
    # covered columns must match a numpy sweep exactly.
    expect = initial[:, :JACOBI_THREADS].astype(np.float64)
    for _ in range(JACOBI_ITERS):
        expect[1:-1] = (expect[:-2] + 2 * expect[1:-1] + expect[2:]) / 4
    got = cluster.region_array()[src * PAGE:(src + rows) * PAGE].view(
        np.float32).reshape(rows, row_floats)[:, :JACOBI_THREADS]
    assert np.abs(got - expect).max() < 1e-5
    return {"launches": launches, **_dsm_record(cluster)}


#: Record name -> zero-argument capture function.
CASES = {
    "host_free/writer3": _host_free,
    "host_gated/rpc3": _host_gated,
    "dsm/producer_consumer": _dsm_producer_consumer,
    "dsm/jacobi": _dsm_jacobi,
}


def capture(name: str):
    """Run one case; the JSON round trip normalises tuples to lists."""
    return json.loads(json.dumps(CASES[name]()))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_case_matches_golden(golden, name):
    assert name in golden, (
        f"no golden record for {name!r}; regenerate {GOLDEN.name}")
    assert capture(name) == golden[name]


if __name__ == "__main__":
    records = {name: capture(name) for name in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
