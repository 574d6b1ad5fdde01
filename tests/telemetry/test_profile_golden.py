"""Golden launch profiles: telemetry documents pinned across changes.

``golden_profiles.json`` (next to this file) records, for a fixed set of
profiled runs, one entry per launch: the sha256 of its
``LaunchProfile.to_dict()`` document (``json.dumps(doc,
sort_keys=True)``) and its plain ``stalls`` dict, so a diff names the
stall bucket that moved.  The hash covers everything else — per-SM
busy cycles, DRAM queueing, component counters, the time series,
spans and attribution.

Cases:

* four workloads at small sizes (memcpy, graphwalk, filescan, kvstore),
  each under a plain ``capture()`` and under ``capture(trace=True,
  timeseries=True, attribution=True, window_cycles=2000)``;
* a two-device sharded ``jobs=1`` cluster with host work, under a
  tracing, sampling profiler (the merged cluster profile).

Regenerate with ``PYTHONPATH=src python
tests/telemetry/test_profile_golden.py`` — only in a change that says
why a profile moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.gpu import Device, K80_SPEC
from repro.telemetry import capture
from repro.workloads import run_graphwalk, run_kvstore, run_memcpy
from repro.workloads.filebench import run_sequential_file_read

GOLDEN = Path(__file__).with_name("golden_profiles.json")

OBSERVED = dict(trace=True, timeseries=True, attribution=True,
                window_cycles=2000.0)

#: Synthetic instruction counts of the sharded case's kernel — named
#: so the calibration linter can see they are deliberate test loads.
RPC_PROLOGUE = 200
RPC_CHAIN = 10
RPC_EPILOGUE = 50


def _memcpy():
    run_memcpy(Device(), use_apointers=True, width=4, nblocks=2,
               warps_per_block=4, iters_per_thread=4)


def _graphwalk():
    run_graphwalk(nwarps=4, steps=2, nnodes=8 * 1024, use_tlb=True)


def _filescan():
    run_sequential_file_read(npages=64, warps=4, num_frames=16,
                             copy_pages=False, readahead=True)


def _kvstore():
    run_kvstore(nwarps=4, records_per_warp=64, ops_per_warp=8,
                num_frames=6)


def _rpc_kernel(ctx, base):
    yield from ctx.compute(RPC_PROLOGUE, chain=RPC_CHAIN)
    yield from ctx.host_compute(1e-6)
    yield from ctx.compute(RPC_EPILOGUE)
    yield from ctx.store(base + ctx.lane * 4,
                         np.full(32, ctx.warp_id + 1, np.uint32), "u4")


def _sharded():
    from repro.gpu.multigpu import ClusterLaunch, launch_cluster

    devices = [Device(spec=K80_SPEC, memory_bytes=8 * 1024 * 1024)
               for _ in range(2)]
    launches = [ClusterLaunch(d, _rpc_kernel, 2, 64,
                              args=(d.alloc(4096),)) for d in devices]
    launch_cluster(launches, jobs=1, profile=True, trace=True,
                   timeseries=True, window_cycles=500.0)


def _launch_records(run, **capture_kwargs):
    def record() -> list:
        with capture(**capture_kwargs) as prof:
            run()
        out = []
        for profile in prof.profiles:
            doc = profile.to_dict()
            text = json.dumps(doc, sort_keys=True)
            out.append({
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "stalls": doc["stalls"],
            })
        return out
    return record


_WORKLOADS = {"memcpy": _memcpy, "graphwalk": _graphwalk,
              "filescan": _filescan, "kvstore": _kvstore}

#: Record name -> zero-argument capture function.
CASES = {
    **{f"plain/{name}": _launch_records(run)
       for name, run in _WORKLOADS.items()},
    **{f"observed/{name}": _launch_records(run, **OBSERVED)
       for name, run in _WORKLOADS.items()},
    "sharded/jobs1": _launch_records(
        _sharded, trace=True, timeseries=True, window_cycles=500.0),
}


def capture_case(name: str) -> list:
    """Run one case; the JSON round trip normalises the stall dicts."""
    return json.loads(json.dumps(CASES[name]()))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_case_matches_golden(golden, name):
    assert name in golden, (
        f"no golden record for {name!r}; regenerate {GOLDEN.name}")
    records = capture_case(name)
    assert records, f"{name} produced no launch profiles"
    assert [r["stalls"] for r in records] \
        == [r["stalls"] for r in golden[name]]
    assert records == golden[name]


if __name__ == "__main__":
    records = {name: capture_case(name) for name in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
