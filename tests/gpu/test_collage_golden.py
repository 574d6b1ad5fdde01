"""Golden collage and page-fault fixture: GPUfs spin paths pinned.

``golden_collage.json`` (next to this file) records, for a reduced
Figure 9 collage problem and reduced Table III page-fault points, the
simulated outcome, every :class:`~repro.gpu.engine.EngineStats` field of
each launch and every :class:`~repro.paging.gpufs.PagingStats` field:

* ``run_gpufs`` and ``run_gpufs_apointers`` on one reduced collage
  problem.  Their warps fault the same record pages concurrently, so
  the losers spin on not-ready pages (``busy_waits``) — the fixture
  gates the page-ready spin path, and the test asserts it ran;
* ``run_pagefault_bench`` (Table III) for the gmmap baseline and each
  apointer flavour, cold and warm runs.

Regenerate with ``PYTHONPATH=src python tests/gpu/test_collage_golden.py``
— only in a change that says why these results moved.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from unittest import mock

import pytest

from repro.collage import (
    CollageDataset,
    DatasetParams,
    make_problem,
    reference_solution,
    run_gpufs,
    run_gpufs_apointers,
)
from repro.core import APConfig, PtrFormat
from repro.gpu import Device
from repro.paging import GPUfs
from repro.workloads.filebench import run_pagefault_bench

GOLDEN = Path(__file__).with_name("golden_collage.json")

#: The Table III flavours, as ``table3_point`` builds them.
TABLE3_CONFIGS = {
    "baseline": None,
    "short": APConfig(fmt=PtrFormat.SHORT, use_tlb=True),
    "long": APConfig(fmt=PtrFormat.LONG, use_tlb=True),
    "no_tlb": APConfig(fmt=PtrFormat.LONG, use_tlb=False),
}


def _recorded(run) -> dict:
    """Run ``run()`` and return its value with the stats of every launch
    and every GPUfs instance it created."""
    launches, mounts = [], []
    launch_cfg, gpufs_init = Device.launch_cfg, GPUfs.__init__

    def recording_launch(self, cfg, **kwargs):
        result = launch_cfg(self, cfg, **kwargs)
        launches.append({"cycles": result.cycles,
                         "stats": dataclasses.asdict(result.stats)})
        return result

    def recording_init(self, *args, **kwargs):
        gpufs_init(self, *args, **kwargs)
        mounts.append(self)

    with mock.patch.object(Device, "launch_cfg", recording_launch), \
            mock.patch.object(GPUfs, "__init__", recording_init):
        value = run()
    return {"value": value, "launches": launches,
            "paging": [dataclasses.asdict(m.stats) for m in mounts]}


_PROBLEM = None


def _problem():
    global _PROBLEM
    if _PROBLEM is None:
        dataset = CollageDataset(DatasetParams(num_images=512,
                                               num_clusters=16))
        _PROBLEM = make_problem(dataset, blocks_x=4, blocks_y=4,
                                cluster_spread=8)
    return _PROBLEM


def _collage_case(runner):
    def capture() -> dict:
        problem = _problem()
        rec = _recorded(lambda: runner(problem))
        out = rec.pop("value")
        assert out.matches(reference_solution(problem))
        return {"seconds": out.seconds, "paging_outcome": out.paging,
                **rec}
    return capture


def _table3_case(config):
    def capture() -> dict:
        rec = _recorded(lambda: run_pagefault_bench(
            use_apointers=config is not None, nblocks=2,
            warps_per_block=4, pages_per_warp=4, config=config))
        r = rec.pop("value")
        return {"cold_cycles": r.cold_cycles, "warm_cycles": r.warm_cycles,
                "major_faults": r.major_faults,
                "minor_faults": r.minor_faults, **rec}
    return capture


#: Record name -> zero-argument capture function.
CASES = {
    "collage/gpufs": _collage_case(run_gpufs),
    "collage/gpufs_apointers": _collage_case(run_gpufs_apointers),
    **{f"table3/{name}": _table3_case(cfg)
       for name, cfg in TABLE3_CONFIGS.items()},
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


@pytest.mark.parametrize("name", ["collage/gpufs",
                                  "collage/gpufs_apointers"])
def test_collage_cases_gate_the_spin_path(golden, name):
    (paging,) = golden[name]["paging"]
    assert paging["busy_waits"] > 0


if __name__ == "__main__":
    records = {name: capture(name) for name in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
