"""Golden launch profiles: telemetry documents pinned across changes.

``golden_profiles.json`` (next to this file) records, for a fixed set of
profiled runs, one entry per launch: the sha256 of its
``LaunchProfile.to_dict()`` document (``json.dumps(doc,
sort_keys=True)``) and its plain ``stalls`` dict, so a diff names the
stall bucket that moved.  The hash covers everything else — per-SM
busy cycles, DRAM queueing, component counters, the time series,
spans and attribution.

The cases are four workloads at small sizes (memcpy, graphwalk,
filescan, kvstore), each under a plain ``capture()`` and under
``capture(trace=True, timeseries=True, attribution=True,
window_cycles=2000)``.  The kvstore and filescan cases reach
``HostCompute`` through staging and syscalls.

Regenerate with ``PYTHONPATH=src python
tests/telemetry/test_profile_golden.py`` — only in a change that says
why a profile moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.gpu import Device
from repro.telemetry import capture
from repro.workloads import run_graphwalk, run_kvstore, run_memcpy
from repro.workloads.filebench import run_sequential_file_read

GOLDEN = Path(__file__).with_name("golden_profiles.json")

OBSERVED = dict(trace=True, timeseries=True, attribution=True,
                window_cycles=2000.0)


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
