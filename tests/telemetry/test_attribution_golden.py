"""Golden attribution reports: analyzer output pinned across changes.

``golden_attribution.json`` (next to this file) records, for a fixed set
of traced runs, one entry per launch: the sha256 of its full
:class:`~repro.telemetry.attribution.AttributionReport` document
(``json.dumps(report.to_dict(), sort_keys=True)``) plus its readable
span, critical-path length and hidden fraction, so a diff names the
view that moved.  ``golden_profiles.json`` sees attribution only
through the flat ``components.attribution`` summary; this fixture pins
every per-warp row, critical-path bucket and translation split.

Cases (all under ``capture(trace=True, attribution=True)``, no time
series):

* streaming memcpy at 20 warps per SM (13 blocks of 20 warps, as in
  ``benchmarks/bench_attribution.py``) at ``compute_per_iter`` 0 and
  256 — many warps per SM, so exclusion coverage does real work;
* the graphwalk inputs of ``test_profile_golden.py``;
* the compute-0 memcpy trace exported with ``to_chrome_trace`` (in
  microseconds, JSON round-tripped) and read back through
  ``attribute_chrome_trace``, as ``repro-obs attr`` reads it.

Regenerate from the repository root with ``PYTHONPATH=src:. python
tests/telemetry/test_attribution_golden.py`` — only in a change that
says why an attribution report moved.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.gpu import Device
from repro.telemetry import capture
from repro.telemetry.attribution import (
    attribute_chrome_trace,
    attribute_tracer,
)
from repro.workloads import run_memcpy
from tests.telemetry.test_profile_golden import _WORKLOADS

GOLDEN = Path(__file__).with_name("golden_attribution.json")

#: ``bench_attribution.py``'s geometry (20 warps on each of the 13 K80
#: SMs) with fewer iterations per thread.
NBLOCKS = 13
WARPS = 20
ITERS = 8


def _memcpy(compute_per_iter: int):
    def run():
        run_memcpy(Device(memory_bytes=64 * 1024 * 1024),
                   use_apointers=True, width=4, nblocks=NBLOCKS,
                   warps_per_block=WARPS, iters_per_thread=ITERS,
                   compute_per_iter=compute_per_iter)
    return run


_RUNS = {
    "memcpy-13x20/compute0": _memcpy(0),
    "memcpy-13x20/compute256": _memcpy(256),
    "observed-inputs/graphwalk": _WORKLOADS["graphwalk"],
}


@lru_cache(maxsize=None)
def _traced(run_name: str) -> tuple:
    """``(profiles, tracers)`` of one traced run, shared by cases."""
    with capture(trace=True, attribution=True) as prof:
        _RUNS[run_name]()
    assert all(t is not None and not t.dropped for t in prof.traces)
    return tuple(prof.profiles), tuple(prof.traces)


def _record(report) -> dict:
    doc = report.to_dict()
    text = json.dumps(doc, sort_keys=True)
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "launch_cycles": doc["launch_cycles"],
        "critical_path_cycles": doc["critical_path_cycles"],
        "hidden_fraction": doc["translation"]["hidden_fraction"],
    }


def _live(run_name: str):
    def record() -> list:
        profiles, tracers = _traced(run_name)
        return [_record(attribute_tracer(t, launch_cycles=p.cycles))
                for p, t in zip(profiles, tracers)]
    return record


def _via_chrome(run_name: str):
    def record() -> list:
        profiles, tracers = _traced(run_name)
        out = []
        for p, t in zip(profiles, tracers):
            clock = SimpleNamespace(clock_hz=p.spec["clock_hz"])
            trace = json.loads(json.dumps(t.to_chrome_trace(clock)))
            out.append(_record(attribute_chrome_trace(trace)))
        return out
    return record


#: Record name -> zero-argument capture function.
CASES = {
    **{name: _live(name) for name in _RUNS},
    "chrome/memcpy-13x20/compute0": _via_chrome("memcpy-13x20/compute0"),
}


def capture_case(name: str) -> list:
    """Run one case; the JSON round trip normalises the records."""
    return json.loads(json.dumps(CASES[name]()))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_case_matches_golden(golden, name):
    assert name in golden, (
        f"no golden record for {name!r}; regenerate {GOLDEN.name}")
    records = capture_case(name)
    assert records, f"{name} produced no attributed launches"
    assert records == golden[name]


if __name__ == "__main__":
    records = {name: capture_case(name) for name in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
