"""Golden execution traces: tracer contents pinned across changes.

``golden_traces.json`` (next to this file) records, for a fixed set of
traced runs, one entry per launch: the sha256 of the ordered event list
(``[vars(e) for e in tracer.events]``, ``json.dumps``-ed), the drop
count, and ``tracer.by_kind()``, so a diff names the event kind whose
count or cycles moved.  ``golden_profiles.json`` sees trace contents
only through the spans and attribution components; this fixture pins
every event, including the engine's attribution overlay (stall, issue
and translation intervals) and the time-series counter mirrors.

Cases:

* the four ``OBSERVED`` workloads of ``test_profile_golden.py`` (trace
  + timeseries + attribution capture);
* its two-device cluster (the merged cluster trace);
* the engine handler-coverage kernel of ``tests/gpu/test_engine.py``
  under the same ``OBSERVED`` capture.

Launches the profiler did not trace (past ``max_traces``) record
``None``.  Regenerate from the repository root with
``PYTHONPATH=src:. python tests/telemetry/test_trace_golden.py`` —
only in a change that says why a trace moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.telemetry import capture
from tests.gpu.test_engine import run_coverage
from tests.telemetry.test_profile_golden import (
    OBSERVED,
    _WORKLOADS,
    _sharded,
)

GOLDEN = Path(__file__).with_name("golden_traces.json")


def _trace_record(tracer) -> dict | None:
    if tracer is None:
        return None
    text = json.dumps([vars(e) for e in tracer.events])
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "dropped": tracer.dropped,
        "by_kind": tracer.by_kind(),
    }


def _launch_traces(run, **capture_kwargs):
    def record() -> list:
        with capture(**capture_kwargs) as prof:
            run()
        return [_trace_record(tracer) for tracer in prof.traces]
    return record


#: Record name -> zero-argument capture function.
CASES = {
    **{f"observed/{name}": _launch_traces(run, **OBSERVED)
       for name, run in _WORKLOADS.items()},
    "sharded/jobs1": _launch_traces(
        _sharded, trace=True, timeseries=True, window_cycles=500.0),
    "coverage/observed": _launch_traces(run_coverage, **OBSERVED),
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
    assert any(r is not None for r in records), \
        f"{name} produced no traces"
    assert [r and r["by_kind"] for r in records] \
        == [r and r["by_kind"] for r in golden[name]]
    assert records == golden[name]


if __name__ == "__main__":
    records = {name: capture_case(name) for name in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
