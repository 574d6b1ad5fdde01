"""Golden engine fixture: simulated results pinned across engine changes.

Simulated cycles are *results*.  ``golden_engine.json`` (next to this
file) records, for a fixed set of launches, the cycle count, every
:class:`~repro.gpu.engine.EngineStats` field and a sha256 of device
memory — enough that any change to event ordering, request pricing or
memory effects shows up as a diff:

* every registry workload (:data:`repro.workloads.WORKLOADS`) with
  apointers, plus the first two with raw pointers;
* the three write-capable syscall workloads under the runtime sanitizer
  (every result field);
* a contended kernel mixing compute chains, loads, an atomic and a
  barrier;
* the quick-scale ``table2`` experiment rows.

Regenerate with ``PYTHONPATH=src python tests/gpu/test_engine_golden.py``
— only in a change that says why cycles moved (see ``docs/engine.md``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.gpu import Device, K80_SPEC
from repro.workloads import (
    WORKLOADS,
    run_graphwalk,
    run_grepscan,
    run_kvstore,
)
from repro.workloads.base import run_workload

GOLDEN = Path(__file__).with_name("golden_engine.json")


class _RecordingDevice(Device):
    """A :class:`Device` that keeps the result of every launch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.results = []

    def launch_cfg(self, cfg, **kwargs):
        result = super().launch_cfg(cfg, **kwargs)
        self.results.append(result)
        return result


def _launch_record(device: _RecordingDevice) -> dict:
    (result,) = device.results
    memory = device.memory.data.tobytes()
    return {
        "cycles": result.cycles,
        "stats": dataclasses.asdict(result.stats),
        "memory_sha256": hashlib.sha256(memory).hexdigest(),
    }


def _registry_case(workload, use_apointers: bool):
    def capture() -> dict:
        device = _RecordingDevice(spec=K80_SPEC,
                                  memory_bytes=16 * 1024 * 1024)
        run = run_workload(workload, device, use_apointers=use_apointers,
                           nblocks=2, warps_per_block=2,
                           iters_per_thread=2)
        return {"verified": run.verified, **_launch_record(device)}
    return capture


def _syscall_case(runner, **kwargs):
    def capture() -> dict:
        return dataclasses.asdict(runner(**kwargs))
    return capture


def contended_kernel_device():
    """A kernel mixing the stall classes the engine prices: compute
    chains, loads, atomics, and barriers."""
    device = _RecordingDevice(memory_bytes=8 * 1024 * 1024)
    src = device.alloc(256 * 1024)
    counter = device.alloc(64)

    # Named so the calibration linter can see these are deliberate
    # synthetic loads, not drifted hardware estimates.
    charge_block = 10
    tail_block = 30

    def kern(ctx):
        for i in range(3):
            ctx.charge(charge_block, chain=charge_block)
            _ = yield from ctx.load(src + ctx.global_tid * 4, "f4")
        yield from ctx.atomic_add(counter, 1)
        yield from ctx.syncthreads()
        yield from ctx.compute(tail_block)

    return device, kern


def _contended_case() -> dict:
    device, kern = contended_kernel_device()
    device.launch(kern, grid=4, block_threads=128)
    return _launch_record(device)


def _table2_case() -> list:
    import repro.harness.experiments  # noqa: F401  (populates REGISTRY)
    from repro.harness.registry import REGISTRY
    from repro.harness.runner import run_experiment
    report = run_experiment(REGISTRY["table2"], progress=False)
    assert report.ok, report.result.errors
    return report.result.rows


#: Record name -> zero-argument capture function.
CASES = {
    **{f"apointer/{w.name}": _registry_case(w, True) for w in WORKLOADS},
    **{f"raw/{w.name}": _registry_case(w, False) for w in WORKLOADS[:2]},
    "syscall/kvstore": _syscall_case(
        run_kvstore, nwarps=2, records_per_warp=32, ops_per_warp=4,
        sanitize=True),
    "syscall/grepscan": _syscall_case(
        run_grepscan, nwarps=2, pages_per_warp=2, sanitize=True),
    "syscall/graphwalk": _syscall_case(
        run_graphwalk, nwarps=2, steps=4, nnodes=8 * 1024,
        sanitize=True),
    "contended": _contended_case,
    "table2/quick": _table2_case,
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


def test_every_registry_workload_has_a_golden_record(golden):
    missing = [w.name for w in WORKLOADS
               if f"apointer/{w.name}" not in golden]
    assert not missing, (
        f"workloads without a golden record: {missing}; regenerate "
        f"{GOLDEN.name} in a change that says why")


if __name__ == "__main__":
    records = {name: capture(name) for name in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
