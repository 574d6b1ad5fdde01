"""Multi-GPU co-simulation: run kernels on several devices at once.

Each device owns its SMs, DRAM bandwidth, and PCIe link; the host CPU
(RPC service) and simulated time are shared.  This is the substrate the
DSM layer (:mod:`repro.dsm`) uses for genuinely concurrent cluster
execution, and it models the multi-GPU node the paper's introduction
envisions.

Usage::

    results = launch_cluster([
        ClusterLaunch(device0, kernel_a, grid=4, block_threads=256),
        ClusterLaunch(device1, kernel_b, grid=4, block_threads=256),
    ])

Every cluster runs one engine per device under a deterministic epoch
barrier (see :mod:`repro.gpu.sharded`): ``jobs=1`` (the default) runs
the shards in-process, ``jobs>1`` spreads them over a spawn-safe
process pool, and both produce identical merged results.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass

from repro.gpu.device import Device, LaunchResult
from repro.gpu.engine import EngineStats
from repro.gpu.kernel import KernelFn
from repro.gpu.occupancy import OccupancyLimits, occupancy_limits
from repro.gpu.sharded import (
    _merge_spills,
    _run_inprocess,
    _run_workers,
    _ShardInstrument,
    default_epoch_cycles,
)
from repro.gpu.specs import GPUSpec
from repro.gpu.trace import Tracer
from repro.telemetry import hooks as telemetry_hooks


@dataclass
class ClusterLaunch:
    """One device's kernel in a concurrent multi-GPU launch."""

    device: Device
    kernel: KernelFn
    grid: int
    block_threads: int
    args: tuple = ()
    regs_per_thread: int = 64
    scratchpad_bytes: int = 0

    def __post_init__(self):
        if self.grid <= 0 or self.block_threads <= 0:
            raise ValueError("grid and block must be positive")


def _plan_cluster(launches: list[ClusterLaunch]
                  ) -> tuple[GPUSpec, list[OccupancyLimits]]:
    """Validate a homogeneous cluster (one launch per device, one
    shared :class:`GPUSpec`) and occupancy-check every launch."""
    if not launches:
        raise ValueError("no launches")
    spec = launches[0].device.spec
    seen = set()
    for launch in launches:
        if launch.device.spec is not spec:
            raise ValueError("all devices must share one GPUSpec")
        if id(launch.device) in seen:
            raise ValueError("one launch per device")
        seen.add(id(launch.device))
    occupancies = []
    for launch in launches:
        occ = occupancy_limits(spec, launch.block_threads,
                               launch.regs_per_thread,
                               launch.scratchpad_bytes)
        if not occ.is_schedulable:
            raise ValueError(
                f"unschedulable kernel: {occ.limiting_factor}")
        occupancies.append(occ)
    return spec, occupancies


def launch_cluster(launches: list[ClusterLaunch], jobs: int = 1,
                   epoch_cycles: float | None = None,
                   profile: bool = False,
                   trace: bool = False,
                   tracer=None,
                   timeseries: bool = False,
                   window_cycles: float | None = None,
                   spill_dir: str | None = None) -> LaunchResult:
    """Run all launches concurrently, one engine per device; returns
    the combined timing.

    The returned result's ``cycles`` is the makespan across devices;
    ``stats`` aggregates all of them.  ``jobs=1`` drives every shard in
    this process; any larger value spawns one worker per device (the
    protocol needs every shard live to close its barrier, so the pool
    is sized by the cluster, not by ``jobs``).  Results are
    bit-identical across job counts.  ``epoch_cycles`` bounds how far
    a shard runs ahead between barriers (defaults to the minimum
    cross-device interaction latency, the PCIe round-trip).

    ``trace=True`` (or a supplied ``tracer``) merges per-shard traces
    into ``result.tracer``; ``timeseries=True`` merges per-shard
    cycle-window series into ``result.series`` (the
    ``components.timeseries`` shape).  ``spill_dir`` keeps the
    per-shard JSONL spill files for inspection; by default they live
    in a temporary directory removed after the merge.  Under an
    ambient profiler (:func:`repro.telemetry.capture`) tracing,
    sampling, and profiling follow the profiler's configuration and
    the merged launch lands in ``profiler.profiles``.
    """
    from repro.telemetry.timeseries import DEFAULT_WINDOW_CYCLES

    spec, occupancies = _plan_cluster(launches)
    blocks_per_sm = min(o.blocks_per_sm for o in occupancies)
    epoch = (default_epoch_cycles(spec) if epoch_cycles is None
             else float(epoch_cycles))
    if epoch <= 0:
        raise ValueError("epoch_cycles must be positive")

    max_trace_events = 200_000
    profiler = telemetry_hooks.current()
    if profiler is not None:
        profile = True
        if tracer is None and profiler.trace \
                and len(profiler.traces) < profiler.max_traces:
            trace = True
            max_trace_events = profiler.max_trace_events
        if profiler.timeseries:
            timeseries = True
            if window_cycles is None:
                window_cycles = profiler.window_cycles
    if tracer is not None:
        trace = True
        max_trace_events = tracer.max_events

    tmp_dir = None
    if (trace or timeseries) and spill_dir is None:
        tmp_dir = tempfile.mkdtemp(prefix="repro-shards-")
        spill_dir = tmp_dir
    elif spill_dir is not None:
        os.makedirs(spill_dir, exist_ok=True)
    inst = _ShardInstrument(
        profile=profile,
        trace=trace,
        max_trace_events=max_trace_events,
        timeseries=timeseries,
        window_cycles=(float(window_cycles) if window_cycles
                       else DEFAULT_WINDOW_CYCLES),
        epoch_cycles=epoch,
        spill_dir=spill_dir or "")

    try:
        if jobs <= 1 or len(launches) == 1:
            cycles, stats, profiles, memories = _run_inprocess(
                launches, blocks_per_sm, epoch, inst)
        else:
            cycles, stats, profiles, memories = _run_workers(
                launches, blocks_per_sm, epoch, inst)

        merged_tracer = None
        series = None
        if inst.spills:
            if trace:
                merged_tracer = tracer if tracer is not None else \
                    Tracer(max_events=max_trace_events * len(launches))
            series = _merge_spills(inst, len(launches), spec.num_sms,
                                   merged_tracer)
    finally:
        if tmp_dir is not None:
            shutil.rmtree(tmp_dir, ignore_errors=True)

    if memories is not None:
        # Worker shards mutated their own copy of device memory; fold
        # the bytes back into the parent's devices.
        import numpy as np
        for launch, memory in zip(launches, memories):
            data = launch.device.memory.data
            data[:] = np.frombuffer(memory, dtype=np.uint8)

    makespan = max(cycles)
    for launch in launches:
        launch.device.total_cycles += makespan
        launch.device.launches += 1
    result = LaunchResult(
        cycles=makespan,
        seconds=spec.cycles_to_seconds(makespan),
        stats=EngineStats.merged(stats),
        occupancy=occupancies[0],
        tracer=merged_tracer,
        series=series,
    )
    if profile:
        result.profile = telemetry_hooks.EngineProfile.merged(profiles)
    if profiler is not None:
        profiler.record_cluster(
            spec=spec, launches=launches, occ=occupancies[0],
            cycles=makespan, stats=result.stats,
            engine_profile=result.profile, tracer=merged_tracer,
            series=series)
    return result
