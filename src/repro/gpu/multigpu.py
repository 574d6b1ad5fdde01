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
the shards in-process, ``jobs>1`` runs one spawn process per device,
and both produce identical merged results.  Each device builds its
grid with :meth:`Device.block_factories`, the device launch's own
code, and the cluster is observed the way a device launch is: through
the ambient profiler (:func:`repro.telemetry.capture`).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass

from repro.gpu.device import Device, KernelLaunch, LaunchResult
from repro.gpu.engine import EngineStats
from repro.gpu.kernel import KernelFn
from repro.gpu.occupancy import OccupancyLimits
from repro.gpu.sharded import (
    _merge_spills,
    _run_inprocess,
    _run_workers,
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

    @property
    def cfg(self) -> KernelLaunch:
        """This device's share as the launch :class:`Device` runs."""
        return KernelLaunch(self.kernel, self.grid, self.block_threads,
                            self.args, self.regs_per_thread,
                            self.scratchpad_bytes)


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
    return spec, [launch.cfg.occupancy(spec) for launch in launches]


def launch_cluster(launches: list[ClusterLaunch], jobs: int = 1,
                   epoch_cycles: float | None = None,
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
    cross-device interaction latency, the PCIe round-trip).  A device
    with a sanitizer needs ``jobs=1``: a worker would sanitize a copy.

    A cluster is observed like any launch, through the ambient
    profiler (:func:`repro.telemetry.capture`): its settings pick each
    shard's observer, and the merged launch lands in
    ``profiler.profiles`` (also ``result.profile``) with its merged
    trace in ``profiler.traces`` and its merged series in
    ``components.timeseries``.  ``spill_dir`` keeps the per-shard
    JSONL spill files for inspection; by default they live in a
    temporary directory removed after the merge.
    """
    spec, occupancies = _plan_cluster(launches)
    blocks_per_sm = min(o.blocks_per_sm for o in occupancies)
    epoch = (default_epoch_cycles(spec) if epoch_cycles is None
             else float(epoch_cycles))
    if epoch <= 0:
        raise ValueError("epoch_cycles must be positive")
    inprocess = jobs <= 1 or len(launches) == 1
    for index, launch in enumerate(launches):
        if launch.device.sanitizer is not None and not inprocess:
            raise ValueError(
                f"device {index} of the cluster has a sanitizer; a "
                "spawn worker would sanitize a copy and drop its "
                "findings, so run sanitized clusters with jobs=1")

    profiler = telemetry_hooks.current()
    plan = (telemetry_hooks.ObserverPlan.of(profiler)
            if profiler is not None else None)
    spills = plan is not None and (plan.trace_events > 0
                                   or plan.timeseries)
    tmp_dir = None
    if spills and spill_dir is None:
        spill_dir = tmp_dir = tempfile.mkdtemp(prefix="repro-shards-")
    elif spill_dir is not None:
        os.makedirs(spill_dir, exist_ok=True)
    try:
        run = _run_inprocess if inprocess else _run_workers
        shards = run(launches, blocks_per_sm, epoch, plan, spill_dir)
        tracer = series = None
        if spills:
            if plan.trace_events:
                tracer = Tracer(
                    max_events=plan.trace_events * len(launches))
            series = _merge_spills(spill_dir, len(launches),
                                   spec.num_sms, tracer, plan.timeseries)
    finally:
        if tmp_dir is not None:
            shutil.rmtree(tmp_dir, ignore_errors=True)

    cycles, stats, totals = zip(*shards)
    makespan = max(cycles)
    for launch in launches:
        launch.device.total_cycles += makespan
        launch.device.launches += 1
    result = LaunchResult(
        cycles=makespan,
        seconds=spec.cycles_to_seconds(makespan),
        stats=EngineStats.merged(stats),
        occupancy=occupancies[0],
    )
    if profiler is not None:
        result.profile = profiler.record_cluster(
            spec=spec, launches=launches, occ=occupancies[0],
            cycles=makespan, stats=result.stats,
            engine_profile=telemetry_hooks.EngineProfile.merged(totals),
            tracer=tracer, series=series)
    return result
