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

Synchronisation model
---------------------

Every device of a cluster runs as a *shard* (:class:`_Shard`) on its
own engine, in this process.  Inside one device every resource (SMs,
DRAM, PCIe, atomics) is private, so shards never need to coordinate
about them.  The only shared server is the **host CPU**, which the
coordinator (:func:`_coordinate`) owns:

* Every shard engine is host-gated (:meth:`Engine.gate_host`): the
  moment a warp yields :class:`HostCompute` the shard *parks* — it
  stops draining immediately (strict stop), so no later event consumes
  a sequence number before the host result is known.
* Shards otherwise advance in **epochs** of ``epoch_cycles`` simulated
  cycles (default: the PCIe round-trip, the minimum latency of any
  cross-device interaction), reporting at each epoch barrier.
* When every shard is parked, at a barrier, or finished, the
  coordinator serves the globally earliest parked request — ordered by
  ``(arrival cycle, shard index)`` — against the shared ``host_avail``
  clock and resumes only that shard.  The grant is conservative-safe:
  unparked shards have drained past the barrier horizon, so none can
  still produce an earlier host request.

The decision sequence depends only on simulated time, never on wall
clock; ``tests/gpu/golden_cluster.json`` pins the results.  Shards
build their grids through :meth:`Device.block_factories`, the device
launch's own factory, so a sanitized device is sanitized in a cluster
too.  Shard RNGs are seeded with the stable per-shard
:func:`repro.harness.runner.point_seed` before block factories run.

Observability
-------------

A cluster is observed the way a device launch is: through the ambient
profiler (:func:`repro.telemetry.capture`).  The profiler becomes an
:class:`~repro.telemetry.hooks.ObserverPlan` once; every shard builds
its *own* observer from it — carrying its own
:class:`~repro.gpu.trace.Tracer` when tracing, windowed (a
:class:`~repro.telemetry.timeseries.TimeseriesSampler`) when sampling.
After the last shard finishes, the observers merge in shard order
(:func:`_merge_trace`, :func:`_merge_series`,
:meth:`EngineProfile.merged`): SM ids rebase to the global range
(shard *i* owns SMs ``[i * num_sms, (i+1) * num_sms)``), warp ids move
past the warps of the shards before, causal request ids rebase their
device prefix to the shard index, and series windows
are stamped with their ``(shard, device, epoch)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpu.device import Device, KernelLaunch, LaunchResult
from repro.gpu.engine import Engine, EngineStats
from repro.gpu.kernel import KernelFn
from repro.gpu.occupancy import OccupancyLimits
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


def default_epoch_cycles(spec) -> float:
    """Epoch barrier spacing: the minimum cross-device interaction
    latency.  Devices only interact through the host, and nothing
    reaches the host faster than one PCIe round-trip."""
    return max(1.0, spec.pcie_latency_cycles())


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


# ---------------------------------------------------------------------------
# The shards and their one epoch coordinator.


class _Shard:
    """One device of a cluster on its own host-gated engine, advanced
    by the coordinator's ``(horizon, grant)`` steps (see :meth:`step`)."""

    def __init__(self, index: int, launch: ClusterLaunch,
                 blocks_per_sm: int, plan):
        from repro.harness.runner import _seed_rngs

        _seed_rngs(_shard_seed(index))
        device = launch.device
        observer = (plan.observer(device.spec.num_sms)
                    if plan is not None else None)
        self.engine = Engine(device.spec, blocks_per_sm, profile=observer)
        self.engine.gate_host()
        self.engine.begin(device.block_factories(launch.cfg, observer))

    def step(self, horizon: float, grant: tuple | None = None) -> tuple:
        """Serve the parked host request at ``grant``'s ``(start,
        done)`` when given, then run to the next blocking point at or
        before ``horizon``.  Returns ``("parked", arrival, seconds)``,
        ``("waiting",)`` at the epoch barrier, or ``("done", cycles)``
        once :meth:`Engine.finish` has drained the shard (closing its
        observer's windows)."""
        engine = self.engine
        if grant is not None:
            engine.grant_host(*grant)
        nxt = engine.advance(horizon)
        if engine.parked:
            return ("parked", *engine.parked_host())
        if nxt != math.inf:
            return ("waiting",)
        return ("done", engine.finish())


def _shard_seed(index: int) -> int:
    from repro.harness.runner import point_seed
    # The key names the module the shards first lived in; it seeds the
    # shard RNGs, so changing it would move cluster results.
    return point_seed("gpu.sharded", index, {"shard": index},
                      base_seed=0)


def _coordinate(shards: list[_Shard], clock_hz: float,
                epoch: float) -> list[float]:
    """Drive the shards through the epoch protocol; returns their
    cycle counts in shard order.

    Each round grants the globally earliest parked host request, by
    ``(arrival, shard)``, against the one host clock; when none is
    parked, the horizon moves one epoch and every shard waiting at the
    barrier advances to it.
    """
    horizon = epoch
    host_avail = 0.0
    status = [shard.step(horizon) for shard in shards]
    while True:
        parked = [(s[1], i, s[2]) for i, s in enumerate(status)
                  if s[0] == "parked"]
        if parked:
            arrival, index, seconds = min(parked)
            start = max(arrival, host_avail)
            host_avail = start + seconds * clock_hz
            status[index] = shards[index].step(horizon,
                                               (start, host_avail))
            continue
        waiting = [i for i, s in enumerate(status) if s[0] == "waiting"]
        if not waiting:
            return [s[1] for s in status]
        horizon += epoch
        for i in waiting:
            status[i] = shards[i].step(horizon)


# ---------------------------------------------------------------------------
# The in-memory merge of the shard observers, in shard order.


def _merge_trace(observers: list, num_sms: int, warps: list[int],
                 max_events: int) -> Tracer:
    """Re-record every shard's trace events into one tracer.

    SM ids rebase to shard *i*'s global range, warp ids past the
    ``warps`` of the shards before it, and causal request ids to the
    shard's device prefix (their middle field stays the device-local
    warp); counter mirrors (``sm == -1``, warp 0) stay unrebased.  Each
    shard's dropped events add to the merged count.
    """
    tracer = Tracer(max_events=max_events)
    warp_base = 0
    for index, observer in enumerate(observers):
        shard = observer.tracer
        tracer.dropped += shard.dropped
        base = index * num_sms
        for e in shard.events:
            req = e.req
            if req:
                req = f"{index}{req[req.index(':'):]}"
            warp, sm = e.warp, e.sm
            if sm >= 0:
                warp, sm = warp + warp_base, sm + base
            tracer.record(warp, e.block, e.kind, e.start, e.end,
                          e.detail, sm=sm, req=req)
        warp_base += warps[index]
    return tracer


def _merge_series(observers: list, epoch: float) -> dict:
    """The merged ``components.timeseries`` section of windowed shard
    observers: their windows concatenated, each stamped with its
    ``shard``, ``device`` and the ``epoch`` its ``t0`` falls in."""
    series: list[dict] = []
    windows = dropped_windows = 0
    window_cycles = 0.0
    for index, observer in enumerate(observers):
        windows += len(observer.windows) + observer.dropped_windows
        dropped_windows += observer.dropped_windows
        window_cycles = max(window_cycles, float(observer.window_cycles))
        series.extend({**window, "shard": index, "device": index,
                       "epoch": int(window["t0"] // epoch)}
                      for window in observer.windows)
    return {
        "enabled": int(bool(observers)),
        "window_cycles": window_cycles,
        "windows": windows,
        "dropped_windows": dropped_windows,
        "series": series,
    }


def launch_cluster(launches: list[ClusterLaunch],
                   epoch_cycles: float | None = None) -> LaunchResult:
    """Run all launches concurrently, one engine per device; returns
    the combined timing.

    The returned result's ``cycles`` is the makespan across devices;
    ``stats`` aggregates all of them.  ``epoch_cycles`` bounds how far
    a shard runs ahead between barriers (defaults to the minimum
    cross-device interaction latency, the PCIe round-trip).

    A cluster is observed like any launch, through the ambient
    profiler (:func:`repro.telemetry.capture`): its settings pick each
    shard's observer, and the merged launch lands in
    ``profiler.profiles`` (also ``result.profile``) with its merged
    trace in ``profiler.traces`` and its merged series in
    ``components.timeseries``.
    """
    spec, occupancies = _plan_cluster(launches)
    blocks_per_sm = min(o.blocks_per_sm for o in occupancies)
    epoch = (default_epoch_cycles(spec) if epoch_cycles is None
             else float(epoch_cycles))
    if epoch <= 0:
        raise ValueError("epoch_cycles must be positive")

    profiler = telemetry_hooks.current()
    plan = (telemetry_hooks.ObserverPlan.of(profiler)
            if profiler is not None else None)
    shards = [_Shard(i, launch, blocks_per_sm, plan)
              for i, launch in enumerate(launches)]
    makespan = max(_coordinate(shards, spec.clock_hz, epoch))
    for launch in launches:
        launch.device.total_cycles += makespan
        launch.device.launches += 1
    result = LaunchResult(
        cycles=makespan,
        seconds=spec.cycles_to_seconds(makespan),
        stats=EngineStats.merged([shard.engine.stats for shard in shards]),
        occupancy=occupancies[0],
    )
    if profiler is not None:
        observers = [shard.engine.profile for shard in shards]
        warps = [launch.grid * -(-launch.block_threads // spec.warp_size)
                 for launch in launches]
        tracer = (_merge_trace(observers, spec.num_sms, warps,
                               plan.trace_events * len(launches))
                  if plan.trace_events else None)
        result.profile = profiler.record_cluster(
            spec=spec, launches=launches, occ=occupancies[0],
            cycles=makespan, stats=result.stats,
            engine_profile=telemetry_hooks.EngineProfile.merged(observers),
            tracer=tracer,
            series=(_merge_series(observers, epoch)
                    if plan.timeseries else None))
    return result
