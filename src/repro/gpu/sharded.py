"""Deterministic sharded epoch execution for multi-GPU launches.

:func:`repro.gpu.multigpu.launch_cluster` runs each device of a cluster
on its **own engine** — in process for ``jobs=1``, one spawn worker per
device otherwise — and recombines the results so that the merged stats,
profiles, traces, time series, and memory contents are identical
regardless of the job count.  This module holds the shard side of that
protocol and the two drivers (:func:`_run_inprocess`,
:func:`_run_workers`).

Synchronisation model
---------------------

Inside one device every resource (SMs, DRAM, PCIe, atomics) is private,
so shards never need to coordinate about them.  The only shared server
is the **host CPU**, which the parent owns:

* Every shard engine is host-gated (:meth:`Engine.gate_host`): the
  moment a warp yields :class:`HostCompute` the shard *parks* — it
  stops draining immediately (strict stop), so no later event consumes
  a sequence number before the host result is known.
* Shards otherwise advance in **epochs** of ``epoch_cycles`` simulated
  cycles (default: the PCIe round-trip, the minimum latency of any
  cross-device interaction), reporting at each epoch barrier.
* When every shard is parked, at a barrier, or finished, the parent
  serves the globally earliest parked request — ordered by ``(arrival
  cycle, shard index)`` — against the shared ``host_avail`` clock and
  resumes only that shard.  The grant is conservative-safe: unparked
  shards have drained past the barrier horizon, so none can still
  produce an earlier host request.

The decision sequence depends only on simulated time, never on wall
clock or scheduling, which is what makes ``jobs=1`` and ``jobs=N``
bit-identical; ``tests/gpu/golden_cluster.json`` pins the results.

Cross-process observability
---------------------------

Tracers and samplers cannot cross process boundaries as live objects,
so each shard builds its *own* engine observer through
:func:`~repro.telemetry.hooks.launch_observer` — the rule device
launches use — carrying its own :class:`~repro.gpu.trace.Tracer` when
tracing and windowed (a
:class:`~repro.telemetry.timeseries.TimeseriesSampler`) when sampling,
and spills the event streams to per-shard JSONL
files (``trace-shardNNN.jsonl`` / ``series-shardNNN.jsonl``), every
record stamped with ``(shard, device, epoch)``.  The parent merges
them deterministically in shard order: SM ids rebase to the global
range (shard *i* owns SMs ``[i * num_sms, (i+1) * num_sms)``, matching
:meth:`EngineProfile.merged`), and causal request ids rebase their
device prefix to the shard index.  ``jobs=1`` runs the *same*
spill-and-merge pipeline, so traces and series are bit-identical
across job counts exactly as stats already are.  Profile totals travel
back from workers as a plain
:class:`~repro.telemetry.hooks.EngineProfile`, never the observer
itself (which holds the tracer).  Component counter
sections of an ambient profiler reflect parent-process stats objects
only (spawn workers mutate their own copies), so they are meaningful
under ``jobs=1`` and zero under ``jobs>1`` — engine stats, traces,
series, and attribution merge either way.

Worker RNGs are seeded with the stable per-shard
:func:`repro.harness.runner.point_seed` before block factories run.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from queue import Empty

from repro.gpu.engine import Engine
from repro.gpu.kernel import BlockContext, WarpContext
from repro.gpu.memory import Scratchpad
from repro.telemetry.hooks import EngineProfile, launch_observer

#: Seconds without any worker message before the parent gives up.
#: Overridable through the environment (:data:`WORKER_TIMEOUT_ENV`) for
#: slow CI machines.
WORKER_TIMEOUT = 120.0

#: Seconds between the parent's checks for crashed workers while it
#: waits for shard messages; a failed shard re-raises within this.
WORKER_POLL = 0.1

#: Environment variable overriding :data:`WORKER_TIMEOUT` (seconds,
#: positive number); validated by :func:`worker_timeout`.
WORKER_TIMEOUT_ENV = "REPRO_WORKER_TIMEOUT"


def worker_timeout() -> float:
    """The effective worker timeout: :data:`WORKER_TIMEOUT_ENV` when
    set (validated — a number of seconds > 0), else the
    :data:`WORKER_TIMEOUT` default."""
    raw = os.environ.get(WORKER_TIMEOUT_ENV)
    if raw is None:
        return WORKER_TIMEOUT
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{WORKER_TIMEOUT_ENV} must be a number of seconds, "
            f"got {raw!r}") from None
    if math.isnan(value) or value <= 0:
        raise ValueError(
            f"{WORKER_TIMEOUT_ENV} must be positive, got {raw!r}")
    return value


def default_epoch_cycles(spec) -> float:
    """Epoch barrier spacing: the minimum cross-device interaction
    latency.  Devices only interact through the host, and nothing
    reaches the host faster than one PCIe round-trip."""
    return max(1.0, spec.pcie_latency_cycles())


@dataclass(frozen=True)
class _ShardInstrument:
    """Picklable per-shard instrumentation request.

    Travels to spawn workers in place of live tracer/profile objects;
    each shard constructs its own instruments from it and spills their
    output to ``spill_dir`` (see module docstring).
    """

    profile: bool = False
    trace: bool = False
    max_trace_events: int = 200_000
    timeseries: bool = False
    window_cycles: float = 0.0
    epoch_cycles: float = 1.0
    spill_dir: str = ""

    @property
    def spills(self) -> bool:
        return self.trace or self.timeseries


# ---------------------------------------------------------------------------
# Shard-side execution (shared by the in-process and worker paths).


def _block_factories(launch, tracer) -> list:
    """One zero-argument factory per threadblock of ``launch``, each
    returning ``(BlockContext, [warp generators])``.  ``tracer``
    threads into every :class:`WarpContext`, so layer-level spans
    (translation faults, page-ins, syscalls) land in cluster traces."""
    spec = launch.device.spec
    warps_per_block = -(-launch.block_threads // spec.warp_size)

    def make_block(block_id: int):
        def factory():
            block = BlockContext(
                block_id=block_id,
                threads=launch.block_threads,
                warps=warps_per_block,
                scratchpad=Scratchpad(max(launch.scratchpad_bytes, 1)),
            )
            gens = []
            for w in range(warps_per_block):
                ctx = WarpContext(spec, launch.device.memory, block, w,
                                  tracer=tracer)
                gens.append(launch.kernel(ctx, *launch.args))
            return block, gens
        return factory

    return [make_block(b) for b in range(launch.grid)]


def _build_shard(launch, blocks_per_sm: int, inst: _ShardInstrument):
    """One engine for one :class:`~repro.gpu.multigpu.ClusterLaunch`,
    gated on the host server and seeded with its block factories.  The
    shard-local observer is ``engine.profile`` (windowed when sampling
    is on, carrying the shard's tracer when tracing is on)."""
    spec = launch.device.spec
    observer = launch_observer(
        spec.num_sms, profile=inst.profile,
        trace_events=inst.max_trace_events if inst.trace else 0,
        timeseries=inst.timeseries, window_cycles=inst.window_cycles)
    engine = Engine(spec, blocks_per_sm, profile=observer)
    engine.gate_host()
    engine.begin(_block_factories(
        launch, observer.tracer if observer is not None else None))
    return engine


def _shard_status(engine: Engine, horizon: float) -> tuple:
    """Advance one shard to its next blocking point.

    Returns ``("parked", arrival, seconds)``, ``("waiting",)`` (epoch
    barrier reached), or ``("done",)``.
    """
    nxt = engine.advance(horizon)
    if engine.parked:
        arrival, seconds = engine.parked_host()
        return ("parked", arrival, seconds)
    if nxt == math.inf:
        return ("done",)
    return ("waiting",)


def _pick_grant(status: dict) -> tuple | None:
    """The globally earliest parked request, ordered by
    ``(arrival cycle, shard index)``."""
    parked = [(s[1], idx, s[2]) for idx, s in status.items()
              if s[0] == "parked"]
    if not parked:
        return None
    return min(parked)


def _shard_seed(index: int) -> int:
    from repro.harness.runner import point_seed
    return point_seed("gpu.sharded", index, {"shard": index},
                      base_seed=0)


# ---------------------------------------------------------------------------
# Per-shard event spill files and their deterministic merge.


def _trace_spill_path(spill_dir: str, index: int) -> str:
    return os.path.join(spill_dir, f"trace-shard{index:03d}.jsonl")


def _series_spill_path(spill_dir: str, index: int) -> str:
    return os.path.join(spill_dir, f"series-shard{index:03d}.jsonl")


def _write_spill(path: str, index: int, epoch: float, meta: dict,
                 records, start_key: str) -> None:
    """Write one spill file: a header line (``meta`` after the ``(shard,
    device, epoch_cycles)`` stamp), then one line per record, copied
    and stamped ``(shard, device, epoch)`` with the epoch its
    ``record[start_key]`` cycle falls in."""
    with open(path, "w") as f:
        f.write(json.dumps({"shard": index, "device": index,
                            "epoch_cycles": epoch, **meta}) + "\n")
        for record in records:
            epoch_index = int(record[start_key] // epoch)
            f.write(json.dumps(dict(record, shard=index, device=index,
                                    epoch=epoch_index)) + "\n")


def _read_spill(path: str):
    """Yield the header, then every record, of one spill file; nothing
    when the shard wrote none.  A truncated or corrupt line raises
    ``ValueError`` naming the file and line."""
    if not os.path.exists(path):
        return
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"corrupt spill file {path}, line {lineno}: "
                    f"{exc.msg}") from None
            yield record


def _finish_shard(index: int, engine: Engine,
                  inst: _ShardInstrument) -> float:
    """Drain the shard and spill its event streams: ``engine.finish()``
    first (it closes the profile's windows, so late counter mirrors
    still land in the tracer), then one JSONL file per stream."""
    cycles = engine.finish()
    epoch = inst.epoch_cycles
    if inst.trace:
        tracer = engine.profile.tracer
        _write_spill(
            _trace_spill_path(inst.spill_dir, index), index, epoch,
            {"events": len(tracer.events), "dropped": tracer.dropped},
            map(vars, tracer.events), "start")
    if inst.timeseries:
        sampler = engine.profile
        _write_spill(
            _series_spill_path(inst.spill_dir, index), index, epoch,
            {"window_cycles": sampler.window_cycles,
             "windows": len(sampler.windows) + sampler.dropped_windows,
             "dropped_windows": sampler.dropped_windows},
            sampler.windows, "t0")
    return cycles


def _merge_spills(inst: _ShardInstrument, n: int, num_sms: int,
                  tracer) -> dict | None:
    """Deterministically merge the per-shard spill files, shard order.

    Trace events replay into ``tracer`` (when tracing was on) with SM
    ids rebased to shard *i*'s global range and causal request ids
    rebased to the shard's device prefix; counter mirrors (``sm ==
    -1``) stay unrebased.  Returns the merged
    ``components.timeseries`` section, or ``None`` when sampling was
    off.
    """
    series: list[dict] = []
    enabled = 0
    windows = 0
    dropped_windows = 0
    window_cycles = 0.0
    for index in range(n):
        base = index * num_sms
        if tracer is not None:
            records = _read_spill(_trace_spill_path(inst.spill_dir,
                                                    index))
            meta = next(records, None)
            if meta is not None:
                tracer.dropped += int(meta.get("dropped", 0))
            for rec in records:
                sm = rec["sm"]
                if sm >= 0:
                    sm += base
                req = rec["req"]
                if req:
                    req = f"{index}{req[req.index(':'):]}"
                tracer.record(rec["warp"], rec["block"], rec["kind"],
                              rec["start"], rec["end"], rec["detail"],
                              sm=sm, req=req)
        if inst.timeseries:
            records = _read_spill(_series_spill_path(inst.spill_dir,
                                                     index))
            meta = next(records, None)
            if meta is not None:
                enabled = 1
                windows += int(meta.get("windows", 0))
                dropped_windows += int(meta.get("dropped_windows", 0))
                window_cycles = max(window_cycles,
                                    float(meta.get("window_cycles",
                                                   0.0)))
            series.extend(records)
    if not inst.timeseries:
        return None
    return {
        "enabled": enabled,
        "window_cycles": window_cycles,
        "windows": windows,
        "dropped_windows": dropped_windows,
        "series": series,
    }


# ---------------------------------------------------------------------------
# jobs=1: every shard engine lives in this process; the state machine
# below is the reference implementation the worker protocol mirrors.


def _run_inprocess(launches, blocks_per_sm: int, epoch: float,
                   inst: _ShardInstrument):
    from repro.harness.runner import _seed_rngs

    spec = launches[0].device.spec
    engines = []
    for index, launch in enumerate(launches):
        _seed_rngs(_shard_seed(index))
        engines.append(_build_shard(launch, blocks_per_sm, inst))
    horizon = epoch
    host_avail = 0.0
    status = {i: _shard_status(eng, horizon)
              for i, eng in enumerate(engines)}
    while True:
        grant = _pick_grant(status)
        if grant is not None:
            arrival, index, seconds = grant
            start = max(arrival, host_avail)
            done = start + seconds * spec.clock_hz
            host_avail = done
            engines[index].grant_host(start, done)
            status[index] = _shard_status(engines[index], horizon)
            continue
        waiting = [i for i, s in status.items() if s[0] == "waiting"]
        if not waiting:
            break
        horizon += epoch
        for index in waiting:
            status[index] = _shard_status(engines[index], horizon)
    cycles = [_finish_shard(i, eng, inst)
              for i, eng in enumerate(engines)]
    stats = [eng.stats for eng in engines]
    profiles = ([eng.profile for eng in engines] if inst.profile
                else None)
    return cycles, stats, profiles, None


# ---------------------------------------------------------------------------
# jobs>1: one spawn worker per shard, coordinated over Manager queues.


def _shard_worker(index: int, launch, blocks_per_sm: int, epoch: float,
                  seed: int, inst: _ShardInstrument,
                  cmd_q, rep_q):
    """Worker side of the epoch protocol.  Messages to the parent:
    ``("parked", index, arrival, seconds)``, ``("waiting", index)``,
    ``("done", index)``; commands from the parent: ``("grant", start,
    done)`` and ``("advance", horizon)``.
    Event streams never ride the queues — shards spill them to
    ``inst.spill_dir`` (see :func:`_finish_shard`).
    """
    from repro.harness.runner import _seed_rngs

    _seed_rngs(seed)
    engine = _build_shard(launch, blocks_per_sm, inst)
    horizon = epoch
    while True:
        state = _shard_status(engine, horizon)
        if state[0] == "parked":
            rep_q.put(("parked", index, state[1], state[2]))
            cmd = cmd_q.get()
            engine.grant_host(cmd[1], cmd[2])
            continue
        if state[0] == "done":
            rep_q.put(("done", index))
            break
        rep_q.put(("waiting", index))
        cmd = cmd_q.get()
        horizon = cmd[1]
    cycles = _finish_shard(index, engine, inst)
    memory = launch.device.memory.data.tobytes()
    # Ship the profile's launch totals only: the observer holds the
    # shard's tracer, and its series already left in the spill.
    totals = (EngineProfile.merged([engine.profile]) if inst.profile
              else None)
    return (index, cycles, engine.stats, totals, memory)


def _run_workers(launches, blocks_per_sm: int, epoch: float,
                 inst: _ShardInstrument):
    import multiprocessing

    from repro.harness.runner import spawn_executor

    spec = launches[0].device.spec
    timeout = worker_timeout()
    n = len(launches)
    # Every shard must be live for the barrier to close, so the pool
    # holds one worker per shard regardless of the jobs value.  The
    # manager exits first: on an error it takes the queues down, so
    # shards blocked on a command fail instead of hanging the pool's
    # shutdown.
    with spawn_executor(n) as pool, \
            multiprocessing.Manager() as manager:
        rep_q = manager.Queue()
        cmd_qs = [manager.Queue() for _ in range(n)]
        futures = [
            pool.submit(_shard_worker, i, launch, blocks_per_sm, epoch,
                        _shard_seed(i), inst, cmd_qs[i], rep_q)
            for i, launch in enumerate(launches)]
        status: dict[int, tuple] = {}
        horizon = epoch
        host_avail = 0.0
        pending = set(range(n))     # shards we await a message from

        def collect():
            deadline = time.monotonic() + timeout
            while pending:
                try:
                    msg = rep_q.get(timeout=WORKER_POLL)
                except Empty:
                    for fut in futures:
                        if fut.done():
                            fut.result()  # surfaces worker tracebacks
                    if time.monotonic() > deadline:
                        raise TimeoutError(
                            "sharded workers made no progress for "
                            f"{timeout}s") from None
                    continue
                deadline = time.monotonic() + timeout
                index = msg[1]
                pending.discard(index)
                if msg[0] == "parked":
                    status[index] = ("parked", msg[2], msg[3])
                elif msg[0] == "waiting":
                    status[index] = ("waiting",)
                else:
                    status[index] = ("done",)

        while True:
            collect()
            grant = _pick_grant(status)
            if grant is not None:
                arrival, index, seconds = grant
                start = max(arrival, host_avail)
                done = start + seconds * spec.clock_hz
                host_avail = done
                cmd_qs[index].put(("grant", start, done))
                pending.add(index)
                continue
            waiting = [i for i, s in status.items()
                       if s[0] == "waiting"]
            if not waiting:
                break
            horizon += epoch
            for index in waiting:
                cmd_qs[index].put(("advance", horizon))
                pending.add(index)

        results = [fut.result() for fut in futures]
    results.sort()
    cycles = [r[1] for r in results]
    stats = [r[2] for r in results]
    profiles = [r[3] for r in results] if inst.profile else None
    memories = [r[4] for r in results]
    return cycles, stats, profiles, memories
