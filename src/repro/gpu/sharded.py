"""Deterministic sharded epoch execution for multi-GPU launches.

:func:`repro.gpu.multigpu.launch_cluster` runs each device of a cluster
on its **own engine** — in process for ``jobs=1``, one spawn worker per
device otherwise — and recombines the results so that the merged stats,
profiles, traces, time series, and memory contents are identical
regardless of the job count.  This module holds the shard
(:class:`_Shard`), the parent's one epoch coordinator
(:func:`_coordinate`), and the two ways it reaches the shards
(:func:`_run_inprocess`, :func:`_run_workers`).

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
clock or scheduling, and one coordinator makes it for both job modes:
they differ only in how a ``(horizon, grant)`` command reaches a shard
and its status comes back — a direct call, or a pair of queues.  That
is what makes ``jobs=1`` and ``jobs=N`` bit-identical;
``tests/gpu/golden_cluster.json`` pins the results.

Shards build their grids through :meth:`Device.block_factories`, the
device launch's own factory, so a sanitized device is sanitized in a
cluster too.  Under ``jobs>1`` a spawn worker would sanitize a copy
and drop its findings, so :func:`~repro.gpu.multigpu.launch_cluster`
refuses a sanitized device there.

Cross-process observability
---------------------------

Tracers and samplers cannot cross process boundaries as live objects.
The parent turns its ambient profiler into an
:class:`~repro.telemetry.hooks.ObserverPlan` once; every shard builds
its *own* observer from it — carrying its own
:class:`~repro.gpu.trace.Tracer` when tracing, windowed (a
:class:`~repro.telemetry.timeseries.TimeseriesSampler`) when sampling —
and spills the event streams to per-shard JSONL files
(``trace-shardNNN.jsonl`` / ``series-shardNNN.jsonl``), every record
stamped with ``(shard, device, epoch)``.  The parent merges them
deterministically in shard order: SM ids rebase to the global range
(shard *i* owns SMs ``[i * num_sms, (i+1) * num_sms)``, matching
:meth:`EngineProfile.merged`), and causal request ids rebase their
device prefix to the shard index.  ``jobs=1`` runs the *same*
spill-and-merge pipeline, so traces and series are bit-identical
across job counts exactly as stats already are.  Profile totals travel
back as a plain :class:`~repro.telemetry.hooks.EngineProfile`, never
the observer itself (which holds the tracer).  Component counter
sections of an ambient profiler reflect parent-process stats objects
only (spawn workers mutate their own copies), so they are meaningful
under ``jobs=1`` and zero under ``jobs>1`` — engine stats, traces,
series, and attribution merge either way.

Failures surface as errors, not hangs.  A worker that raises sends its
exception, which the parent re-raises at once; a worker that dies
silently is noticed within :data:`WORKER_POLL`; and
:data:`WORKER_TIMEOUT_ENV` bounds a stall.  Every way out of the
parent terminates and joins the shard processes.

Shard RNGs are seeded with the stable per-shard
:func:`repro.harness.runner.point_seed` before block factories run.
"""

from __future__ import annotations

import json
import math
import os
import time
import traceback
from queue import Empty

import numpy as np

from repro.gpu.engine import Engine
from repro.telemetry.hooks import EngineProfile

#: Seconds without any worker message before the parent gives up.
#: Overridable through the environment (:data:`WORKER_TIMEOUT_ENV`) for
#: slow CI machines.
WORKER_TIMEOUT = 120.0

#: Seconds between the parent's checks for dead workers while it waits
#: for shard messages.
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


# ---------------------------------------------------------------------------
# The shard: one device's engine, in whichever process runs it.


class _Shard:
    """One device of a cluster on its own host-gated engine, advanced
    by the parent's ``(horizon, grant)`` commands (see :meth:`step`)."""

    def __init__(self, index: int, launch, blocks_per_sm: int,
                 epoch: float, plan, spill_dir: str | None):
        from repro.harness.runner import _seed_rngs

        _seed_rngs(_shard_seed(index))
        device = launch.device
        observer = (plan.observer(device.spec.num_sms)
                    if plan is not None else None)
        self.engine = Engine(device.spec, blocks_per_sm, profile=observer)
        self.engine.gate_host()
        self.engine.begin(device.block_factories(launch.cfg, observer))
        self.index = index
        self.epoch = epoch
        self.spill_dir = spill_dir

    def step(self, horizon: float, grant: tuple | None) -> tuple:
        """Serve the parked host request at ``grant``'s ``(start,
        done)`` when given, then run to the next blocking point at or
        before ``horizon``.  Returns ``("parked", arrival, seconds)``,
        ``("waiting",)`` at the epoch barrier, or ``("done", result)``
        with the :meth:`finish` result."""
        engine = self.engine
        if grant is not None:
            engine.grant_host(*grant)
        nxt = engine.advance(horizon)
        if engine.parked:
            arrival, seconds = engine.parked_host()
            return ("parked", arrival, seconds)
        if nxt != math.inf:
            return ("waiting",)
        return ("done", self.finish())

    def finish(self) -> tuple:
        """Drain the shard and spill its event streams:
        ``engine.finish()`` first (it closes the profile's windows, so
        late counter mirrors still land in the tracer), then one JSONL
        file per stream.  Returns ``(cycles, stats, profile totals or
        None)``."""
        engine = self.engine
        cycles = engine.finish()
        observer = engine.profile
        if observer is None:
            return cycles, engine.stats, None
        index, epoch = self.index, self.epoch
        tracer = observer.tracer
        if tracer is not None:
            _write_spill(
                _trace_spill_path(self.spill_dir, index), index, epoch,
                {"events": len(tracer.events), "dropped": tracer.dropped},
                map(vars, tracer.events), "start")
        if observer.advance is not None:        # a windowed sampler
            _write_spill(
                _series_spill_path(self.spill_dir, index), index, epoch,
                {"window_cycles": observer.window_cycles,
                 "windows": (len(observer.windows)
                             + observer.dropped_windows),
                 "dropped_windows": observer.dropped_windows},
                observer.windows, "t0")
        # The launch totals only: the observer holds the tracer, and
        # its series already left in the spill.
        return cycles, engine.stats, EngineProfile.merged([observer])


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


def _merge_spills(spill_dir: str, n: int, num_sms: int, tracer,
                  timeseries: bool) -> dict | None:
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
            records = _read_spill(_trace_spill_path(spill_dir, index))
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
        if timeseries:
            records = _read_spill(_series_spill_path(spill_dir, index))
            meta = next(records, None)
            if meta is not None:
                enabled = 1
                windows += int(meta.get("windows", 0))
                dropped_windows += int(meta.get("dropped_windows", 0))
                window_cycles = max(window_cycles,
                                    float(meta.get("window_cycles",
                                                   0.0)))
            series.extend(records)
    if not timeseries:
        return None
    return {
        "enabled": enabled,
        "window_cycles": window_cycles,
        "windows": windows,
        "dropped_windows": dropped_windows,
        "series": series,
    }


# ---------------------------------------------------------------------------
# The parent: one epoch coordinator, two ways to reach the shards.


def _coordinate(n: int, clock_hz: float, epoch: float, step) -> list:
    """Drive ``n`` shards through the epoch protocol; returns their
    :meth:`_Shard.finish` results in shard order.

    ``step(commands)`` delivers ``{shard: (horizon, grant)}`` and
    returns ``{shard: status}`` (see :meth:`_Shard.step`) for exactly
    those shards.  Each round grants the globally earliest parked host
    request, by ``(arrival, shard)``, against the one host clock; when
    none is parked, the horizon moves one epoch and every shard waiting
    at the barrier advances to it.
    """
    horizon = epoch
    host_avail = 0.0
    status = step({i: (horizon, None) for i in range(n)})
    while True:
        parked = [(s[1], i, s[2]) for i, s in status.items()
                  if s[0] == "parked"]
        if parked:
            arrival, index, seconds = min(parked)
            start = max(arrival, host_avail)
            host_avail = start + seconds * clock_hz
            status.update(step({index: (horizon, (start, host_avail))}))
            continue
        waiting = [i for i, s in status.items() if s[0] == "waiting"]
        if not waiting:
            return [status[i][1] for i in range(n)]
        horizon += epoch
        status.update(step({i: (horizon, None) for i in waiting}))


def _run_inprocess(launches, blocks_per_sm: int, epoch: float, plan,
                   spill_dir: str | None) -> list:
    """``jobs=1``: every shard lives in this process; a command is a
    direct call."""
    shards = [_Shard(i, launch, blocks_per_sm, epoch, plan, spill_dir)
              for i, launch in enumerate(launches)]

    def step(commands: dict) -> dict:
        return {i: shards[i].step(*command)
                for i, command in commands.items()}

    return _coordinate(len(shards), launches[0].device.spec.clock_hz,
                       epoch, step)


def _shard_worker(index: int, launch, blocks_per_sm: int, epoch: float,
                  plan, spill_dir: str | None, cmd_q, rep_q) -> None:
    """Spawn-worker side: serve ``(horizon, grant)`` commands from
    ``cmd_q`` and report ``(index, status)`` on ``rep_q`` until done.
    The ``done`` status also carries the device memory, which the
    parent copies back; an exception is reported as ``("error",
    exception, traceback text)``.  Event streams never ride the
    queues — the shard spills them (see :meth:`_Shard.finish`)."""
    try:
        shard = _Shard(index, launch, blocks_per_sm, epoch, plan,
                       spill_dir)
        while True:
            state = shard.step(*cmd_q.get())
            if state[0] == "done":
                state += (launch.device.memory.data.tobytes(),)
            rep_q.put((index, state))
            if state[0] == "done":
                return
    except Exception as exc:
        rep_q.put((index, ("error", exc, traceback.format_exc())))


def _run_workers(launches, blocks_per_sm: int, epoch: float, plan,
                 spill_dir: str | None) -> list:
    """``jobs>1``: one spawn process per shard (every shard must be
    live for the barrier to close), commands and statuses over queues.
    On any error — a shard's own exception, a dead worker, or
    :func:`worker_timeout` seconds without a message — the processes
    are terminated before the error propagates."""
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    timeout = worker_timeout()
    rep_q = ctx.Queue()
    cmd_qs = [ctx.Queue() for _ in launches]
    procs = [ctx.Process(target=_shard_worker, daemon=True,
                         args=(i, launch, blocks_per_sm, epoch, plan,
                               spill_dir, cmd_qs[i], rep_q))
             for i, launch in enumerate(launches)]

    def step(commands: dict) -> dict:
        for index, command in commands.items():
            cmd_qs[index].put(command)
        out: dict = {}
        deadline = time.monotonic() + timeout
        while len(out) < len(commands):
            try:
                index, state = rep_q.get(timeout=WORKER_POLL)
            except Empty:
                for i in commands:
                    code = procs[i].exitcode
                    if i not in out and code is not None \
                            and rep_q.empty():
                        raise RuntimeError(
                            f"shard {i} worker exited with code {code} "
                            "without reporting") from None
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        "sharded workers made no progress for "
                        f"{timeout}s") from None
                continue
            deadline = time.monotonic() + timeout
            if state[0] == "error":
                raise state[1] from RuntimeError(
                    f"in shard {index}:\n{state[2]}")
            if state[0] == "done":
                data = launches[index].device.memory.data
                data[:] = np.frombuffer(state[2], dtype=np.uint8)
                state = state[:2]
            out[index] = state
        return {i: out[i] for i in commands}

    started = []
    try:
        for proc in procs:
            proc.start()
            started.append(proc)
        return _coordinate(len(launches),
                           launches[0].device.spec.clock_hz, epoch, step)
    finally:
        for proc in started:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        for q in (rep_q, *cmd_qs):
            q.close()
