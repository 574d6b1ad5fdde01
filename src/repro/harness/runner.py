"""Process-pool parallel experiment runner.

Every grid point of an :class:`~repro.harness.registry.Experiment` is
an independent simulation, so the suite is embarrassingly parallel —
the classic structure parallel GPU-simulator work exploits.  This
module fans points out across spawn workers (``concurrent.futures``),
with:

* **deterministic per-point seeding** — each point's RNG seed is a
  stable hash of ``(base_seed, experiment, point index, params)``, so
  ``--jobs 1`` and ``--jobs N`` produce row-for-row identical results;
* **structured failure capture** — a crashed point becomes an entry in
  ``result.errors`` (params + traceback), never a crashed suite: the
  sibling points' rows survive;
* **per-worker profile merging** — with ``profile=True`` each point
  runs under :func:`repro.telemetry.capture` and its
  ``LaunchProfile`` documents are shipped back and merged into one
  suite profile (:func:`repro.telemetry.merge_profiles`, schema v8
  with a ``run.workers`` section);
* **live telemetry** — with a :class:`LiveOptions`, every point runs
  under the cycle-window sampler
  (:mod:`repro.telemetry.timeseries`): each process streams its
  point's windows to a ``series-*.jsonl`` file in the live directory
  (through the series writer shard spills use) and ships compact
  heartbeats to the parent over a manager queue;
* a **progress line** on stderr when attached to a terminal — drawn
  by exactly one :class:`~repro.harness.heartbeat.HeartbeatRenderer`
  in the parent, so ``--jobs N`` output never interleaves.

Spawn-safety is what the registry buys: point functions are
module-level (pickled by reference) and grid params are plain dicts,
so nothing closes over a live ``Device`` or an unpicklable config.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import sys
import time
import traceback
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from queue import Empty
from typing import Optional

from repro.harness.heartbeat import (
    DEFAULT_MIN_INTERVAL,
    HeartbeatRenderer,
    HeartbeatSender,
    make_heartbeat,
)
from repro.harness.registry import Experiment, ExperimentResult

#: Default base seed; combine with a per-point hash for the final seed.
DEFAULT_BASE_SEED = 0x5EED


@dataclass(frozen=True)
class LiveOptions:
    """Live-telemetry configuration for a run (implies profiling).

    ``live_dir`` receives the streaming layout ``repro-obs top`` tails:
    one ``series-<experiment>-p<NNN>.jsonl`` per grid point, written
    by whichever process ran the point with the series writer shared
    with shard spills (:class:`~repro.telemetry.timeseries.SpillWriter`),
    plus the parent-written ``heartbeats.jsonl``.  With
    ``live_dir=None`` heartbeats still drive the progress line but
    nothing is written to disk.  The dataclass is frozen and
    field-picklable, so it ships to spawn workers as-is.
    """

    live_dir: Optional[str] = None
    window_cycles: Optional[float] = None     # None = sampler default
    heartbeat_interval: float = DEFAULT_MIN_INTERVAL


@dataclass(frozen=True)
class Instrumentation:
    """Everything a run can observe, in one bundle.

    The runner-side sibling of the engine's one observer
    (:class:`repro.telemetry.hooks.EngineProfile`): where the observer
    is a live object inside one engine launch, ``Instrumentation``
    carries picklable *switches* for a whole experiment run — the
    runner turns them into a profiler in whichever process executes
    the point, and :func:`~repro.telemetry.hooks.launch_observer`
    builds each launch's observer from that profiler.

    * ``profile`` — collect per-launch profiles and a merged suite
      profile (implied by either of the next two).
    * ``trace`` — keep Chrome-trace event streams (in-process runs
      only; ``None`` means "trace iff profiling").
    * ``attribution`` — run the cycle-attribution analyzer on every
      launch (:mod:`repro.telemetry.attribution`).
    * ``live`` — a :class:`LiveOptions`: cycle-window sampling with
      streaming export and heartbeats.
    """

    profile: bool = False
    trace: Optional[bool] = None
    attribution: bool = False
    live: Optional[LiveOptions] = None

    @classmethod
    def off(cls) -> "Instrumentation":
        return cls()


class ExperimentPointError(RuntimeError):
    """Raised by fail-fast callers when any grid point crashed."""

    def __init__(self, exp_id: str, errors: list):
        self.exp_id = exp_id
        self.errors = errors
        first = errors[0]
        super().__init__(
            f"{len(errors)} point(s) of {exp_id} failed; first: "
            f"{first['params']}: {first['error']}")


@dataclass
class PointOutcome:
    """One grid point, finished: its rows or its failure."""

    index: int
    params: dict
    seed: int
    rows: Optional[list] = None
    error: Optional[str] = None        # "ExceptionType: message"
    traceback: Optional[str] = None
    profiles: list = field(default_factory=list)   # LaunchProfile docs
    tracers: list = field(default_factory=list)    # in-process runs only
    worker_pid: int = 0


@dataclass
class RunReport:
    """Everything one :func:`run_experiment` call produced."""

    result: ExperimentResult
    outcomes: list
    profiles: list = field(default_factory=list)   # docs, grid order
    tracers: list = field(default_factory=list)    # parallel to profiles
    merged: Optional[dict] = None                  # suite profile
    jobs: int = 1
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result.ok


def point_seed(exp_name: str, index: int, params: dict,
               base_seed: int = DEFAULT_BASE_SEED) -> int:
    """Stable per-point seed: identical in-process and across spawn
    workers, independent of scheduling order and job count."""
    blob = repr((base_seed, exp_name, index,
                 sorted(params.items()))).encode()
    return zlib.crc32(blob) & 0x7FFFFFFF


def _seed_rngs(seed: int) -> None:
    import numpy as np
    random.seed(seed)
    np.random.seed(seed & 0xFFFFFFFF)


def _sampling_config(live: Optional["LiveOptions"], exp_name: str,
                     index: int, sender: Optional[HeartbeatSender]):
    """Per-point sampling wiring for :func:`_execute_point`, or
    ``None`` when live telemetry is off.  Built in the process that
    runs the point (the heartbeat closure is not picklable)."""
    if live is None:
        return None
    from repro.telemetry.timeseries import DEFAULT_WINDOW_CYCLES
    cfg: dict = {
        "window_cycles": float(live.window_cycles
                               or DEFAULT_WINDOW_CYCLES),
        "stamp": {"experiment": exp_name, "point": index,
                  "pid": os.getpid()},
        "beat": (lambda record:
                 sender.window_beat(exp_name, index, record)),
    }
    if live.live_dir:
        cfg["series_path"] = os.path.join(
            live.live_dir, f"series-{exp_name}-p{index:03d}.jsonl")
    return cfg


def _execute_point(point_fn, params: dict, seed: int, scale: str,
                   profile: bool, trace: bool,
                   attribution: bool = False, sampling=None):
    """Run one point (any process); returns (rows, profile docs,
    tracers).  Tracers only exist for in-process execution — they are
    not shipped across the pool.  ``attribution`` forces a tracer per
    launch (the analyzer needs the event log) and stores the
    cycle-attribution summary in each profile's components.
    ``sampling`` (a :func:`_sampling_config` dict) turns on the
    cycle-window sampler; its one sink writes each closed window to
    the point's series file (a header line, then windows stamped with
    ``{experiment, point, pid}``) and sends the window heartbeat."""
    _seed_rngs(seed)
    if not profile:
        return point_fn(scale=scale, **params), [], []
    from repro.telemetry import SpillWriter, capture
    kwargs: dict = {}
    writer = None
    if sampling is not None:
        beat = sampling["beat"]
        kwargs.update(timeseries=True, series_sink=beat,
                      window_cycles=sampling["window_cycles"])
        if sampling.get("series_path"):
            stamp = sampling["stamp"]
            writer = SpillWriter(
                sampling["series_path"],
                dict(stamp, window_cycles=sampling["window_cycles"]),
                stamp)

            def series_sink(record: dict) -> None:
                writer(record)
                beat(record)
            kwargs["series_sink"] = series_sink
    try:
        with capture(trace=trace or attribution, max_traces=1,
                     attribution=attribution, **kwargs) as prof:
            rows = point_fn(scale=scale, **params)
    finally:
        if writer is not None:
            writer.close()
    return rows, [p.to_dict() for p in prof.profiles], prof.traces


def _pool_task(point_fn, index: int, params: dict, seed: int,
               scale: str, profile: bool, attribution: bool = False,
               live=None, exp_name: str = "", beat_queue=None):
    """Worker-side wrapper: never raises — failures come back as data.

    With live telemetry on, the worker writes its point's series file
    itself (one writer per file) and ships rate-limited ``window``
    heartbeats to the parent over ``beat_queue``.
    """
    try:
        sender = None
        if live is not None:        # run_experiment passes a queue
            sender = HeartbeatSender(beat_queue.put,
                                     min_interval=live.heartbeat_interval)
        sampling = _sampling_config(live, exp_name, index, sender)
        rows, docs, _ = _execute_point(point_fn, params, seed, scale,
                                       profile, trace=False,
                                       attribution=attribution,
                                       sampling=sampling)
        return (index, rows, docs, None, None, os.getpid())
    except BaseException as exc:                    # noqa: BLE001
        return (index, None, [], f"{type(exc).__name__}: {exc}",
                traceback.format_exc(), os.getpid())


def spawn_executor(jobs: int) -> ProcessPoolExecutor:
    """A spawn-context pool (fork would duplicate live sim state)."""
    return ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=multiprocessing.get_context("spawn"))


def resolve_jobs(jobs: int) -> int:
    """``0`` means "one worker per core"."""
    return jobs if jobs > 0 else (os.cpu_count() or 1)


def run_experiment(exp: Experiment, *, scale: str = "quick",
                   jobs: int = 1, options: Optional[dict] = None,
                   instrument: Optional[Instrumentation] = None,
                   base_seed: int = DEFAULT_BASE_SEED,
                   progress: Optional[bool] = None,
                   executor: Optional[ProcessPoolExecutor] = None
                   ) -> RunReport:
    """Run every grid point of ``exp``; return a :class:`RunReport`.

    ``jobs=1`` runs in-process; ``jobs>1`` fans points out over a
    spawn pool (pass ``executor`` to share one pool across several
    experiments — spawn startup is paid once).  ``options`` are
    filtered against ``exp.options`` before reaching the grid, so
    harness-wide flags (``--eviction-policy``) can be offered to every
    experiment and only land where declared.

    ``instrument`` (an :class:`Instrumentation`) bundles every
    observation switch: profiling, tracing, cycle attribution, and
    live telemetry.  ``attribution`` and ``live`` imply profiling.
    """
    if instrument is None:
        instrument = Instrumentation.off()
    trace = instrument.trace
    attribution = instrument.attribution
    live = instrument.live
    started = time.time()
    profile = (instrument.profile or attribution
               or (live is not None))
    jobs = resolve_jobs(jobs)
    opts = {k: v for k, v in (options or {}).items()
            if k in exp.options and v is not None}
    grid = exp.grid(scale, **opts)
    result = exp.new_result(scale)
    outcomes: list = [None] * len(grid)
    renderer = HeartbeatRenderer(
        show=_progress_enabled(progress),
        live_dir=live.live_dir if live is not None else None)
    renderer.handle(make_heartbeat("start", exp.name,
                                   points=len(grid), jobs=jobs,
                                   scale=scale))

    if jobs == 1 and executor is None:
        in_process_trace = profile if trace is None else trace
        sender = (HeartbeatSender(renderer.handle,
                                  min_interval=live.heartbeat_interval)
                  if live is not None else None)
        for i, params in enumerate(grid):
            seed = point_seed(exp.name, i, params, base_seed)
            out = PointOutcome(index=i, params=params, seed=seed,
                               worker_pid=os.getpid())
            try:
                out.rows, out.profiles, out.tracers = _execute_point(
                    exp.point, params, seed, scale, profile,
                    trace=in_process_trace, attribution=attribution,
                    sampling=_sampling_config(live, exp.name, i,
                                              sender))
            except Exception as exc:
                out.error = f"{type(exc).__name__}: {exc}"
                out.traceback = traceback.format_exc()
            outcomes[i] = out
            renderer.handle(make_heartbeat(
                "point_done", exp.name, point=i,
                ok=out.error is None))
    else:
        own_pool = executor is None
        pool = executor if executor is not None else spawn_executor(jobs)
        manager = None
        beat_queue = None
        if live is not None:
            # Spawn-safe heartbeat channel: a manager-proxy queue is
            # picklable, so workers can push window beats mid-point
            # (an executor's own result pipe only speaks at task end).
            manager = multiprocessing.get_context("spawn").Manager()
            beat_queue = manager.Queue()
        try:
            futures = {}
            for i, params in enumerate(grid):
                seed = point_seed(exp.name, i, params, base_seed)
                futures[pool.submit(_pool_task, exp.point, i, params,
                                    seed, scale, profile, attribution,
                                    live, exp.name,
                                    beat_queue)] = (i, params, seed)
            from concurrent.futures import FIRST_COMPLETED, wait
            pending = set(futures)
            while pending:
                # Short timeout so mid-point heartbeats render live;
                # without a queue, block until a point finishes.
                finished, pending = wait(
                    pending,
                    timeout=0.1 if beat_queue is not None else None,
                    return_when=FIRST_COMPLETED)
                _drain_beats(beat_queue, renderer)
                for fut in finished:
                    i, params, seed = futures[fut]
                    index, rows, docs, error, tb, pid = fut.result()
                    outcomes[index] = PointOutcome(
                        index=index, params=params, seed=seed,
                        rows=rows, error=error, traceback=tb,
                        profiles=docs, worker_pid=pid)
                    renderer.handle(make_heartbeat(
                        "point_done", exp.name, point=index,
                        ok=error is None, worker=pid))
            _drain_beats(beat_queue, renderer)
        finally:
            if own_pool:
                pool.shutdown()
            if manager is not None:
                manager.shutdown()
    renderer.handle(make_heartbeat("run_done", exp.name,
                                   points=len(grid)))

    rows: list = []
    profiles: list = []
    tracers: list = []
    for out in outcomes:
        if out.error is not None:
            result.errors.append({
                "params": out.params, "error": out.error,
                "traceback": out.traceback, "seed": out.seed,
            })
            continue
        rows.extend(out.rows)
        profiles.extend(out.profiles)
        tracers.extend(out.tracers)
    result.rows = exp.fold(rows, scale) if exp.fold else rows

    merged = None
    if profile and profiles:
        # Re-index in deterministic grid order (worker-local indices
        # all start at zero) before merging.
        for index, doc in enumerate(profiles):
            doc["index"] = index
        tracers.extend([None] * (len(profiles) - len(tracers)))
        from repro.telemetry import merge_profiles
        merged = merge_profiles(
            profiles, name=f"{exp.name} suite",
            workers={
                "count": len({o.worker_pid for o in outcomes
                              if o is not None}),
                "jobs": jobs,
                "points": len(grid),
                "launches": len(profiles),
                "errors": len(result.errors),
            })
    return RunReport(result=result, outcomes=outcomes,
                     profiles=profiles, tracers=tracers, merged=merged,
                     jobs=jobs, elapsed=time.time() - started)


def run_named(name: str, **kwargs) -> RunReport:
    """Run a registered experiment by id (imports the registry)."""
    import repro.harness.experiments  # noqa: F401  (populates REGISTRY)
    from repro.harness.registry import REGISTRY
    return run_experiment(REGISTRY[name], **kwargs)


# ----------------------------------------------------------------------
# Progress (stderr, terminals only unless forced) — the line itself is
# drawn by the HeartbeatRenderer, the single stderr writer.
# ----------------------------------------------------------------------
def _progress_enabled(progress: Optional[bool]) -> bool:
    if progress is not None:
        return progress
    return bool(getattr(sys.stderr, "isatty", lambda: False)())


def _drain_beats(beat_queue, renderer: HeartbeatRenderer) -> None:
    """Feed every queued worker heartbeat to the parent's renderer."""
    if beat_queue is None:
        return
    while True:
        try:
            beat = beat_queue.get_nowait()
        except Empty:
            return
        renderer.handle(beat)
