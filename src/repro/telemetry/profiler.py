"""The per-launch profiler and its activation context.

``with capture() as prof:`` activates a :class:`Profiler` for every
launch in the block, and instrumented constructors (``AVM``,
``GPUfs``) register their counters with it automatically.  It is the
only way to observe a launch, and what ``repro-experiments
--profile-dir`` uses: experiments need no changes.

Each launch appends one :class:`~repro.telemetry.profile.LaunchProfile`
to ``prof.profiles`` and (up to ``max_traces``) one execution trace to
``prof.traces``; :meth:`Profiler.write` serialises both to a directory.
"""

from __future__ import annotations

import contextlib
import json
import os
import re

from repro.telemetry import hooks
from repro.telemetry.profile import LaunchProfile, MetricsRegistry
from repro.telemetry.timeseries import TimeseriesSampler


class Profiler:
    """Collects one :class:`LaunchProfile` per launch it observes."""

    def __init__(self, trace: bool = True, max_traces: int = 8,
                 max_trace_events: int = 200_000,
                 attribution: bool = False,
                 timeseries: bool = False,
                 window_cycles: float | None = None,
                 series_sink=None):
        self.registry = MetricsRegistry()
        self.profiles: list[LaunchProfile] = []
        self.traces: list = []           # parallel to profiles; None ok
        self.trace = trace
        self.max_traces = max_traces
        self.max_trace_events = max_trace_events
        # Summarise cycle attribution per traced launch in
        # ``components.attribution``.  Off by default: the summary
        # walks the whole event list.
        self.attribution = attribution
        # Cycle-window sampling (repro.telemetry.timeseries).  Off by
        # default: launches get a plain profile and pay only the
        # engine's ``is not None`` pointer test per event for the
        # window roll.  ``series_sink`` is called with each window
        # record as it closes (streaming export); the profile carries
        # the series either way.
        self.timeseries = timeseries
        self.window_cycles = window_cycles
        self.series_sink = series_sink
        self.gauges: list = []           # (name, fn) pairs

    # ------------------------------------------------------------------
    def register(self, kind: str, stats) -> None:
        """Attach a component stats object (idempotent per object)."""
        self.registry.register(kind, stats)

    def register_gauge(self, name: str, fn) -> None:
        """Attach an instantaneous-level probe (``fn()`` -> number),
        read by the time-series sampler at each window close.  Several
        registrations under one name sum (e.g. frames in use across
        two GPUfs instances)."""
        self.gauges.append((name, fn))

    # ------------------------------------------------------------------
    def record_launch(self, *, device, cfg, occ,
                      engine) -> LaunchProfile:
        """Reduce one finished launch to a :class:`LaunchProfile`, keep
        it and return it; the engine's observer came from this
        profiler's :meth:`~repro.telemetry.hooks.ObserverPlan.of`."""
        spec = device.spec
        stats = engine.stats
        cycles = stats.cycles
        prof = engine.profile
        tracer = prof.tracer
        seconds = spec.cycles_to_seconds(cycles)
        sms = [{
            "sm": sm,
            "busy_cycles": busy,
            "idle_cycles": max(cycles - busy, 0.0),
            "utilization": busy / cycles if cycles else 0.0,
        } for sm, busy in enumerate(prof.sm_busy)]
        total_sms = max(len(sms), 1)
        dram_accesses = prof.dram_queued_accesses
        profile = LaunchProfile(
            index=len(self.profiles),
            name=getattr(cfg.kernel, "__name__", "kernel"),
            spec={
                "name": spec.name,
                "num_sms": spec.num_sms,
                "clock_hz": spec.clock_hz,
                "warp_size": spec.warp_size,
            },
            launch={
                "grid": cfg.grid,
                "block_threads": cfg.block_threads,
                "blocks_per_sm": occ.blocks_per_sm,
                "cycles": cycles,
                "seconds": seconds,
            },
            engine=_engine_dict(stats),
            issue={
                "slot_utilization": (stats.issue_busy
                                     / (cycles * total_sms)
                                     if cycles else 0.0),
                "instructions_per_cycle": (stats.instructions / cycles
                                           if cycles else 0.0),
            },
            sms=sms,
            dram={
                "bytes": stats.dram_bytes,
                "transactions": stats.dram_transactions,
                "bandwidth_gbs": stats.dram_bandwidth(spec) / 1e9,
                "occupancy": (stats.dram_busy / cycles
                              if cycles else 0.0),
                "queue_cycles": prof.dram_queue_cycles,
                "queued_accesses": dram_accesses,
                "mean_queue_cycles": (prof.dram_queue_cycles
                                      / dram_accesses
                                      if dram_accesses else 0.0),
            },
            pcie={
                "bytes": stats.pcie_bytes,
                "transactions": stats.pcie_transactions,
                "busy_cycles": stats.pcie_busy,
                "occupancy": (stats.pcie_busy / cycles
                              if cycles else 0.0),
            },
            stalls=dict(prof.stalls),
            components=_merge_components(self.registry.collect()),
            trace=({"events": len(tracer.rows),
                    "dropped": tracer.dropped}
                   if tracer is not None else None),
        )
        if isinstance(prof, TimeseriesSampler):
            profile.components["timeseries"] = prof.to_component()
        if tracer is not None:
            from repro.telemetry.spans import spans_component
            profile.components["spans"] = spans_component(tracer.rows)
        if self.attribution and tracer is not None \
                and not tracer.dropped:
            # A truncated trace is not attributed: the profile keeps
            # the zeroed section with ``attributed == 0``.  The profile
            # stores only the summary; ``repro-obs attr`` computes the
            # full report from the trace.
            from repro.telemetry.attribution import summarize_events
            profile.components["attribution"] = summarize_events(
                tracer.rows, launch_cycles=cycles)
        self.profiles.append(profile)
        self.traces.append(tracer)
        return profile

    # ------------------------------------------------------------------
    @property
    def last(self) -> LaunchProfile | None:
        return self.profiles[-1] if self.profiles else None

    def longest(self) -> LaunchProfile | None:
        """The launch that dominated wall time — usually the one worth
        looking at first."""
        if not self.profiles:
            return None
        return max(self.profiles, key=lambda p: p.cycles)

    def write(self, directory) -> list[str]:
        """Write one profile JSON (and trace JSON, when held) per
        launch; returns the paths written."""
        return write_profile_docs(
            directory, [profile.to_dict() for profile in self.profiles],
            self.traces)


def write_profile_docs(directory, docs, tracers=None) -> list[str]:
    """Write already-serialised profile documents (and, when held,
    their tracers) to ``directory``; returns the paths written.

    :meth:`Profiler.write` passes its own documents and traces; the
    parallel runner passes the ``LaunchProfile.to_dict()`` documents
    its spawn workers ship back.  ``tracers`` is an optional parallel
    list; entries are ``None`` for launches whose trace stayed in the
    worker.  A trace's clock is its profile's recorded ``clock_hz``.
    """
    os.makedirs(directory, exist_ok=True)
    tracers = tracers or []
    written = []
    for i, doc in enumerate(docs):
        slug = re.sub(r"[^A-Za-z0-9_.-]", "_", doc["name"])
        stem = f"{doc['index']:03d}-{slug}"
        path = os.path.join(directory, f"profile-{stem}.json")
        with open(path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
        written.append(path)
        tracer = tracers[i] if i < len(tracers) else None
        if tracer is not None and tracer.rows:
            tpath = os.path.join(directory, f"trace-{stem}.json")
            with open(tpath, "w") as f:
                json.dump(tracer.to_chrome_trace(
                    _Clock(doc["spec"]["clock_hz"])), f)
            written.append(tpath)
    return written


def _merge_components(collected: dict) -> dict:
    """Overlay collected counters on zeroed translation/paging sections.

    A launch that never touched the translation or paging layers still
    gets those sections (all zero), so the profile schema is stable —
    consumers can always read ``translation.tlb_hit_rate`` and
    ``paging.minor_faults``.  Imported lazily: by record time the stack
    is loaded, and module level would be circular (core/paging import
    telemetry's hooks).
    """
    from repro.analysis.sanitizer import SanitizerStats
    from repro.core.metrics import APStats
    from repro.paging.gpufs import PagingStats
    from repro.readahead import ReadaheadStats
    from repro.syscalls import SyscallStats
    from repro.telemetry.attribution import AttributionReport
    from repro.telemetry.profile import _numeric_fields

    components = {
        "translation": dict(_numeric_fields(APStats()),
                            tlb_hit_rate=0.0),
        "paging": _numeric_fields(PagingStats()),
        "syscalls": _numeric_fields(SyscallStats()),
        "readahead": dict(_numeric_fields(ReadaheadStats()),
                          hit_rate=0.0),
        "sanitizer": _numeric_fields(SanitizerStats()),
        "attribution": dict(AttributionReport().to_component(),
                            attributed=0),
        "timeseries": {
            "enabled": 0,
            "window_cycles": 0.0,
            "windows": 0,
            "dropped_windows": 0,
            "series": [],
        },
        "spans": {
            "requests": 0,
            "spans": 0,
            "span_cycles": 0.0,
        },
    }
    for kind, counters in collected.items():
        components.setdefault(kind, {}).update(counters)
    return components


class _Clock:
    """Minimal spec stand-in for trace export (cycles -> us)."""

    def __init__(self, clock_hz: float):
        self.clock_hz = clock_hz


def _engine_dict(stats) -> dict:
    out = {}
    for key, value in vars(stats).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value
    return out


@contextlib.contextmanager
def capture(**kwargs):
    """Activate a :class:`Profiler` for every launch in the block::

        with capture() as prof:
            run_memcpy(device, use_apointers=True, width=4)
        prof.write("/tmp/profiles")
    """
    profiler = Profiler(**kwargs)
    hooks.push(profiler)
    try:
        yield profiler
    finally:
        hooks.pop(profiler)
