"""Telemetry's hooks into the simulator: the ambient profiler switch
and the engine's one observer.

The harness cannot thread a profiler argument through every experiment,
workload, and runner, so instrumented constructors (``AVM``, ``GPUfs``),
:meth:`Device.launch_cfg` and :func:`~repro.gpu.multigpu.launch_cluster`
ask this module for the *current* profiler instead.  It is the only way
a launch is observed.  When none is active — the default — ``current()``
returns ``None`` and every instrumentation site is a single pointer
test.

The stack discipline supports nesting (a profiled experiment launching
a sub-profiled region); :func:`repro.telemetry.capture` is the public
entry point.

:class:`EngineProfile` is the one instrumentation hook of
:class:`repro.gpu.engine.Engine`; :meth:`ObserverPlan.of` is the one
rule deciding, from a profiler, what every device launch and cluster
shard records.  The module imports nothing from the simulator at load
time, so the GPU layer can import it freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_STACK: list = []


def current():
    """The innermost active profiler, or ``None``."""
    return _STACK[-1] if _STACK else None


def push(profiler) -> None:
    _STACK.append(profiler)


def pop(profiler) -> None:
    if not _STACK or _STACK[-1] is not profiler:
        raise RuntimeError("profiler deactivation out of order")
    _STACK.pop()


def gauge(name: str, fn) -> None:
    """Register an instantaneous-level probe (``fn()`` -> number) with
    the current profiler, if one is active and supports gauges.  The
    time-series sampler reads every registered gauge at each window
    close; with no active profiler this is a no-op — the zero-cost-
    when-off rule applies to gauges too."""
    profiler = current()
    register = getattr(profiler, "register_gauge", None)
    if register is not None:
        register(name, fn)


@dataclass
class EngineProfile:
    """The engine's one observer: deep per-launch counters, plus the
    execution trace's attribution overlay when a ``tracer`` rides along.

    The engine feeds it through :meth:`op`, :meth:`issue`,
    :meth:`stall`, :meth:`grant`, :meth:`translation`, :meth:`dram`,
    :meth:`pcie`, :meth:`advance` and :meth:`finish`, behind one ``is
    not None`` guard per handler site, so an unobserved launch pays one
    pointer test per dispatched request and nothing else.  Each call
    carries the warp's runner and the whole interval; the profile keeps
    launch totals and ignores the event times, the tracer (when set)
    records the intervals.  The time-series sampler
    (:mod:`repro.telemetry.timeseries`) subclasses this to also bucket
    the counted events into cycle windows (and defines :attr:`advance`,
    the per-event window roll); it overrides only the counting hooks.

    * ``sm_busy`` — issue-server busy cycles per SM; idle is the launch
      span minus busy (the per-SM utilisation of the paper's Figure 6
      occupancy sweeps).
    * ``stalls`` — cycles warps spent not issuing, keyed by reason
      (``memory``, ``barrier``, ``lock``, ``atomic``, ``io``, ``spin``,
      ``issue_queue``, ``exec_dependency``, ``scratch``).
    * ``dram_queue_cycles`` — time memory accesses waited for the DRAM
      bandwidth server beyond their own issue/dependency chain, i.e.
      pure bandwidth contention.
    """

    sm_busy: list[float] = field(default_factory=list)
    stalls: dict[str, float] = field(default_factory=dict)
    dram_queue_cycles: float = 0.0
    dram_queued_accesses: int = 0
    #: Chrome-trace recorder (:class:`repro.gpu.trace.Tracer`) of the
    #: attribution overlay, or ``None``.
    tracer: object = field(default=None, repr=False, compare=False)

    #: ``advance(now)`` closes the windows that ended before event
    #: time ``now``; ``None`` for a profile that does not window.
    advance = None

    @classmethod
    def for_sms(cls, total_sms: int, tracer=None) -> "EngineProfile":
        return cls(sm_busy=[0.0] * total_sms, tracer=tracer)

    # -- engine-facing hooks -------------------------------------------
    def op(self, runner, req, start: float, end: float) -> None:
        """Macro-op ``req`` of warp ``runner`` ran ``start``→``end``
        (traced only)."""
        if self.tracer is not None:
            self._record(runner, type(req).__name__.lower(), start, end)

    def issue(self, runner, sm: int, now: float, start: float,
              cycles: float, count: float) -> None:
        """Warp ``runner`` queued for ``sm``'s issue server from ``now``
        to ``start``, then held it ``cycles`` issuing ``count``
        instructions."""
        if start > now:
            self._count_stall("issue_queue", start, start - now)
            if self.tracer is not None:
                self._record(runner, "stall", now, start, "issue_queue")
        self._count_issue(sm, start, cycles, count)
        if self.tracer is not None and start + cycles > start:
            self._record(runner, "issue", start, start + cycles)

    def stall(self, runner, req, reason: str, start: float, end: float,
              cycles: float) -> None:
        """Warp ``runner`` did not issue from ``start`` to ``end``.

        The profile counts ``cycles`` — the engine's own expression for
        the wait, ``0`` for one it does not count — under the mechanical
        ``reason`` at ``end``; the tracer records the interval under
        ``req``'s activity tag ("translation", "fault_wait", ...) when
        it has one.
        """
        self._count_stall(reason, end, cycles)
        if self.tracer is not None and end > start:
            self._record(runner, "stall", start, end,
                         reason if req is None else (req.tag or reason))

    def grant(self, runner, tag: str, enqueued: float, now: float,
              cost: float) -> None:
        """Warp ``runner`` got a lock at ``now`` after queueing since
        ``enqueued`` (``== now`` when uncontended); the acquire takes
        ``cost`` more.  The profile counts the queueing, ending at
        ``now``; the tracer records one stall from ``enqueued`` through
        the acquire, under ``tag`` or ``lock``."""
        self._count_stall("lock", now, now - enqueued)
        if self.tracer is not None and now + cost > enqueued:
            self._record(runner, "stall", enqueued, now + cost,
                         tag or "lock")

    def translation(self, runner, start: float, end: float, iss: float,
                    lat: float, hid: float) -> None:
        """The translation-cycle decomposition of one request (traced
        only): ``iss`` issue slots consumed, ``lat`` warp-visible
        latency the translation chains added (exposed at warp level),
        ``hid`` chain cycles absorbed by the memory bubble or bandwidth
        queue (hidden even at warp level).  The analyzer reclassifies
        ``iss``/``lat`` at launch level using concurrent-warp overlap."""
        if self.tracer is not None and (iss > 0 or lat > 0 or hid > 0):
            self._record(runner, "translation", start, max(end, start),
                         f"iss={iss:.6g};lat={lat:.6g};hid={hid:.6g}")

    def dram(self, start: float, nbytes: int, transactions: int,
             busy: float, queue_cycles: float) -> None:
        """One DRAM access starting at ``start`` after ``queue_cycles``
        of bandwidth queueing (bytes and busy time are in
        :class:`~repro.gpu.engine.EngineStats`)."""
        self.dram_queue_cycles += queue_cycles
        self.dram_queued_accesses += 1

    def pcie(self, start: float, nbytes: int, busy: float) -> None:
        """One PCIe transfer; its totals are in
        :class:`~repro.gpu.engine.EngineStats`."""

    def finish(self, total_cycles: float) -> None:
        """Launch over after ``total_cycles``; totals need no closing."""

    # -- counting hooks (the sampler overrides these) ------------------
    def _count_issue(self, sm: int, start: float, cycles: float,
                     count: float) -> None:
        self.sm_busy[sm] += cycles

    def _count_stall(self, reason: str, end: float, cycles: float) -> None:
        if cycles > 0:
            self.stalls[reason] = self.stalls.get(reason, 0.0) + cycles

    def _record(self, runner, kind: str, start: float, end: float,
                detail: str = "") -> None:
        block = runner.block
        self.tracer.record(runner.warp_id, block.block_id, kind, start,
                           end, detail, sm=block.sm_index)

    @classmethod
    def merged(cls, parts: list["EngineProfile"]) -> "EngineProfile":
        """Merge per-shard profiles: ``sm_busy`` concatenates in shard
        order (shard *i* owns device *i*'s SMs), stall buckets and DRAM
        queue counters sum."""
        out = cls()
        for part in parts:
            out.sm_busy.extend(part.sm_busy)
            for reason, cycles in part.stalls.items():
                out.stalls[reason] = out.stalls.get(reason, 0.0) + cycles
            out.dram_queue_cycles += part.dram_queue_cycles
            out.dram_queued_accesses += part.dram_queued_accesses
        return out


@dataclass(frozen=True)
class ObserverPlan:
    """What a profiler asks one launch's observer to record.

    :meth:`of` is the one rule turning a profiler into these settings:
    every launch is profiled, a launch gets a new tracer of
    ``trace_events`` events while the profiler holds fewer than
    ``max_traces`` traces, and sampling follows ``timeseries``.  A
    cluster decides it once and hands it to every shard.
    """

    trace_events: int
    timeseries: bool
    window_cycles: float | None

    @classmethod
    def of(cls, profiler) -> "ObserverPlan":
        trace = profiler.trace and len(profiler.traces) < profiler.max_traces
        return cls(trace_events=profiler.max_trace_events if trace else 0,
                   timeseries=profiler.timeseries,
                   window_cycles=profiler.window_cycles)

    def observer(self, num_sms: int, profiler=None):
        """A :class:`~repro.telemetry.timeseries.TimeseriesSampler` when
        sampling, else a plain :class:`EngineProfile`; either carries a
        new tracer when the plan traces.  A live ``profiler`` lends the
        sampler its sink, probes and gauges; a cluster shard gets
        none."""
        tracer = None
        if self.trace_events:
            from repro.gpu.trace import Tracer
            tracer = Tracer(max_events=self.trace_events)
        if not self.timeseries:
            return EngineProfile.for_sms(num_sms, tracer=tracer)
        from repro.telemetry.timeseries import (
            DEFAULT_WINDOW_CYCLES,
            TimeseriesSampler,
        )
        sink = probes = gauges = None
        if profiler is not None:
            sink, probes = profiler.series_sink, profiler.registry
            gauges = profiler.gauges
        return TimeseriesSampler(
            num_sms=num_sms,
            window_cycles=self.window_cycles or DEFAULT_WINDOW_CYCLES,
            sink=sink, tracer=tracer, probes=probes, gauges=gauges)
