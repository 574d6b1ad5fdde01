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


class _Kinds(dict):
    """Request type -> trace kind, its lowercase name, made once."""

    def __missing__(self, cls) -> str:
        kind = self[cls] = cls.__name__.lower()
        return kind


_KINDS = _Kinds()


@dataclass
class EngineProfile:
    """The engine's one observer: deep per-launch counters, plus the
    execution trace's attribution overlay when a ``tracer`` rides along.

    The engine feeds it behind one ``is not None`` guard per handler
    site, so an unobserved launch pays one pointer test per dispatched
    request and nothing else.  A memory request is one :meth:`mem` call
    and a compute block one :meth:`compute` call, carrying every time
    the engine computed for it; the other requests come through
    :meth:`op`, :meth:`issue`, :meth:`stall`, :meth:`grant` and
    :meth:`pcie`.  The profile keeps launch totals through the counting
    hooks (:meth:`_count_issue`, :meth:`_count_stall`, :meth:`dram`);
    the tracer, when set, gets the intervals as rows.  The time-series
    sampler (:mod:`repro.telemetry.timeseries`) subclasses this to also
    bucket the counted events into cycle windows (and defines
    :attr:`advance`, the per-event window roll); it overrides only the
    counting hooks.

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
    #: Translation ``detail`` text per distinct ``(iss, lat, hid)``.
    #: Keyed by value, so ``-0.0`` would share ``0.0``'s text; the
    #: decomposition's terms are differences of ordered times and
    #: products of non-negative chain lengths, never ``-0.0``.
    _details: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    #: ``advance(now)`` closes the windows that ended before event
    #: time ``now``; ``None`` for a profile that does not window.
    advance = None

    #: The units of the translation decomposition (:meth:`bind`).
    _dep = 0.0
    _issue_rate = 1.0

    @classmethod
    def for_sms(cls, total_sms: int, tracer=None) -> "EngineProfile":
        return cls(sm_busy=[0.0] * total_sms, tracer=tracer)

    # -- engine-facing hooks -------------------------------------------
    def bind(self, dependent_issue_cycles: float,
             issue_rate: float) -> None:
        """The engine observed: its cycles per dependent instruction
        and its warp instructions issued per cycle."""
        self._dep = dependent_issue_cycles
        self._issue_rate = issue_rate

    def mem(self, runner, req, sm: int, now: float, start: float,
            issue_time: float, issued: float, pre_done: float,
            dram_avail: float, dram_start: float, busy: float,
            nbytes: int, data_ready, ready, overlap_done,
            resume: float) -> None:
        """Memory request ``req`` of warp ``runner`` on ``sm``, in the
        engine's times: queued for the issue server ``now``→``start``,
        issuing for ``issue_time`` cycles to ``issued``, its serial
        pre-chain done at ``pre_done``; the DRAM server, free from
        ``dram_avail``, served ``nbytes`` from ``dram_start`` for
        ``busy`` cycles; data at ``data_ready`` (``None`` for a store);
        a blocking load's overlap chain done at ``overlap_done`` and the
        load ready at ``ready`` (both ``None`` otherwise); the warp
        resumed at ``resume``."""
        if start > now:
            self._count_stall("issue_queue", start, start - now)
        self._count_issue(sm, start, issue_time, req.count + 1)
        self.dram(dram_start, nbytes, req.transactions, busy,
                  dram_start - pre_done)
        if ready is not None:
            self._count_stall("memory", resume, ready - issued)
        tracer = self.tracer
        if tracer is None:
            return
        rows = tracer.rows
        # Rows go through the cap one at a time only near it.
        add = (rows.append if len(rows) + 5 <= tracer.max_events
               else lambda row: tracer.record(*row))
        warp = runner.warp_id
        block = runner.block.block_id
        if start > now:
            add((warp, block, "stall", now, start, "issue_queue", sm, ""))
        if issued > start:
            add((warp, block, "issue", start, issued, "", sm, ""))
        if data_ready is not None:
            add((warp, block, _KINDS[type(req)], start, data_ready, "",
                 sm, ""))
        if resume > issued:
            add((warp, block, "stall", issued, resume,
                 req.tag or ("memory" if ready is not None
                             else "exec_dependency"), sm, ""))
        tr = req.translation_charge
        chains = req.chain_tag == "translation"
        if tr is None and not chains:
            return
        # The translation counterfactual: where the access would have
        # started (blocking) or the warp resumed (otherwise) with the
        # translation pre-chain removed, still bounded by queueing.
        # ``b if b < a else a`` is ``min(a, b)``'s own pick (``>`` for
        # ``max``): docs/engine.md, "Fast paths".
        tr_cnt, tr_chain = tr if tr is not None else (0.0, 0.0)
        dep = self._dep
        chain = req.chain
        pre = (chain if chain < tr_chain else tr_chain) * dep
        floor = pre_done - pre
        if ready is not None:
            pre_x = dram_start - (dram_avail if dram_avail > floor
                                  else floor)
            if chains:
                ov = req.overlap_chain * dep
                late = overlap_done - data_ready
                late = late if late > 0.0 else 0.0
                ov_x = late if late < ov else ov
                post_x = req.post_chain * dep
            else:
                ov = ov_x = post_x = 0.0
            lat = pre_x + ov_x + post_x
            hid = (pre - pre_x) + (ov - ov_x)
        else:
            pre_x = resume - (issued if issued > floor else floor)
            lat, hid = pre_x, pre - pre_x
        iss = tr_cnt / self._issue_rate
        if iss > 0 or lat > 0 or hid > 0:
            key = (iss, lat, hid)
            add((warp, block, "translation", start,
                 start if start > resume else resume,
                 self._details.get(key) or self._detail(key), sm, ""))

    def compute(self, runner, req, sm: int, now: float, start: float,
                issue_time: float, issued: float, latency: float,
                done: float) -> None:
        """Compute block ``req`` of warp ``runner`` on ``sm``, in the
        engine's times: queued for the issue server ``now``→``start``,
        issuing for ``issue_time`` cycles to ``issued``, done at
        ``done`` after its ``latency``."""
        if start > now:
            self._count_stall("issue_queue", start, start - now)
        self._count_issue(sm, start, issue_time, req.count)
        self._count_stall("exec_dependency", done, latency - issue_time)
        tracer = self.tracer
        if tracer is None:
            return
        rows = tracer.rows
        # Rows go through the cap one at a time only near it.
        add = (rows.append if len(rows) + 5 <= tracer.max_events
               else lambda row: tracer.record(*row))
        warp = runner.warp_id
        block = runner.block.block_id
        add((warp, block, _KINDS[type(req)], start, done, "", sm, ""))
        if start > now:
            add((warp, block, "stall", now, start, "issue_queue", sm, ""))
        if issued > start:
            add((warp, block, "issue", start, issued, "", sm, ""))
        if done > issued:
            add((warp, block, "stall", issued, done,
                 req.tag or "exec_dependency", sm, ""))
        # Requests carry the pair only while a trace is recorded.
        tr = req.translation_charge
        if tr is not None:
            # Where the block would end with the translation chain
            # removed from its latency (picks as in :meth:`mem`).
            chain = req.chain_length()
            pre = (chain if chain < tr[1] else tr[1]) * self._dep
            busy = latency - pre
            busy = busy if busy > issue_time else issue_time
            pre_x = done - (start + busy)
            iss = tr[0] / self._issue_rate
            if iss > 0 or pre_x > 0 or pre - pre_x > 0:
                key = (iss, pre_x, pre - pre_x)
                add((warp, block, "translation", start,
                     start if start > done else done,
                     self._details.get(key) or self._detail(key), sm,
                     ""))

    def op(self, runner, req, start: float, end: float) -> None:
        """Macro-op ``req`` of warp ``runner`` ran ``start``→``end``
        (traced only)."""
        if self.tracer is not None:
            self._record(runner, _KINDS[type(req)], start, end)

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
                           end, detail, block.sm_index)

    def _detail(self, key: tuple) -> str:
        """The ``detail`` text of a translation row, ``key`` being the
        request's ``(iss, lat, hid)``: ``iss`` issue slots consumed,
        ``lat`` warp-visible latency the translation chains added
        (exposed at warp level), ``hid`` chain cycles absorbed by the
        memory bubble or bandwidth queue (hidden even at warp level).
        The analyzer reclassifies ``iss``/``lat`` at launch level using
        concurrent-warp overlap.  Formatted once per distinct key."""
        # %-formatting: the same ``.6g`` text as an f-string, at about
        # half the cost.
        detail = self._details[key] = "iss=%.6g;lat=%.6g;hid=%.6g" % key
        return detail

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
