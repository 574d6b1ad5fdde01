"""Execution tracing for the simulated GPU.

A :class:`Tracer` on a captured launch records one record per
completed macro-op — which warp, what kind of request, when it started and
finished, and what resource it used.  Useful for debugging timing
anomalies ("why is this kernel latency-bound?") and for asserting
scheduling properties in tests.

Beyond the engine's macro-ops, the paging and translation layers record
*spans* through :meth:`repro.gpu.kernel.WarpContext.trace_span` — page
fetches, fault-filter transforms, warp-level fault handling — so a
timeline shows faults, not just loads.

Usage::

    with capture(max_traces=1) as prof:        # repro.telemetry
        device.launch(kernel, grid=1, block_threads=64)
    tracer = prof.traces[0]
    print(render_timeline(tracer, width=72))
    tracer.summary()
    json.dump(tracer.to_chrome_trace(device.spec), open("t.json", "w"))

The Chrome-trace export loads in ``chrome://tracing`` and in Perfetto
(https://ui.perfetto.dev): one process per SM, one thread track per
warp.  Tracing costs Python time, so it is off unless a tracing
profiler is capturing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional


@dataclass(slots=True)
class TraceEvent:
    """One completed macro-op or layer-level span.

    A plain (not frozen) dataclass: a frozen ``__init__`` costs about
    four times as much per record, and nothing mutates or hashes events.
    Slotted, so a record keeps its fields in fixed slots and carries no
    attribute dictionary: record size matters at the tracer's
    200 000-event cap.
    """

    warp: int              # global warp id (block * warps + warp)
    block: int
    kind: str              # request class name, lowercased, or span name
    start: float
    end: float
    detail: str = ""
    sm: int = -1           # SM the warp was resident on (-1 = unknown)
    #: Causal request id ('' = none): minted at warp fault / syscall
    #: entry (:meth:`repro.gpu.kernel.WarpContext.begin_request`) and
    #: stamped on every span recorded while the request is open, so the
    #: translation loop, GPUfs fault handling, readahead, and the
    #: PCIe/staging transfer of one logical request share one id.
    #: Format ``"<device>:<warp>:<seq>"`` — deterministic, never wall
    #: clock.  ``repro-obs spans`` reconstructs request trees from it.
    req: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


#: Span kinds emitted by the paging / translation layers (as opposed to
#: the engine's macro-op kinds).  Used to categorise Chrome-trace events.
PAGING_SPAN_KINDS = frozenset({
    "minor_fault", "major_fault", "page_in", "page_out",
    "filter_in", "filter_out", "translation_fault", "pcie_staging",
})

#: Event kinds recorded for the cycle-attribution analyzer
#: (:mod:`repro.telemetry.attribution`): per-warp non-issuing intervals
#: ("stall", reason in detail), issue-server occupancy ("issue"), and
#: per-request translation decompositions ("translation").  They overlap
#: the macro-op events, so timeline rendering skips them.
ATTRIBUTION_KINDS = frozenset({"stall", "issue", "translation"})

#: Event kind recorded by the time-series sampler
#: (:mod:`repro.telemetry.timeseries`): one named sample per window,
#: exported as a Chrome ``"C"`` (counter) event so Perfetto renders a
#: counter track next to the span timeline.
COUNTER_KIND = "counter"


class Tracer:
    """Collects one launch's trace.

    The store is :attr:`rows`: plain tuples in :class:`TraceEvent`
    field order ``(warp, block, kind, start, end, detail, sm, req)``.
    The reducers (launch profile, spans, attribution) read the rows;
    :attr:`events` is the same trace as :class:`TraceEvent` objects,
    for reports, exports and tests.

    At most ``max_events`` rows are kept; every record past the cap is
    dropped and counted in :attr:`dropped`, one at a time.
    """

    def __init__(self, max_events: int = 200_000):
        self.max_events = max_events
        self.rows: list[tuple] = []
        self.dropped = 0
        self._view: list[TraceEvent] = []

    def record(self, warp: int, block: int, kind: str, start: float,
               end: float, detail: str = "", sm: int = -1,
               req: str = "") -> None:
        rows = self.rows
        if len(rows) < self.max_events:
            rows.append((warp, block, kind, start, end, detail, sm, req))
        else:
            self.dropped += 1

    def record_counter(self, name: str, t: float, value: float) -> None:
        """Record one named counter sample at time ``t`` (a point, not
        a span) — the time-series sampler mirrors each closed window
        onto these.  Exported as Chrome ``"C"`` events."""
        self.record(0, -1, COUNTER_KIND, t, t,
                    f"{name}={value:.12g}")

    @property
    def events(self) -> list[TraceEvent]:
        """The rows as :class:`TraceEvent` objects: a read-only view,
        built on first access and rebuilt once more rows have been
        recorded.  Edit the trace through :meth:`record`, not here."""
        if len(self._view) != len(self.rows):
            self._view = [TraceEvent(*row) for row in self.rows]
        return self._view

    # ------------------------------------------------------------------
    def by_kind(self) -> dict:
        """Total busy time and count per event kind."""
        totals: dict[str, list] = {}
        for e in self.events:
            slot = totals.setdefault(e.kind, [0, 0.0])
            slot[0] += 1
            slot[1] += e.duration
        return {k: {"count": c, "cycles": t}
                for k, (c, t) in sorted(totals.items())}

    def warps(self) -> list[int]:
        return sorted({e.warp for e in self.events})

    def for_warp(self, warp: int) -> list[TraceEvent]:
        return [e for e in self.events if e.warp == warp]

    def span(self) -> tuple[float, float]:
        """``(first start, last end)`` over the timed events.  Counter
        samples are skipped: a window's sample sits at its ``t1``,
        which may lie past the launch end."""
        timed = [e for e in self.events if e.kind != COUNTER_KIND]
        if not timed:
            return (0.0, 0.0)
        return (min(e.start for e in timed), max(e.end for e in timed))

    def summary(self) -> str:
        lines = [f"{len(self.events)} events"
                 + (f" ({self.dropped} dropped)" if self.dropped else "")]
        for kind, agg in self.by_kind().items():
            lines.append(f"  {kind:12s} x{agg['count']:<6d} "
                         f"{agg['cycles']:12.0f} cycles")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_chrome_trace(self, spec=None) -> dict:
        """Export as a Chrome ``trace_event`` JSON object.

        One process per SM, one thread track per warp; paging spans are
        categorised ``paging`` so Perfetto can colour them separately.
        With a :class:`~repro.gpu.specs.GPUSpec`, timestamps convert to
        microseconds of simulated time; without one they stay in cycles
        (still loadable — the units are just unlabelled).
        """
        scale = 1e6 / spec.clock_hz if spec is not None else 1.0
        pids = sorted({e.sm for e in self.events})
        meta: list[dict] = []
        for sm in pids:
            pid = sm + 1
            name = f"SM {sm}" if sm >= 0 else "GPU"
            meta.append({"ph": "M", "name": "process_name", "pid": pid,
                         "tid": 0, "args": {"name": name}})
        seen_tracks = set()
        for e in self.events:
            if e.kind == COUNTER_KIND:
                continue           # counter tracks are named, not warps
            key = (e.sm + 1, e.warp)
            if key not in seen_tracks:
                seen_tracks.add(key)
                meta.append({"ph": "M", "name": "thread_name",
                             "pid": key[0], "tid": e.warp,
                             "args": {"name": f"warp {e.warp}"}})
        spans = []
        for e in sorted(self.events, key=lambda e: (e.start, e.end)):
            if e.kind == COUNTER_KIND:
                name, _, value = e.detail.partition("=")
                spans.append({
                    "name": name,
                    "cat": "timeseries",
                    "ph": "C",
                    "ts": e.start * scale,
                    "pid": e.sm + 1,
                    "tid": 0,
                    "args": {"value": float(value or 0.0)},
                })
                continue
            args: dict = {"block": e.block}
            if e.detail:
                args["detail"] = e.detail
            if e.req:
                args["req"] = e.req
            if e.kind in PAGING_SPAN_KINDS:
                cat = "paging"
            elif e.kind in ATTRIBUTION_KINDS:
                cat = "attribution"
            else:
                cat = "engine"
            spans.append({
                "name": e.kind,
                "cat": cat,
                "ph": "X",
                "ts": e.start * scale,
                "dur": e.duration * scale,
                "pid": e.sm + 1,
                "tid": e.warp,
                "args": args,
            })
        trace = {
            "traceEvents": meta + spans,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.telemetry",
                "events": len(self.events),
                "dropped": self.dropped,
                "time_unit": "us" if spec is not None else "cycles",
                "clock_hz": spec.clock_hz if spec is not None else None,
            },
        }
        return trace


def as_rows(records: Iterable) -> list:
    """``records`` as trace rows: a list of rows as it is, and
    :class:`TraceEvent` objects (hand-built traces, read-backs) turned
    into rows once."""
    if not isinstance(records, list):
        records = list(records)
    if records and type(records[0]) is not tuple:
        return [(e.warp, e.block, e.kind, e.start, e.end, e.detail, e.sm,
                 e.req) for e in records]
    return records


def rows_from_chrome_trace(trace: dict) -> tuple[list[tuple], int]:
    """Invert :meth:`Tracer.to_chrome_trace`: rebuild the trace rows (in
    cycles) from an exported Chrome-trace dict.

    Returns ``(rows, dropped)`` where ``dropped`` is the recorded
    overflow count.  Raises :class:`ValueError` if the dict was exported
    in microseconds but carries no ``clock_hz`` to convert back.
    """
    other = trace.get("otherData", {})
    unit = other.get("time_unit", "cycles")
    if unit == "cycles":
        scale = 1.0
    else:
        clock_hz = other.get("clock_hz")
        if not clock_hz:
            raise ValueError(
                "trace exported in microseconds without clock_hz; "
                "cannot convert timestamps back to cycles")
        scale = 1e6 / clock_hz
    rows = []
    for rec in trace.get("traceEvents", []):
        if rec.get("ph") == "C":
            t = rec["ts"] / scale
            value = rec.get("args", {}).get("value", 0.0)
            rows.append((0, -1, COUNTER_KIND, t, t,
                         f"{rec.get('name', '')}={value:.12g}",
                         int(rec.get("pid", 0)) - 1, ""))
            continue
        if rec.get("ph") != "X":
            continue
        args = rec.get("args", {})
        rows.append((
            int(rec.get("tid", 0)),
            int(args.get("block", -1)),
            str(rec.get("name", "")),
            rec["ts"] / scale,
            (rec["ts"] + rec.get("dur", 0.0)) / scale,
            str(args.get("detail", "")),
            int(rec.get("pid", 0)) - 1,
            str(args.get("req", "")),
        ))
    return rows, int(other.get("dropped", 0))


def events_from_chrome_trace(trace: dict) -> tuple[list[TraceEvent], int]:
    """:func:`rows_from_chrome_trace` as :class:`TraceEvent` objects."""
    rows, dropped = rows_from_chrome_trace(trace)
    return [TraceEvent(*row) for row in rows], dropped


_GLYPHS = {
    "compute": "#",
    "memaccess": "m",
    "scratchaccess": "s",
    "atomicop": "a",
    "acquirelock": "L",
    "pcietransfer": "P",
    "hostcompute": "H",
    "sleep": ".",
    "barrier": "|",
    "loadfence": "f",
}


def render_timeline(tracer: Tracer, width: int = 72,
                    warps: Optional[Iterable[int]] = None,
                    max_warps: int = 16) -> str:
    """ASCII timeline: one row per warp, one glyph per busy bucket.

    Each column is a time bucket; the glyph shows the kind of event
    that dominated the warp's busy time in that bucket (blank = idle).
    Without an explicit ``warps`` selection, at most ``max_warps`` rows
    render and a ``(+N more warps)`` footer reports the rest.
    """
    t0, t1 = tracer.span()
    if t1 <= t0:
        return "(empty trace)"
    bucket = (t1 - t0) / width
    all_warps = tracer.warps()
    if warps is not None:
        chosen = list(warps)
        hidden = 0
    else:
        chosen = all_warps[:max_warps]
        hidden = len(all_warps) - len(chosen)
    rows = [f"bucket_cycles={bucket:g} span=[{t0:g}, {t1:g}] "
            f"warps={len(all_warps)}"]
    for warp in chosen:
        busy: list[Counter] = [Counter() for _ in range(width)]
        for e in tracer.for_warp(warp):
            if e.kind in ATTRIBUTION_KINDS or e.kind == COUNTER_KIND:
                continue
            # An event ending exactly at the span end belongs to the
            # last bucket, not a phantom bucket `width`.
            lo = min(max(int((e.start - t0) / bucket), 0), width - 1)
            hi = min(int((e.end - t0) / bucket), width - 1)
            for b in range(lo, hi + 1):
                b_start = t0 + b * bucket
                b_end = b_start + bucket
                overlap = min(e.end, b_end) - max(e.start, b_start)
                if overlap > 0:
                    busy[b][e.kind] += overlap
        line = "".join(
            _GLYPHS.get(c.most_common(1)[0][0], "?") if c else " "
            for c in busy)
        rows.append(f"w{warp:<4d} {line}")
    legend = " ".join(f"{g}={k}" for k, g in _GLYPHS.items())
    rows.append(f"[{legend}]")
    if hidden > 0:
        rows.append(f"(+{hidden} more warps)")
    return "\n".join(rows)
