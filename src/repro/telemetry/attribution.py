"""Cycle attribution: critical-path and latency-hiding analysis.

The engine records, when a tracer is attached, three overlay event kinds
on top of its macro-op trace (see ``ATTRIBUTION_KINDS`` in
:mod:`repro.gpu.trace`):

``issue``
    intervals in which a warp occupied its SM's issue server;

``stall``
    every non-issuing interval of a warp, tagged with its reason —
    either the activity that caused it ("translation", "tlb_miss",
    "fault_wait") or the mechanical resource it waited on ("memory",
    "io", "lock", "atomic", "issue_queue", "exec_dependency", ...);

``translation``
    per-request decompositions of apointer translation work, with a
    ``iss=..;lat=..;hid=..`` detail: issue slots consumed, warp-visible
    latency the translation chains added, and chain cycles already
    absorbed by the memory bubble at warp level.

This module reconstructs per-warp timelines from those events and
answers the paper's §VI-A question as a *measured* quantity: how much
translation work was hidden inside the memory-latency bubble, and how
much landed on the launch critical path?  Three views are produced:

* **per-warp accounting** — issue + hidden stall + exposed stall + idle
  for every warp, tiling the launch span exactly (a stall interval is
  *hidden* where some other warp on the same SM was issuing — the SM was
  doing useful work — and *exposed* where no warp issued);
* **launch critical path** — intervals with no concurrently-issuing
  warp on the SM, attributed to the stall reasons of the warps covering
  them (proportionally when several reasons overlap a gap);
* **translation hidden-vs-exposed** — warp-visible translation latency
  is reclassified at launch level: latency covered by other warps'
  issue intervals was free (the paper's free-computation bubble);
  issue slots contended by other warps (their ``issue_queue`` stalls
  overlap the event) were not.

Traces truncated by the :class:`~repro.gpu.trace.Tracer` event cap are
refused with :class:`TruncatedTraceError` — attribution over a partial
timeline would silently produce wrong numbers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.gpu.trace import (
    ATTRIBUTION_KINDS,
    TraceEvent,
    Tracer,
    events_from_chrome_trace,
)

__all__ = [
    "AttributionReport",
    "TranslationSplit",
    "TruncatedTraceError",
    "attribute_chrome_trace",
    "attribute_events",
    "attribute_tracer",
]


class TruncatedTraceError(RuntimeError):
    """The trace overflowed ``Tracer.max_events``; attribution refused.

    A truncated trace is missing an unknown suffix of every warp's
    timeline, so coverage fractions and the critical path would be
    systematically wrong rather than merely noisy.
    """


# ----------------------------------------------------------------------
# Interval helpers
# ----------------------------------------------------------------------
def _union(intervals: list) -> list:
    """Merge ``(start, end)`` pairs into a sorted disjoint list."""
    out: list = []
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1][1] = e
        else:
            out.append([s, e])
    return [(s, e) for s, e in out]


def _complement(union: list, t0: float, t1: float) -> list:
    """Gaps of a disjoint sorted ``union`` within ``[t0, t1]``."""
    gaps = []
    cursor = t0
    for s, e in union:
        if s > cursor:
            gaps.append((cursor, min(s, t1)))
        cursor = max(cursor, e)
        if cursor >= t1:
            break
    if cursor < t1:
        gaps.append((cursor, t1))
    return [(s, e) for s, e in gaps if e > s]


class _SMIntervals:
    """Per-SM interval set answering exclusion coverage queries.

    Holds ``(start, end, warp)`` triples; ``coverage(s, e, exclude)``
    returns the measure of ``[s, e)`` covered by the union of intervals
    belonging to any warp other than ``exclude``.
    """

    __slots__ = ("items", "_starts", "_maxlen")

    def __init__(self) -> None:
        self.items: list = []
        self._starts: list = []
        self._maxlen = 0.0

    def add(self, start: float, end: float, warp: int) -> None:
        if end > start:
            self.items.append((start, end, warp))

    def freeze(self) -> None:
        self.items.sort()
        self._starts = [it[0] for it in self.items]
        self._maxlen = max((e - s for s, e, _ in self.items),
                           default=0.0)

    def coverage(self, s: float, e: float, exclude: int = -1) -> float:
        if e <= s or not self.items:
            return 0.0
        lo = bisect_left(self._starts, s - self._maxlen)
        cov = 0.0
        cur_s = cur_e = None
        for idx in range(lo, len(self.items)):
            st, en, w = self.items[idx]
            if st >= e:
                break
            if w == exclude or en <= s:
                continue
            a, b = max(st, s), min(en, e)
            if cur_e is None:
                cur_s, cur_e = a, b
            elif a <= cur_e:
                if b > cur_e:
                    cur_e = b
            else:
                cov += cur_e - cur_s
                cur_s, cur_e = a, b
        if cur_e is not None:
            cov += cur_e - cur_s
        return cov


def _parse_translation_detail(detail: str) -> tuple:
    """Parse the engine's ``iss=..;lat=..;hid=..`` event detail."""
    vals = {"iss": 0.0, "lat": 0.0, "hid": 0.0}
    for part in detail.split(";"):
        key, _, raw = part.partition("=")
        if key in vals and raw:
            vals[key] = float(raw)
    return vals["iss"], vals["lat"], vals["hid"]


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class TranslationSplit:
    """Launch-level decomposition of translation cycles."""

    total: float = 0.0       # issue slots + chain cycles, all requests
    hidden: float = 0.0      # absorbed by the memory bubble / overlap
    exposed: float = 0.0     # landed on the warp with no cover
    issue_slots: float = 0.0  # issue-server share of ``total``
    events: int = 0

    @property
    def hidden_fraction(self) -> float:
        return self.hidden / self.total if self.total > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "hidden": self.hidden,
            "exposed": self.exposed,
            "issue_slots": self.issue_slots,
            "events": self.events,
            "hidden_fraction": self.hidden_fraction,
        }


@dataclass
class AttributionReport:
    """Everything the analyzer derives from one launch's trace."""

    launch_cycles: float = 0.0
    warps: int = 0
    sms: int = 0
    events: int = 0
    dropped: int = 0
    issue_cycles: float = 0.0
    stall_cycles: dict = field(default_factory=dict)
    idle_cycles: float = 0.0
    warp_rows: list = field(default_factory=list)
    critical_path: dict = field(default_factory=dict)
    critical_path_cycles: float = 0.0
    translation: TranslationSplit = field(
        default_factory=TranslationSplit)

    def to_dict(self) -> dict:
        return {
            "launch_cycles": self.launch_cycles,
            "warps": self.warps,
            "sms": self.sms,
            "events": self.events,
            "dropped": self.dropped,
            "issue_cycles": self.issue_cycles,
            "stall_cycles": dict(self.stall_cycles),
            "idle_cycles": self.idle_cycles,
            "warp_rows": [dict(r) for r in self.warp_rows],
            "critical_path": dict(self.critical_path),
            "critical_path_cycles": self.critical_path_cycles,
            "translation": self.translation.to_dict(),
        }

    def to_component(self) -> dict:
        """The ``components.attribution`` section of a launch
        profile (flat numbers so profiles stay mergeable)."""
        t = self.translation
        return {
            "translation_cycles": t.total,
            "translation_hidden": t.hidden,
            "translation_exposed": t.exposed,
            "hidden_fraction": t.hidden_fraction,
            "critical_path_cycles": self.critical_path_cycles,
            "attributed": 1,
        }


# ----------------------------------------------------------------------
# Analyzer
# ----------------------------------------------------------------------
def attribute_events(events: Iterable[TraceEvent], *,
                     dropped: int = 0,
                     launch_cycles: Optional[float] = None,
                     ) -> AttributionReport:
    """Attribute one launch's trace events.

    ``dropped`` is the tracer's overflow count; a nonzero value raises
    :class:`TruncatedTraceError`.  ``launch_cycles`` overrides the span
    inferred from the events (useful when the caller knows the true
    launch length).
    """
    if dropped:
        raise TruncatedTraceError(
            f"trace dropped {dropped} events at the Tracer cap; "
            "attribution over a truncated timeline would be wrong — "
            "raise Tracer(max_events=...) or shrink the launch")
    events = list(events)
    report = AttributionReport(dropped=0, events=len(events))
    if not events:
        return report

    t0 = min(e.start for e in events)
    t1 = max(e.end for e in events)
    if launch_cycles is not None:
        t1 = max(t1, t0 + launch_cycles)
    span = t1 - t0
    report.launch_cycles = span

    issue_by_sm: dict = {}
    queue_by_sm: dict = {}
    stalls_by_sm: dict = {}
    per_warp: dict = {}
    translations: list = []
    warp_sm: dict = {}

    for e in events:
        warp_sm.setdefault(e.warp, e.sm)
        if e.kind == "issue":
            issue_by_sm.setdefault(e.sm, _SMIntervals()).add(
                e.start, e.end, e.warp)
            w = per_warp.setdefault(e.warp, {"issue": 0.0, "stalls": []})
            w["issue"] += e.duration
        elif e.kind == "stall":
            reason = e.detail or "unknown"
            if reason == "issue_queue":
                queue_by_sm.setdefault(e.sm, _SMIntervals()).add(
                    e.start, e.end, e.warp)
            stalls_by_sm.setdefault(e.sm, []).append(
                (e.start, e.end, reason))
            w = per_warp.setdefault(e.warp, {"issue": 0.0, "stalls": []})
            w["stalls"].append(e)
        elif e.kind == "translation":
            translations.append(e)

    for idx in issue_by_sm.values():
        idx.freeze()
    for idx in queue_by_sm.values():
        idx.freeze()

    report.warps = len(per_warp)
    report.sms = len({sm for sm in warp_sm.values()})

    # -- per-warp accounting ------------------------------------------
    stall_totals: dict = {}
    empty = _SMIntervals()
    for warp, acc in sorted(per_warp.items()):
        sm = warp_sm.get(warp, -1)
        issue_idx = issue_by_sm.get(sm, empty)
        issue = acc["issue"]
        stall_total = 0.0
        hidden_stall = 0.0
        for e in acc["stalls"]:
            reason = e.detail or "unknown"
            stall_total += e.duration
            stall_totals[reason] = (stall_totals.get(reason, 0.0)
                                    + e.duration)
            hidden_stall += issue_idx.coverage(e.start, e.end,
                                               exclude=warp)
        idle = max(0.0, span - issue - stall_total)
        report.warp_rows.append({
            "warp": warp,
            "sm": sm,
            "cycles": span,
            "issue": issue,
            "stall": stall_total,
            "hidden": issue + hidden_stall,
            "exposed": stall_total - hidden_stall,
            "idle": idle,
        })
        report.issue_cycles += issue
    report.stall_cycles = dict(sorted(stall_totals.items()))
    report.idle_cycles = sum(r["idle"] for r in report.warp_rows)

    # -- launch critical path -----------------------------------------
    crit: dict = {}
    crit_cycles = 0.0
    for sm, idx in issue_by_sm.items():
        union = _union([(s, e) for s, e, _ in idx.items])
        gaps = _complement(union, t0, t1)
        if not gaps:
            continue
        gap_starts = [g[0] for g in gaps]
        gap_ends = [g[1] for g in gaps]
        weights: list = [{} for _ in gaps]
        for s, e, reason in stalls_by_sm.get(sm, []):
            gi = bisect_right(gap_ends, s)
            while gi < len(gaps) and gap_starts[gi] < e:
                ov = min(e, gap_ends[gi]) - max(s, gap_starts[gi])
                if ov > 0:
                    weights[gi][reason] = (weights[gi].get(reason, 0.0)
                                           + ov)
                gi += 1
        for (gs, ge), w in zip(gaps, weights):
            dur = ge - gs
            crit_cycles += dur
            total_w = sum(w.values())
            if total_w > 0:
                for reason, ov in w.items():
                    crit[reason] = (crit.get(reason, 0.0)
                                    + dur * ov / total_w)
            else:
                crit["idle"] = crit.get("idle", 0.0) + dur
    report.critical_path = dict(sorted(crit.items()))
    report.critical_path_cycles = crit_cycles

    # -- translation hidden-vs-exposed --------------------------------
    split = report.translation
    for e in translations:
        iss, lat, hid = _parse_translation_detail(e.detail)
        total = iss + lat + hid
        if total <= 0:
            continue
        span_len = e.duration
        sm = e.sm
        if span_len > 0:
            cov = issue_by_sm.get(sm, empty).coverage(
                e.start, e.end, exclude=e.warp) / span_len
            cont = queue_by_sm.get(sm, empty).coverage(
                e.start, e.end, exclude=e.warp) / span_len
            cov = min(1.0, cov)
            cont = min(1.0, cont)
        else:
            cov = cont = 0.0
        exposed = lat * (1.0 - cov) + iss * cont
        exposed = min(exposed, total)
        split.total += total
        split.exposed += exposed
        split.hidden += total - exposed
        split.issue_slots += iss
        split.events += 1
    return report


def attribute_tracer(tracer: Tracer, *,
                     launch_cycles: Optional[float] = None,
                     ) -> AttributionReport:
    """Attribute a live :class:`~repro.gpu.trace.Tracer`."""
    return attribute_events(tracer.events, dropped=tracer.dropped,
                            launch_cycles=launch_cycles)


def attribute_chrome_trace(trace: dict, *,
                           launch_cycles: Optional[float] = None,
                           ) -> AttributionReport:
    """Attribute an exported Chrome-trace dict (``--profile-dir``
    output, :meth:`Tracer.to_chrome_trace`)."""
    events, dropped = events_from_chrome_trace(trace)
    return attribute_events(events, dropped=dropped,
                            launch_cycles=launch_cycles)


def has_attribution_events(events: Iterable[TraceEvent]) -> bool:
    """Whether a trace carries the overlay kinds this module needs."""
    return any(e.kind in ATTRIBUTION_KINDS for e in events)
