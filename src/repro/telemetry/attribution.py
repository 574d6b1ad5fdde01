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

A profiled launch stores only what its ``components.attribution``
section holds, :func:`summarize_events`: the translation split and the
critical path's length.  :func:`attribute_events` builds the full
report on the same pass (index, gap sum and translation split).

Traces truncated by the :class:`~repro.gpu.trace.Tracer` event cap are
refused with :class:`TruncatedTraceError` — attribution over a partial
timeline would silently produce wrong numbers.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.gpu.trace import (
    COUNTER_KIND,
    Tracer,
    as_rows,
    rows_from_chrome_trace,
)

__all__ = [
    "AttributionReport",
    "TranslationSplit",
    "TruncatedTraceError",
    "attribute_chrome_trace",
    "attribute_events",
    "attribute_tracer",
    "summarize_events",
]


class TruncatedTraceError(RuntimeError):
    """The trace overflowed ``Tracer.max_events``; attribution refused.

    A truncated trace is missing an unknown suffix of every warp's
    timeline, so coverage fractions and the critical path would be
    systematically wrong rather than merely noisy.
    """


# ----------------------------------------------------------------------
# Interval index
# ----------------------------------------------------------------------
_INF = float("inf")

#: Break lists of a warp with no segment of its own: the sentinel only.
_NO_BREAKS = ((_INF,), (_INF,))


class _SMIntervals:
    """Per-SM interval set answering exclusion coverage queries.

    Holds intervals laid out as trace rows, ``warp`` at index 0 and
    ``start``/``end`` at 3/4 (the analyzer's rows themselves, or the
    row heads :meth:`add` builds); ``coverage(s, e, exclude)`` returns
    the measure
    of ``[s, e)`` covered by the union of intervals belonging to any
    warp other than ``exclude``.

    :meth:`freeze` cuts the time line at every interval endpoint and
    keeps two kinds of sorted *break* segments, where no warp other
    than ``exclude`` covers the line: the global gaps, covered by no
    interval, and per warp the segments only that warp's intervals
    cover.  A query starts at the first gap and the first of
    ``exclude``'s own breaks that end after ``s`` and walks only the
    breaks inside ``[s, e)``.  Each covered run between two breaks
    costs one subtraction of original endpoints, added left to right —
    the same floats, in the same order, as a closed-interval merge of
    the clipped intervals one by one.
    """

    __slots__ = ("items", "_gaps", "_only")

    def __init__(self) -> None:
        self.items: list = []
        self._gaps: tuple = ((-_INF, _INF), (_INF, _INF))  # all gap
        self._only: dict = {}

    def add(self, start: float, end: float, warp: int) -> None:
        if end > start:
            self.items.append((warp, -1, "", start, end))

    def freeze(self) -> None:
        gaps, only = self._serial_breaks()
        if gaps is None:
            gaps, only = self._swept_breaks()
        # A sentinel break at infinity ends every walk.
        for starts, ends in (gaps, *only.values()):
            starts.append(_INF)
            ends.append(_INF)
        self._gaps = gaps
        self._only = only

    def _serial_breaks(self) -> tuple:
        """The breaks of a set held in time order, each interval
        starting at or after the one before it ends (an SM's issue
        intervals, which its issue server serialises): the gaps between
        the intervals, and each interval as its warp's own break — what
        the sweep yields for such a set, without its cuts.  ``(None,
        None)`` for any other set."""
        gap_starts: list = []
        gap_ends: list = []
        only: dict = {}
        prev_end = -_INF
        for item in self.items:
            s = item[3]
            if s < prev_end:
                return None, None
            e = item[4]
            w = item[0]
            if s > prev_end:
                gap_starts.append(prev_end)
                gap_ends.append(s)
            own = only.get(w)
            if own is None:
                own = only[w] = ([], [])
            own[0].append(s)
            own[1].append(e)
            prev_end = e
        gap_starts.append(prev_end)
        gap_ends.append(_INF)
        return (gap_starts, gap_ends), only

    def _swept_breaks(self) -> tuple:
        """The breaks of any set: sweep the sorted interval endpoints,
        counting per warp the intervals open."""
        cuts = [(it[3], 1, it[0]) for it in self.items]
        cuts += [(it[4], -1, it[0]) for it in self.items]
        cuts.sort()
        gaps: tuple = ([], [])
        only: dict = defaultdict(lambda: ([], []))
        open_by_warp: dict = {}
        active = 0    # warps with an open interval
        warp_sum = 0  # sum of their ids: the sole warp when active == 1
        prev = -_INF
        for t, delta, w in cuts:
            if t > prev and active < 2:
                if active == 0:
                    starts, ends = gaps
                else:
                    starts, ends = only[warp_sum]
                starts.append(prev)
                ends.append(t)
            prev = t
            n = open_by_warp.get(w, 0)
            open_by_warp[w] = n + delta
            if n == 0:
                active += 1
                warp_sum += w
            elif n + delta == 0:
                active -= 1
                warp_sum -= w
        gaps[0].append(prev)
        gaps[1].append(_INF)
        return gaps, dict(only)

    def coverage(self, s: float, e: float, exclude: int = -1) -> float:
        return self.coverages(((-1, -1, "", s, e),), exclude)[0]

    def coverages(self, spans, exclude: int = -1) -> list:
        """:meth:`coverage` of every ``[start, end)`` of the rows in
        ``spans``, in one walk.  While the spans start in time order,
        each one's first breaks are found by stepping on from where the
        previous span's were; a span that starts earlier bisects
        afresh."""
        gap_starts, gap_ends = self._gaps
        own_starts, own_ends = self._only.get(exclude, _NO_BREAKS)
        out = []
        i = j = 0
        last = _INF   # the first span bisects
        for span in spans:
            s = span[3]
            e = span[4]
            if e <= s:
                out.append(0.0)
                continue
            if s >= last:
                while gap_ends[i] <= s:
                    i += 1
                while own_ends[j] <= s:
                    j += 1
            else:
                i = bisect_right(gap_ends, s)
                j = bisect_right(own_ends, s)
            last = s
            gi, oj = i, j
            gap = gap_starts[gi]
            own = own_starts[oj]
            cov = 0.0
            cursor = s
            while True:
                if gap < own:
                    if gap >= e:
                        break
                    if gap > cursor:
                        cov += gap - cursor
                    cursor = gap_ends[gi]
                    gi += 1
                    gap = gap_starts[gi]
                else:
                    if own >= e:
                        break
                    if own > cursor:
                        cov += own - cursor
                    cursor = own_ends[oj]
                    oj += 1
                    own = own_starts[oj]
            if cursor < e:
                cov += e - cursor
            out.append(cov)
        return out

    def gaps(self, t0: float, t1: float) -> tuple:
        """``(starts, ends)`` of the global gaps clipped to
        ``[t0, t1]``: where no interval covers the line."""
        gap_starts, gap_ends = self._gaps
        starts: list = []
        ends: list = []
        for i in range(bisect_right(gap_ends, t0), len(gap_starts)):
            if gap_starts[i] >= t1:
                break
            s, e = max(gap_starts[i], t0), min(gap_ends[i], t1)
            if e > s:
                starts.append(s)
                ends.append(e)
        return starts, ends


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
#: The index of an SM with no intervals: it covers nothing.
_EMPTY = _SMIntervals()


def _translation_split(translations: list, issue_by_sm: dict,
                       queue_by_sm: dict) -> TranslationSplit:
    """Translation hidden-vs-exposed over the translation rows.

    Each distinct detail parses once.  A coverage whose weight is
    zero is not asked for: ``lat * (1 - cov)`` with ``lat == 0`` and
    ``iss * cont`` with ``iss == 0`` are the same signed zero for
    every ``cov``/``cont`` in [0, 1].  Coverages are walked per
    (SM, warp), then folded in trace order.  ``x = b if b < a else
    a`` is ``min(a, b)``'s own choice, ``a`` on a tie."""
    parsed: dict = {}
    n = len(translations)
    vals_of: list = [None] * n
    cov_of = [0.0] * n
    cont_of = [0.0] * n
    groups: dict = {}     # (sm, warp) -> cov and cont spans, indices
    for k, row in enumerate(translations):
        warp, _, _, start, end, detail, sm, _ = row
        vals = parsed.get(detail)
        if vals is None:
            iss, lat, hid = _parse_translation_detail(detail)
            vals = parsed[detail] = (iss, lat, iss + lat + hid)
        vals_of[k] = vals
        if end - start > 0 and vals[2] > 0:
            key = (sm, warp)
            group = groups.get(key)
            if group is None:
                group = groups[key] = ([], [], [], [])
            if vals[1] != 0:
                group[0].append(row)
                group[1].append(k)
            if vals[0] != 0:
                group[2].append(row)
                group[3].append(k)
    for (sm, warp), (cov_spans, cov_ks, cont_spans, cont_ks) \
            in groups.items():
        for out, idx, spans, ks in (
                (cov_of, issue_by_sm.get(sm, _EMPTY), cov_spans, cov_ks),
                (cont_of, queue_by_sm.get(sm, _EMPTY), cont_spans,
                 cont_ks)):
            for row, k, cov in zip(spans, ks,
                                   idx.coverages(spans, warp)):
                frac = cov / (row[4] - row[3])
                out[k] = frac if frac < 1.0 else 1.0
    split = TranslationSplit()
    for (iss, lat, total), cov, cont in zip(vals_of, cov_of, cont_of):
        if total <= 0:
            continue
        exposed = lat * (1.0 - cov) + iss * cont
        if total < exposed:
            exposed = total
        split.total += total
        split.exposed += exposed
        split.hidden += total - exposed
        split.issue_slots += iss
        split.events += 1
    return split


def _summary(events: Iterable, dropped: int,
             launch_cycles: Optional[float]) -> tuple:
    """The launch-level report of one trace — its span, critical-path
    length and translation split — from one pass over its rows.

    Returns ``(rows, report, index)``: the trace as rows, the report,
    and ``(t0, t1, issue_by_sm)``, the span (stretched to
    ``launch_cycles``) and the frozen per-SM issue indexes, for the
    per-warp sections (``None`` for a trace with no timed row).  A
    truncated trace raises :class:`TruncatedTraceError`.

    Counter samples sit at their window's end, which may lie past the
    launch end: they are outside the span.  The indexes hold the rows
    themselves, only those of positive length, but an empty issue row
    still gives its SM an index (whose gaps are critical path).
    """
    if dropped:
        raise TruncatedTraceError(
            f"trace dropped {dropped} events at the Tracer cap; "
            "attribution over a truncated timeline would be wrong — "
            "raise Tracer(max_events=...) or shrink the launch")
    rows = as_rows(events)
    report = AttributionReport(events=len(rows))
    t0 = _INF
    t1 = -_INF
    issue_by_sm: dict = defaultdict(_SMIntervals)
    queue_by_sm: dict = defaultdict(_SMIntervals)
    translations: list = []
    for row in rows:
        _, _, kind, start, end, detail, sm, _ = row
        if kind == "stall":
            if detail == "issue_queue" and end > start:
                queue_by_sm[sm].items.append(row)
        elif kind == "issue":
            idx = issue_by_sm[sm]
            if end > start:
                idx.items.append(row)
        elif kind == "translation":
            translations.append(row)
        elif kind == COUNTER_KIND:
            continue
        if start < t0:
            t0 = start
        if end > t1:
            t1 = end
    # A timed row leaves ``t0 <= t1`` unless its own end precedes its
    # start; only then is the slower test needed.
    if not (t0 <= t1 or any(row[2] != COUNTER_KIND for row in rows)):
        return rows, report, None
    if launch_cycles is not None:
        t1 = max(t1, t0 + launch_cycles)
    for idx in issue_by_sm.values():
        idx.freeze()
    for idx in queue_by_sm.values():
        idx.freeze()
    report.launch_cycles = t1 - t0
    # The critical path's length: SM-cycles with no warp issuing.
    crit = 0.0
    for idx in issue_by_sm.values():
        starts, ends = idx.gaps(t0, t1)
        for s, e in zip(starts, ends):
            crit += e - s
    report.critical_path_cycles = crit
    report.translation = _translation_split(translations, issue_by_sm,
                                            queue_by_sm)
    return rows, report, (t0, t1, issue_by_sm)


def summarize_events(events: Iterable, *,
                     launch_cycles: Optional[float] = None) -> dict:
    """``attribute_events(...).to_component()``, the
    ``components.attribution`` section a profiled launch stores,
    without the per-warp rows and critical-path reasons it drops.  The
    caller refuses a truncated trace, as the profiler does."""
    return _summary(events, 0, launch_cycles)[1].to_component()


def attribute_events(events: Iterable, *,
                     dropped: int = 0,
                     launch_cycles: Optional[float] = None,
                     ) -> AttributionReport:
    """Attribute one launch's trace: its rows
    (:attr:`Tracer.rows <repro.gpu.trace.Tracer.rows>`) or
    :class:`~repro.gpu.trace.TraceEvent` objects, which become rows
    once here.

    ``dropped`` is the tracer's overflow count; a nonzero value raises
    :class:`TruncatedTraceError`.  ``launch_cycles`` overrides the span
    inferred from the events (useful when the caller knows the true
    launch length).  The report extends :func:`summarize_events`'s.
    """
    rows, report, index = _summary(events, dropped, launch_cycles)
    if index is None:
        return report
    t0, t1, issue_by_sm = index
    span = report.launch_cycles

    # The per-warp sections bucket the stall and issue rows; a warp's
    # SM is the SM of its first timed row.
    stalls_by_sm: dict = defaultdict(list)
    issue_by_warp: dict = defaultdict(float)
    stalls_by_warp: dict = defaultdict(list)
    warp_sm: dict = {}
    for row in rows:
        warp, _, kind, start, end, _, sm, _ = row
        if kind == COUNTER_KIND:
            continue
        if kind == "stall":
            stalls_by_sm[sm].append(row)
            stalls_by_warp[warp].append(row)
        elif kind == "issue":
            issue_by_warp[warp] += end - start
        warp_sm.setdefault(warp, sm)
    warps = sorted(issue_by_warp.keys() | stalls_by_warp.keys())
    report.warps = len(warps)
    report.sms = len({sm for sm in warp_sm.values()})

    # -- per-warp accounting ------------------------------------------
    stall_totals: dict = {}
    for warp in warps:
        sm = warp_sm.get(warp, -1)
        issue = issue_by_warp.get(warp, 0.0)
        stalls = stalls_by_warp.get(warp, ())
        stall_total = 0.0
        for row in stalls:
            reason = row[5] or "unknown"
            duration = row[4] - row[3]
            stall_total += duration
            stall_totals[reason] = (stall_totals.get(reason, 0.0)
                                    + duration)
        hidden_stall = 0.0
        for cov in issue_by_sm.get(sm, _EMPTY).coverages(stalls, warp):
            hidden_stall += cov
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

    # -- critical-path reasons ----------------------------------------
    # Each gap's cycles go to the stall reasons overlapping it, in
    # proportion to the overlap.
    crit: dict = {}
    for sm, idx in issue_by_sm.items():
        gap_starts, gap_ends = idx.gaps(t0, t1)
        if not gap_starts:
            continue
        n_gaps = len(gap_starts)
        weights: list = [{} for _ in gap_starts]
        for stall in stalls_by_sm.get(sm, ()):
            s = stall[3]
            e = stall[4]
            gi = bisect_right(gap_ends, s)
            while gi < n_gaps and gap_starts[gi] < e:
                ge = gap_ends[gi]
                gs = gap_starts[gi]
                ov = (ge if ge < e else e) - (gs if gs > s else s)
                if ov > 0:
                    w = weights[gi]
                    reason = stall[5] or "unknown"
                    w[reason] = w.get(reason, 0.0) + ov
                gi += 1
        for gs, ge, w in zip(gap_starts, gap_ends, weights):
            dur = ge - gs
            total_w = sum(w.values())
            if total_w > 0:
                for reason, ov in w.items():
                    crit[reason] = (crit.get(reason, 0.0)
                                    + dur * ov / total_w)
            else:
                crit["idle"] = crit.get("idle", 0.0) + dur
    report.critical_path = dict(sorted(crit.items()))
    return report


def attribute_tracer(tracer: Tracer, *,
                     launch_cycles: Optional[float] = None,
                     ) -> AttributionReport:
    """Attribute a live :class:`~repro.gpu.trace.Tracer`."""
    return attribute_events(tracer.rows, dropped=tracer.dropped,
                            launch_cycles=launch_cycles)


def attribute_chrome_trace(trace: dict, *,
                           launch_cycles: Optional[float] = None,
                           ) -> AttributionReport:
    """Attribute an exported Chrome-trace dict (``--profile-dir``
    output, :meth:`Tracer.to_chrome_trace`)."""
    rows, dropped = rows_from_chrome_trace(trace)
    return attribute_events(rows, dropped=dropped,
                            launch_cycles=launch_cycles)
