"""Cycle-attribution analyzer: exact math on hand-built traces.

Every number in :class:`TestSyntheticLaunch` is derived by hand from a
two-warp timeline — no simulator involved — so an analyzer regression
shows up as a wrong *number*, not a vaguely different distribution.
The hypothesis test pins the tiling invariant the per-warp rows
guarantee: ``hidden + exposed + idle == cycles`` for every warp.
:class:`TestIndexAgainstMerge` holds the break-segment coverage index
to the item-by-item interval merge it replaced, kept here as a
reference: every query must return the same float, not a close one.
:class:`TestPassAgainstReference` holds the one-pass analyzer to the
query-per-event analyzer it replaced (``_reference_attribute_events``,
over that merge): every report must be equal, float for float.
:class:`TestSummaryAgainstReport` holds the summary a profiled launch
stores (``summarize_events``) to the full report's section, bit for
bit.
"""

import json
import random
from bisect import bisect_left, bisect_right
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu.trace import (
    COUNTER_KIND,
    TraceEvent,
    Tracer,
    events_from_chrome_trace,
)
from repro.telemetry.attribution import (
    AttributionReport,
    TruncatedTraceError,
    _SMIntervals,
    attribute_chrome_trace,
    attribute_events,
    attribute_tracer,
    summarize_events,
)
from tests.conftest import budget


def ev(warp, kind, start, end, detail="", sm=0, block=0):
    return TraceEvent(warp=warp, block=block, kind=kind, start=start,
                      end=end, detail=detail, sm=sm)


#: Two warps on one SM over [0, 100):
#:   warp 0: issue [0,10), memory stall [10,60), issue [60,70)
#:   warp 1: issue [10,40), translation stall [40,60), issue [90,100)
#: plus one translation event per warp (details chosen by hand).
SYNTH = [
    ev(0, "issue", 0, 10),
    ev(0, "stall", 10, 60, "memory"),
    ev(0, "issue", 60, 70),
    ev(1, "issue", 10, 40),
    ev(1, "stall", 40, 60, "translation"),
    ev(1, "issue", 90, 100),
    # Warp 1's translation sits in [40,60) where no other warp issues:
    # all 10 latency cycles exposed, the 5 pre-hidden stay hidden.
    ev(1, "translation", 40, 60, "iss=5;lat=10;hid=5"),
    # Warp 0's translation sits in [10,40), fully covered by warp 1's
    # issue interval: nothing exposed.
    ev(0, "translation", 10, 40, "iss=4;lat=8;hid=0"),
]


class TestSyntheticLaunch:
    @pytest.fixture(scope="class")
    def report(self):
        return attribute_events(SYNTH)

    def test_launch_shape(self, report):
        assert report.launch_cycles == 100
        assert report.warps == 2
        assert report.sms == 1
        assert report.events == len(SYNTH)

    def test_issue_and_stall_totals(self, report):
        assert report.issue_cycles == 60          # 20 + 40
        assert report.stall_cycles == {"memory": 50.0,
                                       "translation": 20.0}

    def test_warp0_row_exact(self, report):
        row = {r["warp"]: r for r in report.warp_rows}[0]
        # Memory stall [10,60) is covered by warp 1's issue [10,40):
        # 30 of its 50 cycles are hidden.
        assert row["issue"] == 20
        assert row["stall"] == 50
        assert row["hidden"] == 20 + 30
        assert row["exposed"] == 20
        assert row["idle"] == 30

    def test_warp1_row_exact(self, report):
        row = {r["warp"]: r for r in report.warp_rows}[1]
        # Translation stall [40,60) has no concurrent issuer at all.
        assert row["issue"] == 40
        assert row["stall"] == 20
        assert row["hidden"] == 40
        assert row["exposed"] == 20
        assert row["idle"] == 40

    def test_rows_tile_the_span(self, report):
        for row in report.warp_rows:
            assert row["hidden"] + row["exposed"] + row["idle"] \
                == pytest.approx(row["cycles"])

    def test_critical_path_exact(self, report):
        # Issue union [0,40) u [60,70) u [90,100) leaves gaps [40,60)
        # and [70,90).  The first is covered half by the memory stall,
        # half by the translation stall; the second by nothing.
        assert report.critical_path_cycles == 40
        assert report.critical_path == {
            "memory": pytest.approx(10.0),
            "translation": pytest.approx(10.0),
            "idle": pytest.approx(20.0),
        }

    def test_translation_split_exact(self, report):
        t = report.translation
        assert t.events == 2
        assert t.issue_slots == 9                 # 5 + 4
        assert t.total == 32                      # 20 + 12
        # Warp 1: zero issue coverage -> lat=10 exposed.
        # Warp 0: full coverage -> nothing exposed.
        assert t.exposed == pytest.approx(10.0)
        assert t.hidden == pytest.approx(22.0)
        assert t.hidden_fraction == pytest.approx(22.0 / 32.0)

    def test_report_round_trips_to_dict(self, report):
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["translation"]["hidden_fraction"] \
            == pytest.approx(22.0 / 32.0)
        comp = report.to_component()
        assert comp["attributed"] == 1
        assert comp["translation_cycles"] == 32


class TestContention:
    def test_issue_queue_contention_exposes_issue_slots(self):
        # Warp 0's translation is fully covered by warp 1's issue, but
        # warp 2 queue-stalls the whole time: the SM's issue server was
        # contended, so the 10 issue slots were NOT free.
        events = [
            ev(0, "issue", 0, 10),
            ev(1, "issue", 0, 10),
            ev(2, "stall", 0, 10, "issue_queue"),
            ev(0, "translation", 0, 10, "iss=10;lat=0;hid=0"),
        ]
        t = attribute_events(events).translation
        assert t.total == 10
        assert t.exposed == pytest.approx(10.0)
        assert t.hidden == pytest.approx(0.0)

    def test_other_sm_issue_does_not_hide(self):
        # Cover only on SM 1; warp 0's stall on SM 0 stays exposed.
        events = [
            ev(0, "issue", 0, 10, sm=0),
            ev(0, "stall", 10, 30, "memory", sm=0),
            ev(1, "issue", 10, 30, sm=1),
        ]
        report = attribute_events(events)
        row = {r["warp"]: r for r in report.warp_rows}[0]
        assert row["exposed"] == 20
        assert report.sms == 2


class TestTruncationRefusal:
    def test_dropped_events_raise(self):
        with pytest.raises(TruncatedTraceError, match="dropped 3"):
            attribute_events(SYNTH, dropped=3)

    def test_overflowed_tracer_refused(self):
        tracer = Tracer(max_events=2)
        for e in SYNTH:
            tracer.record(e.warp, e.block, e.kind, e.start, e.end,
                          e.detail, e.sm)
        assert tracer.dropped == len(SYNTH) - 2
        with pytest.raises(TruncatedTraceError):
            attribute_tracer(tracer)

    def test_truncated_chrome_trace_refused(self):
        tracer = Tracer(max_events=2)
        for e in SYNTH:
            tracer.record(e.warp, e.block, e.kind, e.start, e.end,
                          e.detail, e.sm)
        trace = tracer.to_chrome_trace()
        with pytest.raises(TruncatedTraceError):
            attribute_chrome_trace(trace)


class TestChromeTraceRoundTrip:
    def _tracer(self):
        tracer = Tracer()
        for e in SYNTH:
            tracer.record(e.warp, e.block, e.kind, e.start, e.end,
                          e.detail, e.sm)
        return tracer

    def test_cycles_export_round_trips(self):
        tracer = self._tracer()
        events, dropped = events_from_chrome_trace(
            tracer.to_chrome_trace())
        assert dropped == 0
        direct = attribute_tracer(tracer)
        via_chrome = attribute_events(events)
        assert via_chrome.to_dict() == direct.to_dict()

    def test_microsecond_export_round_trips(self):
        class Spec:
            clock_hz = 823.5e6

        tracer = self._tracer()
        trace = tracer.to_chrome_trace(Spec())
        assert trace["otherData"]["time_unit"] == "us"
        direct = attribute_tracer(tracer)
        report = attribute_chrome_trace(trace)
        assert report.translation.hidden_fraction \
            == pytest.approx(direct.translation.hidden_fraction)
        assert report.launch_cycles \
            == pytest.approx(direct.launch_cycles)

    def test_microseconds_without_clock_rejected(self):
        class Spec:
            clock_hz = 1e9

        trace = self._tracer().to_chrome_trace(Spec())
        del trace["otherData"]["clock_hz"]
        with pytest.raises(ValueError, match="clock_hz"):
            events_from_chrome_trace(trace)


class TestEdgeCases:
    def test_empty_trace(self):
        report = attribute_events([])
        assert report.launch_cycles == 0
        assert report.warp_rows == []
        assert report.translation.total == 0

    def test_macro_ops_only_trace_has_no_rows(self):
        events = [ev(0, "compute", 0, 5), ev(0, "memaccess", 5, 30)]
        report = attribute_events(events)
        assert report.warp_rows == []
        assert report.events == 2

    def test_launch_cycles_override_extends_span(self):
        report = attribute_events([ev(0, "issue", 0, 10)],
                                  launch_cycles=50)
        assert report.launch_cycles == 50
        row = report.warp_rows[0]
        assert row["idle"] == 40

    def test_exposed_clamped_to_total(self):
        # lat alone exceeds total sanity: exposed never exceeds total.
        events = [ev(0, "translation", 0, 0, "iss=0;lat=7;hid=0")]
        t = attribute_events(events).translation
        assert t.exposed <= t.total == 7


def _without_event_count(report) -> dict:
    doc = report.to_dict()
    del doc["events"]
    return doc


class TestCounterSamples:
    """Time-series counter samples (warp 0, SM -1, at a window's end)
    are not part of the attributed timeline."""

    def _with_counters(self):
        tracer = Tracer()
        for e in SYNTH:
            tracer.record(e.warp, e.block, e.kind, e.start, e.end,
                          e.detail, e.sm)
        # A window closing well past the launch end.
        tracer.record_counter("dram_bytes", 500.0, 64.0)
        return tracer

    def test_counter_past_launch_end_does_not_stretch_span(self):
        report = attribute_tracer(self._with_counters())
        assert report.launch_cycles == 100
        assert report.events == len(SYNTH) + 1
        assert _without_event_count(report) \
            == _without_event_count(attribute_events(SYNTH))

    def test_chrome_trace_counters_skipped(self):
        trace = self._with_counters().to_chrome_trace()
        assert _without_event_count(attribute_chrome_trace(trace)) \
            == _without_event_count(attribute_events(SYNTH))

    def test_sampled_launch_attributes_like_unsampled(self):
        # A 7000-cycle window outlasts this ~2900-cycle launch, so its
        # one sample lands far past the launch end.
        from repro.gpu import Device
        from repro.telemetry import capture
        from repro.workloads import run_memcpy

        runs = {}
        for timeseries in (False, True):
            with capture(trace=True, timeseries=timeseries,
                         attribution=True, window_cycles=7000.0) as prof:
                run_memcpy(Device(), use_apointers=True, width=4,
                           nblocks=2, warps_per_block=4,
                           iters_per_thread=4)
            profile, tracer = prof.profiles[0], prof.traces[0]
            live = attribute_tracer(tracer, launch_cycles=profile.cycles)
            chrome = attribute_chrome_trace(tracer.to_chrome_trace())
            assert live.launch_cycles == profile.cycles
            assert chrome.launch_cycles == profile.cycles
            runs[timeseries] = (profile.components["attribution"],
                                _without_event_count(live),
                                _without_event_count(chrome))
        assert runs[True] == runs[False]


# ----------------------------------------------------------------------
# Property: per-warp rows tile the launch span
# ----------------------------------------------------------------------
@st.composite
def warp_timelines(draw):
    """Random issue/stall segments for a handful of warps on 2 SMs."""
    events = []
    n_warps = draw(st.integers(min_value=1, max_value=4))
    for warp in range(n_warps):
        sm = warp % 2
        cursor = draw(st.integers(min_value=0, max_value=5))
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            dur = draw(st.integers(min_value=1, max_value=20))
            kind = draw(st.sampled_from(["issue", "stall", "gap"]))
            if kind == "issue":
                events.append(ev(warp, "issue", cursor, cursor + dur,
                                 sm=sm))
            elif kind == "stall":
                reason = draw(st.sampled_from(
                    ["memory", "translation", "issue_queue", "io"]))
                events.append(ev(warp, "stall", cursor, cursor + dur,
                                 reason, sm=sm))
            cursor += dur
    return events


@settings(max_examples=60, deadline=None)
@given(warp_timelines())
def test_hidden_exposed_idle_tile_every_warp(events):
    report = attribute_events(events)
    for row in report.warp_rows:
        assert row["hidden"] + row["exposed"] + row["idle"] \
            == pytest.approx(row["cycles"])
        assert row["hidden"] >= row["issue"] - 1e-9
        assert 0 <= row["exposed"] <= row["stall"] + 1e-9
        assert row["idle"] >= -1e-9
    assert report.issue_cycles == pytest.approx(
        sum(r["issue"] for r in report.warp_rows))
    assert report.idle_cycles == pytest.approx(
        sum(r["idle"] for r in report.warp_rows))


# ----------------------------------------------------------------------
# Differential: break-segment index == item-by-item interval merge
# ----------------------------------------------------------------------
class _MergeIntervals:
    """The coverage scan the index replaced: sort the intervals, then
    merge the clipped ones item by item (closed intervals: touching
    ones join a run)."""

    def __init__(self):
        self.items = []

    def add(self, start, end, warp):
        if end > start:
            self.items.append((start, end, warp))

    def freeze(self):
        self.items.sort()
        self._starts = [it[0] for it in self.items]
        self._maxlen = max((e - s for s, e, _ in self.items),
                           default=0.0)

    def coverage(self, s, e, exclude=-1):
        if e <= s or not self.items:
            return 0.0
        lo = bisect_left(self._starts, s - self._maxlen)
        cov = 0.0
        cur_s = cur_e = None
        for idx in range(lo, len(self.items)):
            st_, en, w = self.items[idx]
            if st_ >= e:
                break
            if w == exclude or en <= s:
                continue
            a, b = max(st_, s), min(en, e)
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

    def gaps(self, t0, t1):
        """Complement of the union within ``[t0, t1]``."""
        union = []
        for s, e, _ in self.items:
            if union and s <= union[-1][1]:
                union[-1][1] = max(union[-1][1], e)
            else:
                union.append([s, e])
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
        return [g for g in gaps if g[1] > g[0]]


def _pair(items):
    index, merge = _SMIntervals(), _MergeIntervals()
    for s, e, w in items:
        index.add(s, e, w)
        merge.add(s, e, w)
    index.freeze()
    merge.freeze()
    return index, merge


#: Endpoints: a coarse integer grid (duplicates and touching runs are
#: common) mixed with arbitrary floats (sums round).
_POINTS = st.one_of(
    st.integers(min_value=0, max_value=30).map(float),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False))


@st.composite
def sm_intervals(draw):
    """``(start, end, warp)`` sets with touching chains, duplicate
    endpoints, zero-length and overlapping multi-warp intervals."""
    n_warps = draw(st.integers(min_value=1, max_value=5))
    items = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        known = [p for it in items for p in it[:2]]
        if known and draw(st.booleans()):
            start = draw(st.sampled_from(known))   # chain / duplicate
        else:
            start = draw(_POINTS)
        end = draw(st.one_of(
            st.just(start),                        # zero-length
            st.sampled_from(known) if known else _POINTS,
            _POINTS.map(lambda d: start + d)))
        items.append((start, end, draw(st.integers(0, n_warps - 1))))
    return items, n_warps


@st.composite
def queries(draw, items, n_warps):
    """``(s, e, exclude)`` inside, across and outside the span, with
    ``exclude`` -1, an absent warp or a present one."""
    known = [p for it in items for p in it[:2]] or [0.0]
    point = st.one_of(
        st.sampled_from(known),
        st.floats(min_value=-10.0, max_value=50.0, allow_nan=False))
    s = draw(point)
    e = draw(st.one_of(point, point.map(lambda d: s + abs(d))))
    exclude = draw(st.one_of(
        st.just(-1), st.just(n_warps + 7),
        st.integers(min_value=0, max_value=n_warps - 1)))
    return s, e, exclude


class TestIndexAgainstMerge:
    @settings(max_examples=150, deadline=None)
    @given(sm_intervals(), st.data())
    def test_coverage_is_bit_identical(self, case, data):
        items, n_warps = case
        index, merge = _pair(items)
        for _ in range(8):
            s, e, exclude = data.draw(queries(items, n_warps))
            assert index.coverage(s, e, exclude) \
                == merge.coverage(s, e, exclude), (s, e, exclude)

    @settings(max_examples=100, deadline=None)
    @given(sm_intervals(), st.data())
    def test_gaps_are_the_union_complement(self, case, data):
        items, n_warps = case
        index, merge = _pair(items)
        s, e, _ = data.draw(queries(items, n_warps))
        t0, t1 = min(s, e), max(s, e)
        starts, ends = index.gaps(t0, t1)
        assert list(zip(starts, ends)) == merge.gaps(t0, t1)

    def test_dense_sm_many_warps(self):
        # SM-shaped load: 16 warps of back-to-back issue slivers with
        # shared endpoints, queried with every exclusion.
        rng = random.Random(5)
        items = []
        for warp in range(16):
            t = rng.uniform(0.0, 5.0)
            for _ in range(60):
                step = rng.choice([0.5, 1.0, rng.uniform(0.1, 7.0)])
                if rng.random() < 0.7:
                    items.append((t, t + step, warp))
                t += step
        index, merge = _pair(items)
        for _ in range(3000):
            s = rng.uniform(-5.0, 300.0)
            e = s + rng.choice([0.0, 1.0, rng.uniform(0.0, 80.0)])
            exclude = rng.randrange(-1, 18)
            assert index.coverage(s, e, exclude) \
                == merge.coverage(s, e, exclude)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_serial_sets_break_as_the_sweep_does(self, data):
        # Each interval starts at or after the one before it ends, as
        # on an SM's issue server: touching runs of one warp or of
        # two, gaps between them.  Out of time order, the set sweeps.
        cursor = data.draw(_POINTS)
        items = []
        for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
            cursor += data.draw(st.one_of(st.just(0.0), _POINTS))
            end = cursor + data.draw(_POINTS.filter(lambda d: d > 0))
            items.append((cursor, end, data.draw(st.integers(0, 3))))
            cursor = end
        index = _SMIntervals()
        for item in items:
            index.add(*item)
        assert index._serial_breaks() == index._swept_breaks()
        shuffled = data.draw(st.permutations(index.items))
        if shuffled != index.items:
            index.items = shuffled
            assert index._serial_breaks() == (None, None)
        # One overlap sends the set to the sweep.
        if index.items:
            warp, _, _, start, end = index.items[-1]
            index.add(start, end + 1.0, warp + 1)
            assert index._serial_breaks() == (None, None)

    def test_unfrozen_empty_index_covers_nothing(self):
        assert _SMIntervals().coverage(0.0, 10.0, exclude=3) == 0.0


# ----------------------------------------------------------------------
# Differential: one-pass analyzer == query-per-event analyzer
# ----------------------------------------------------------------------
def _reference_parse(detail):
    vals = {"iss": 0.0, "lat": 0.0, "hid": 0.0}
    for part in detail.split(";"):
        key, _, raw = part.partition("=")
        if key in vals and raw:
            vals[key] = float(raw)
    return vals["iss"], vals["lat"], vals["hid"]


def _reference_attribute_events(events, launch_cycles=None):
    """The analyzer the one-pass form replaced: a filtered copy of the
    events, two more scans for the span, one coverage query per stall
    and two per translation (over :class:`_MergeIntervals`), and a
    parse of every translation detail."""
    events = list(events)
    report = AttributionReport(dropped=0, events=len(events))
    events = [e for e in events if e.kind != COUNTER_KIND]
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
    issue_by_warp: dict = defaultdict(float)
    stalls_by_warp: dict = defaultdict(list)
    translations: list = []
    warp_sm: dict = {}

    for e in events:
        warp_sm.setdefault(e.warp, e.sm)
        if e.kind == "issue":
            issue_by_sm.setdefault(e.sm, _MergeIntervals()).add(
                e.start, e.end, e.warp)
            issue_by_warp[e.warp] += e.end - e.start
        elif e.kind == "stall":
            reason = e.detail or "unknown"
            if reason == "issue_queue":
                queue_by_sm.setdefault(e.sm, _MergeIntervals()).add(
                    e.start, e.end, e.warp)
            stalls_by_sm.setdefault(e.sm, []).append(
                (e.start, e.end, reason))
            stalls_by_warp[e.warp].append(e)
        elif e.kind == "translation":
            translations.append(e)

    for idx in issue_by_sm.values():
        idx.freeze()
    for idx in queue_by_sm.values():
        idx.freeze()

    warps = sorted(issue_by_warp.keys() | stalls_by_warp.keys())
    report.warps = len(warps)
    report.sms = len({sm for sm in warp_sm.values()})

    stall_totals: dict = {}
    empty = _MergeIntervals()
    empty.freeze()
    for warp in warps:
        sm = warp_sm.get(warp, -1)
        issue_idx = issue_by_sm.get(sm, empty)
        issue = issue_by_warp.get(warp, 0.0)
        stall_total = 0.0
        hidden_stall = 0.0
        for e in stalls_by_warp.get(warp, ()):
            reason = e.detail or "unknown"
            duration = e.end - e.start
            stall_total += duration
            stall_totals[reason] = (stall_totals.get(reason, 0.0)
                                    + duration)
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

    crit: dict = {}
    crit_cycles = 0.0
    for sm, idx in issue_by_sm.items():
        gaps = idx.gaps(t0, t1)
        gap_starts = [g[0] for g in gaps]
        gap_ends = [g[1] for g in gaps]
        if not gap_starts:
            continue
        weights: list = [{} for _ in gap_starts]
        for s, e, reason in stalls_by_sm.get(sm, []):
            gi = bisect_right(gap_ends, s)
            while gi < len(gap_starts) and gap_starts[gi] < e:
                ov = min(e, gap_ends[gi]) - max(s, gap_starts[gi])
                if ov > 0:
                    weights[gi][reason] = (weights[gi].get(reason, 0.0)
                                           + ov)
                gi += 1
        for gs, ge, w in zip(gap_starts, gap_ends, weights):
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

    split = report.translation
    for e in translations:
        iss, lat, hid = _reference_parse(e.detail)
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


#: Translation detail parts: signed zeros (``-0`` in the engine's
#: ``.6g`` form), integers and floats that round in ``.6g``.
_PARTS = st.sampled_from([0.0, -0.0, 0.0, 1.0, 3.0, 2.5, 1e-3,
                          12.3456789])
#: Details the engine never writes: missing keys, empty.
_ODD_DETAILS = st.sampled_from(["", "lat=4", "iss=2;hid=1", "hid=3"])


@st.composite
def _details(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(_ODD_DETAILS)
    iss, lat, hid = draw(_PARTS), draw(_PARTS), draw(_PARTS)
    return f"iss={iss:.6g};lat={lat:.6g};hid={hid:.6g}"


@st.composite
def launch_traces(draw):
    """A traced launch: warps on up to three SMs laying issue, stall
    (``issue_queue`` among the reasons) and macro-op intervals end to
    end, some zero-length, some re-laid over their own last interval;
    translation overlays with every detail form; the warps interleaved
    in a drawn trace order, a warp's own events sometimes shuffled out
    of time order; plus counter samples, some past the launch end."""
    n_sms = draw(st.integers(min_value=1, max_value=3))
    per_warp = []
    for warp in range(draw(st.integers(min_value=1, max_value=6))):
        sm = draw(st.integers(min_value=0, max_value=n_sms - 1))
        cursor = draw(_POINTS)
        mine = []
        for _ in range(draw(st.integers(min_value=1, max_value=8))):
            dur = draw(st.one_of(st.just(0.0), _POINTS))
            kind = draw(st.sampled_from(
                ["issue", "issue", "stall", "stall", "translation",
                 "memaccess", "gap"]))
            # An event off the warp's SM, now and then.
            where = draw(st.one_of(
                st.just(sm), st.integers(min_value=0,
                                         max_value=n_sms - 1)))
            if kind == "stall":
                reason = draw(st.sampled_from(
                    ["memory", "issue_queue", "issue_queue",
                     "translation", "io", ""]))
                mine.append(ev(warp, "stall", cursor, cursor + dur,
                               reason, sm=where))
            elif kind == "translation":
                mine.append(ev(warp, "translation", cursor, cursor + dur,
                               draw(_details()), sm=where))
            elif kind != "gap":
                mine.append(ev(warp, kind, cursor, cursor + dur,
                               sm=where))
            if draw(st.integers(0, 4)):
                cursor += dur
        if len(mine) > 1 and draw(st.booleans()):
            mine = draw(st.permutations(mine))
        per_warp.append(list(mine))
    tracer = Tracer()
    while any(per_warp):
        queue = draw(st.sampled_from([q for q in per_warp if q]))
        e = queue.pop(0)
        tracer.record(e.warp, e.block, e.kind, e.start, e.end, e.detail,
                      e.sm)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        tracer.record_counter("dram_bytes", draw(_POINTS) * 3, 64.0)
    launch_cycles = draw(st.one_of(st.none(), _POINTS.map(lambda c: c * 2)))
    return tracer, launch_cycles


def _bits(report) -> str:
    """The report as text: ``==`` on the dicts would let ``-0.0`` pass
    for ``0.0`` and ``1`` for ``1.0``."""
    return json.dumps(report.to_dict())


class TestPassAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(launch_traces())
    def test_report_is_bit_identical(self, case):
        tracer, launch_cycles = case
        assert _bits(attribute_tracer(
            tracer, launch_cycles=launch_cycles)) \
            == _bits(_reference_attribute_events(
                tracer.events, launch_cycles=launch_cycles))

    @settings(max_examples=60, deadline=None)
    @given(launch_traces())
    def test_chrome_round_trip_is_bit_identical(self, case):
        # The export sorts events by time: another trace order.
        tracer, launch_cycles = case
        trace = tracer.to_chrome_trace()
        events, _ = events_from_chrome_trace(trace)
        assert _bits(attribute_chrome_trace(
            trace, launch_cycles=launch_cycles)) \
            == _bits(_reference_attribute_events(
                events, launch_cycles=launch_cycles))

    def test_memcpy_launch_is_bit_identical(self):
        # A real launch: 16 warps on 4 SMs, in-order per-warp timelines.
        from repro.gpu import Device
        from repro.telemetry import capture
        from repro.workloads import run_memcpy

        with capture(trace=True) as prof:
            run_memcpy(Device(), use_apointers=True, width=4, nblocks=4,
                       warps_per_block=4, iters_per_thread=4)
        tracer, cycles = prof.traces[0], prof.profiles[0].cycles
        assert _bits(attribute_tracer(tracer, launch_cycles=cycles)) \
            == _bits(_reference_attribute_events(
                tracer.events, launch_cycles=cycles))


# ----------------------------------------------------------------------
# Differential: the launch profile's summary == the report's section
# ----------------------------------------------------------------------
@st.composite
def summary_traces(draw):
    """A :func:`launch_traces` case or the empty trace, now and then
    with one more warp that stalls but never issues."""
    if draw(st.integers(0, 9)) == 0:
        tracer = Tracer()
        launch_cycles = draw(st.one_of(st.none(), _POINTS))
    else:
        tracer, launch_cycles = draw(launch_traces())
    if draw(st.booleans()):
        start = draw(_POINTS)
        tracer.record(99, 0, "stall", start, start + draw(_POINTS),
                      draw(st.sampled_from(
                          ["memory", "issue_queue", "translation"])),
                      draw(st.integers(min_value=0, max_value=2)))
    return tracer, launch_cycles


class TestSummaryAgainstReport:
    """Sections compare as JSON text, as :func:`_bits` compares
    reports: ``-0.0`` must not pass for ``0.0``."""

    @settings(max_examples=budget(200), deadline=None)
    @given(summary_traces())
    @example((Tracer(), None))
    @example((Tracer(), 12.0))
    def test_summary_is_the_reports_section(self, case):
        tracer, launch_cycles = case
        assert json.dumps(summarize_events(
            tracer.rows, launch_cycles=launch_cycles)) \
            == json.dumps(attribute_events(
                tracer.rows, launch_cycles=launch_cycles).to_component())

    @pytest.mark.parametrize("workload", ["memcpy", "graphwalk",
                                          "kv-writeback"])
    def test_profiled_launches_store_the_reports_section(self, workload):
        # perfbench's tiny sizes: every launch traced in full.
        from repro.gpu import Device
        from repro.telemetry import capture
        from repro.workloads import run_graphwalk, run_kvstore, run_memcpy

        run = {
            "memcpy": lambda: run_memcpy(
                Device(), use_apointers=True, width=4, nblocks=2,
                warps_per_block=4, iters_per_thread=4),
            "graphwalk": lambda: run_graphwalk(
                nwarps=4, steps=2, nnodes=8 * 1024, use_tlb=True),
            "kv-writeback": lambda: run_kvstore(
                nwarps=4, records_per_warp=64, ops_per_warp=8,
                num_frames=6),
        }[workload]
        with capture(trace=True, attribution=True) as prof:
            run()
        assert prof.profiles
        for profile, tracer in zip(prof.profiles, prof.traces):
            section = profile.components["attribution"]
            assert section["attributed"] == 1
            assert json.dumps(section) == json.dumps(
                attribute_tracer(tracer, launch_cycles=profile.cycles)
                .to_component())
        # Not a trace of zeros: kv-writeback translates nothing, but
        # every workload leaves SM-cycles with no warp issuing.
        assert any(p.components["attribution"]["critical_path_cycles"]
                   > 0 for p in prof.profiles)
