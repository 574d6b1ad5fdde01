"""Causal request spans (repro.telemetry.spans / repro-obs spans).

The layers mint a request id at warp fault / syscall entry and stamp
every nested span with it; this module's job is grouping those spans
back into per-request rows, percentile tables, and the schema-v8
``components.spans`` section — all deterministic for a deterministic
trace.
"""

import json

from repro.gpu.trace import TraceEvent, Tracer
from repro.telemetry.cli import main
from repro.telemetry.spans import (
    PERCENTILES,
    collect_requests,
    format_spans_report,
    spans_component,
    stage_percentiles,
)


def ev(kind, start, end, req, warp=0, sm=0, detail=""):
    return TraceEvent(warp=warp, block=0, kind=kind, start=start,
                      end=end, detail=detail, sm=sm, req=req)


#: One syscall that faulted twice (nested spans share the outer id),
#: one lone translation fault, and an unstamped engine macro-op.
EVENTS = [
    ev("syscall", 0.0, 100.0, "0:1:0", warp=1),
    ev("major_fault", 10.0, 60.0, "0:1:0", warp=1),
    ev("page_in", 20.0, 50.0, "0:1:0", warp=1),
    ev("translation_fault", 5.0, 25.0, "0:2:0", warp=2),
    ev("compute", 0.0, 40.0, ""),
]


class TestCollectRequests:
    def test_groups_by_request_id(self):
        rows = collect_requests(EVENTS)
        assert [r.req for r in rows] == ["0:1:0", "0:2:0"]
        syscall, fault = rows
        assert syscall.spans == 3
        assert syscall.fanout == 2
        assert syscall.start == 0.0 and syscall.end == 100.0
        assert syscall.duration == 100.0
        assert syscall.stages == {"syscall": 100.0,
                                  "major_fault": 50.0,
                                  "page_in": 30.0}
        assert fault.spans == 1 and fault.fanout == 0

    def test_unstamped_events_ignored(self):
        assert collect_requests([ev("compute", 0.0, 10.0, "")]) == []

    def test_sorted_by_start_then_id(self):
        events = [ev("page_in", 5.0, 6.0, "0:9:0"),
                  ev("page_in", 5.0, 6.0, "0:1:0"),
                  ev("page_in", 1.0, 2.0, "0:5:0")]
        rows = collect_requests(events)
        assert [r.req for r in rows] == ["0:5:0", "0:1:0", "0:9:0"]

    def test_to_dict_round_trips_json(self):
        doc = collect_requests(EVENTS)[0].to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["fanout"] == 2 and doc["duration"] == 100.0


class TestStagePercentiles:
    def test_nearest_rank_over_per_request_totals(self):
        # Three requests spending 10/20/30 cycles in page_in: one
        # sample each (a request's spans sum before ranking).
        events = []
        for i, total in enumerate((10.0, 20.0, 30.0)):
            events.append(ev("page_in", 0.0, total / 2, f"0:{i}:0"))
            events.append(ev("page_in", 50.0, 50.0 + total / 2,
                             f"0:{i}:0"))
        table = stage_percentiles(collect_requests(events))
        row = table["page_in"]
        assert row["count"] == 3
        assert row["p50"] == 20.0
        assert row["p90"] == row["p99"] == 30.0

    def test_empty(self):
        assert stage_percentiles([]) == {}


class TestSpansComponent:
    def test_counts(self):
        comp = spans_component(EVENTS)
        assert comp == {"requests": 2, "spans": 4,
                        "span_cycles": 100.0 + 50.0 + 30.0 + 20.0}

    def test_zero_without_stamps(self):
        assert spans_component([ev("compute", 0.0, 9.0, "")]) \
            == {"requests": 0, "spans": 0, "span_cycles": 0.0}


class TestReport:
    def test_report_lists_slowest_and_percentiles(self):
        report = format_spans_report(EVENTS, top=1)
        assert "requests: 2  spans: 4" in report
        assert "0:1:0" in report            # the slowest request
        assert "0:2:0" not in report.split("per-stage")[0]
        for q in PERCENTILES:
            assert f"p{int(q * 100)}" in report
        assert "translation_fault" in report

    def test_report_without_spans_points_at_tracing(self):
        assert "--trace" in format_spans_report([])


class TestCli:
    def _write_trace(self, path):
        tracer = Tracer()
        for e in EVENTS:
            tracer.record(e.warp, e.block, e.kind, e.start, e.end,
                          e.detail, sm=e.sm, req=e.req)
        with open(path, "w") as f:
            json.dump(tracer.to_chrome_trace(), f)

    def test_no_traces_is_usage_error(self, tmp_path, capsys):
        assert main(["spans", str(tmp_path)]) == 2
        assert "no trace files" in capsys.readouterr().err

    def test_renders_report(self, tmp_path, capsys):
        self._write_trace(tmp_path / "trace-000.json")
        assert main(["spans", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "slowest" in out and "0:1:0" in out

    def test_json_dump(self, tmp_path, capsys):
        self._write_trace(tmp_path / "trace-000.json")
        assert main(["spans", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (path, sub), = doc.items()
        assert sub["component"]["requests"] == 2
        assert [r["req"] for r in sub["requests"]] \
            == ["0:1:0", "0:2:0"]

    def test_dropped_events_warn(self, tmp_path, capsys):
        tracer = Tracer(max_events=2)
        for e in EVENTS:
            tracer.record(e.warp, e.block, e.kind, e.start, e.end,
                          e.detail, sm=e.sm, req=e.req)
        assert tracer.dropped
        with open(tmp_path / "trace-000.json", "w") as f:
            json.dump(tracer.to_chrome_trace(), f)
        assert main(["spans", str(tmp_path)]) == 0
        assert "WARNING" in capsys.readouterr().err
