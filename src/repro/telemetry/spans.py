"""Causal request spans in trace exports (``repro-obs spans``).

The paging/translation/syscall layers stamp every span they record
with a *request id* minted at warp fault / syscall entry
(:meth:`repro.gpu.kernel.WarpContext.begin_request`), so one logical
request — a syscall whose page loop faults, whose fault stages a PCIe
transfer, whose streaming pattern triggers readahead — appears in the
Chrome trace as a group of spans sharing one ``args.req``.  This
module groups them back into per-request summaries and reports:

* the slowest requests, with a per-stage cycle breakdown;
* per-stage latency percentiles (p50/p90/p99) across all requests;
* fan-out per request (child spans under the minting span).

Inputs are the ``trace-*.json`` files written by ``repro-experiments
--profile-dir`` or :meth:`Profiler.write` — including merged cluster
traces, whose request ids are rebased per device and therefore stay
distinct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.gpu.trace import TraceEvent, as_rows

__all__ = [
    "RequestSummary",
    "collect_requests",
    "format_spans_report",
    "spans_component",
    "stage_percentiles",
]

#: Percentiles the per-stage table reports (nearest-rank).
PERCENTILES = (0.50, 0.90, 0.99)


@dataclass
class RequestSummary:
    """All spans of one causal request, aggregated."""

    req: str
    warp: int
    sm: int
    start: float
    end: float
    spans: int = 0
    #: Total span-cycles per stage kind ("syscall", "page_in", ...).
    stages: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def fanout(self) -> int:
        """Child spans under the minting span (0 = a lone span)."""
        return max(self.spans - 1, 0)

    def to_dict(self) -> dict:
        return {
            "req": self.req,
            "warp": self.warp,
            "sm": self.sm,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "spans": self.spans,
            "fanout": self.fanout,
            "stages": dict(sorted(self.stages.items())),
        }


def collect_requests(events: Iterable[TraceEvent]) -> list:
    """Group request-stamped spans into :class:`RequestSummary` rows,
    sorted by request start time (ties broken by id) — deterministic
    for a deterministic trace."""
    requests: dict[str, RequestSummary] = {}
    for e in events:
        if not e.req:
            continue
        summary = requests.get(e.req)
        if summary is None:
            summary = RequestSummary(req=e.req, warp=e.warp, sm=e.sm,
                                     start=e.start, end=e.end)
            requests[e.req] = summary
        else:
            summary.start = min(summary.start, e.start)
            summary.end = max(summary.end, e.end)
        summary.spans += 1
        summary.stages[e.kind] = (summary.stages.get(e.kind, 0.0)
                                  + e.duration)
    return sorted(requests.values(), key=lambda r: (r.start, r.req))


def _percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (empty -> 0)."""
    if not ordered:
        return 0.0
    rank = max(int(math.ceil(q * len(ordered))), 1)
    return ordered[rank - 1]


def stage_percentiles(requests: list) -> dict:
    """Per-stage span-cycle percentiles across requests.

    For each stage kind, the distribution is the per-request total
    cycles spent in that stage (a request faulting three pages
    contributes one sample: the sum of its three ``page_in`` spans).
    """
    samples: dict[str, list] = {}
    for r in requests:
        for kind, cycles in r.stages.items():
            samples.setdefault(kind, []).append(cycles)
    out = {}
    for kind, vals in sorted(samples.items()):
        vals.sort()
        row = {"count": len(vals)}
        for q in PERCENTILES:
            row[f"p{int(q * 100)}"] = _percentile(vals, q)
        out[kind] = row
    return out


def spans_component(records: Iterable) -> dict:
    """The ``components.spans`` section for one trace: its rows
    (:attr:`Tracer.rows <repro.gpu.trace.Tracer.rows>`) or events."""
    requests = 0
    spans = 0
    span_cycles = 0.0
    seen: set[str] = set()
    for row in as_rows(records):
        req = row[7]
        if not req:
            continue
        spans += 1
        span_cycles += row[4] - row[3]
        if req not in seen:
            seen.add(req)
            requests += 1
    return {"requests": requests, "spans": spans,
            "span_cycles": span_cycles}


def format_spans_report(events: Iterable[TraceEvent], *,
                        top: int = 5) -> str:
    """Human-readable report over one trace's request spans."""
    requests = collect_requests(events)
    if not requests:
        return ("(trace has no request-stamped spans; profile with "
                "tracing enabled — repro-experiments --trace)")
    total_spans = sum(r.spans for r in requests)
    fanouts = sorted(r.fanout for r in requests)
    lines = [
        f"requests: {len(requests)}  spans: {total_spans}  "
        f"fan-out mean: {sum(fanouts) / len(fanouts):.2f}  "
        f"max: {fanouts[-1]}",
        "",
        f"slowest {min(top, len(requests))} requests (cycles):",
    ]
    slowest = sorted(requests, key=lambda r: (-r.duration, r.req))
    for r in slowest[:top]:
        stages = " ".join(f"{kind}={cycles:.0f}" for kind, cycles
                          in sorted(r.stages.items()))
        lines.append(f"  {r.req:16s} warp {r.warp:<4d} sm {r.sm:<3d} "
                     f"{r.duration:10.0f}  {stages}")
    lines.append("")
    lines.append("per-stage latency percentiles "
                 "(cycles per request):")
    header = "  {:18s} {:>7s}".format("stage", "count")
    for q in PERCENTILES:
        header += f" {'p' + str(int(q * 100)):>10s}"
    lines.append(header)
    for kind, row in stage_percentiles(requests).items():
        line = f"  {kind:18s} {row['count']:7d}"
        for q in PERCENTILES:
            line += f" {row[f'p{int(q * 100)}']:10.0f}"
        lines.append(line)
    return "\n".join(lines)
