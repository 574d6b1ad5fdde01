"""Text rendering of experiment results and launch profiles."""

from __future__ import annotations

import math

from repro.harness.registry import Column, ExperimentResult


def _header(col) -> str:
    """Column header: the unified schema's unit-annotated form when the
    column carries metadata, the bare name otherwise."""
    return col.header if isinstance(col, Column) else str(col)


def format_result(result: ExperimentResult) -> str:
    """Render one experiment as an aligned text table.

    Column alignment comes from the unified schema when available
    (:meth:`Column.is_numeric`); plain-string columns fall back to
    value sniffing (every present value an int/float -> right-align).
    Failed grid points (``result.errors``) render below the table.
    """
    cols = result.columns
    rows = [[_cell(row.get(c, "")) for c in cols] for row in result.rows]
    numeric = [_column_numeric(result.rows, c) for c in cols]
    headers = [_header(c) for c in cols]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows
              else len(h) for i, h in enumerate(headers)]
    sep = "-+-".join("-" * w for w in widths)
    lines = [
        f"== {result.exp_id}: {result.title} ==",
        " | ".join(_align(h, w, n)
                   for h, w, n in zip(headers, widths, numeric)),
        sep,
    ]
    for r in rows:
        lines.append(" | ".join(_align(v, w, n)
                                for v, w, n in zip(r, widths, numeric)))
    if result.notes:
        lines.append(f"note: {result.notes}")
    for err in result.errors:
        lines.append(f"ERROR: point {err.get('params')}: "
                     f"{err.get('error')}")
    return "\n".join(lines)


def format_markdown(result: ExperimentResult,
                    elapsed: float | None = None) -> str:
    """Render one experiment as a Markdown table (for EXPERIMENTS.md)."""
    cols = result.columns
    lines = [
        f"### {result.exp_id} — {result.title}",
        "",
        "| " + " | ".join(_header(c) for c in cols) + " |",
        "|" + "|".join("---" for _ in cols) + "|",
    ]
    for row in result.rows:
        lines.append(
            "| " + " | ".join(_cell(row.get(c, "")) for c in cols) + " |")
    if result.errors:
        lines.append("")
        for err in result.errors:
            lines.append(f"- **failed point** `{err.get('params')}`: "
                         f"{err.get('error')}")
    if result.notes:
        lines.extend(["", f"*{result.notes}*"])
    if elapsed is not None:
        lines.extend(["", f"*wall time: {elapsed:.1f}s*"])
    lines.append("")
    return "\n".join(lines)


def format_profile(profile) -> str:
    """Stall / bandwidth summary of one launch profile.

    Accepts a :class:`~repro.telemetry.LaunchProfile` or its
    ``to_dict()`` document; renders the headline utilisation figures
    and a stall-reason table sorted by cost.
    """
    doc = profile.to_dict() if hasattr(profile, "to_dict") else profile
    launch, issue = doc["launch"], doc["issue"]
    dram, pcie = doc["dram"], doc["pcie"]
    cycles = launch["cycles"]
    lines = [
        f"== profile #{doc['index']}: {doc['name']} ==",
        f"launch: grid={launch['grid']} x {launch['block_threads']} "
        f"threads, {launch['blocks_per_sm']} blocks/SM, "
        f"{cycles:.0f} cycles ({launch['seconds'] * 1e3:.3f} ms)",
        f"issue : {100 * issue['slot_utilization']:.1f}% of slots, "
        f"{issue['instructions_per_cycle']:.2f} instr/cycle",
        f"dram  : {dram['bandwidth_gbs']:.1f} GB/s, server occupancy "
        f"{100 * dram['occupancy']:.1f}%, mean queue "
        f"{dram['mean_queue_cycles']:.1f} cycles/access",
        f"pcie  : {pcie['bytes']} bytes, occupancy "
        f"{100 * pcie['occupancy']:.1f}%",
    ]
    sms = doc.get("sms") or []
    if sms:
        utils = [s["utilization"] for s in sms]
        lines.append(
            f"SMs   : utilization mean {100 * _mean(utils):.1f}% "
            f"min {100 * min(utils):.1f}% max {100 * max(utils):.1f}% "
            f"({len(sms)} SMs)")
    stalls = doc.get("stalls") or {}
    if stalls and cycles:
        lines.append("warp stalls (cycles, x span):")
        for reason, value in sorted(stalls.items(),
                                    key=lambda kv: -kv[1]):
            lines.append(f"  {reason:16s} {value:14.0f} "
                         f"{value / cycles:8.2f}x")
    for kind, counters in sorted((doc.get("components") or {}).items()):
        shown = ", ".join(f"{k}={_cell(v)}"
                          for k, v in sorted(counters.items()) if v)
        lines.append(f"{kind}: {shown or '(all zero)'}")
    # Silent data loss must not stay silent: truncated traces fail
    # repro-obs attr much later, and capped series quietly thin out.
    trace = doc.get("trace") or {}
    if trace.get("dropped"):
        lines.append(
            f"WARNING: trace dropped {trace['dropped']} events at "
            f"record time (raise max_trace_events); attribution and "
            f"request-span reports will be incomplete")
    series = (doc.get("components") or {}).get("timeseries") or {}
    if series.get("dropped_windows"):
        lines.append(
            f"WARNING: timeseries dropped {series['dropped_windows']} "
            f"windows past the in-profile retention cap (widen "
            f"window_cycles or raise max_windows); the streamed sink "
            f"kept them")
    return "\n".join(lines)


def format_attribution(report, *, markdown: bool = False) -> str:
    """Render a cycle-attribution report (text or Markdown).

    Accepts an
    :class:`~repro.telemetry.attribution.AttributionReport` or its
    ``to_dict()`` document.  The text form leads with the headline
    number — how much translation work was hidden inside the
    memory-latency bubble — then the launch critical path and the
    warp-level stall breakdown.
    """
    doc = report.to_dict() if hasattr(report, "to_dict") else report
    tr = doc.get("translation", {})
    cycles = doc.get("launch_cycles", 0.0)
    crit = doc.get("critical_path", {})
    stalls = doc.get("stall_cycles", {})

    def pct(x, base):
        return f"{100 * x / base:.1f}%" if base else "n/a"

    if markdown:
        lines = [
            "### Cycle attribution",
            "",
            f"- launch: {cycles:.0f} cycles, {doc.get('warps', 0)} "
            f"warps on {doc.get('sms', 0)} SMs "
            f"({doc.get('events', 0)} trace events)",
            f"- translation: {tr.get('total', 0.0):.0f} cycles "
            f"({tr.get('events', 0)} requests) — "
            f"**{100 * tr.get('hidden_fraction', 0.0):.1f}% hidden**, "
            f"{tr.get('exposed', 0.0):.0f} exposed",
            f"- critical path (no warp issuing): "
            f"{doc.get('critical_path_cycles', 0.0):.0f} cycles "
            f"({pct(doc.get('critical_path_cycles', 0.0), cycles * max(doc.get('sms', 1), 1))} of SM time)",
            "",
            "| critical-path reason | cycles |",
            "|---|---|",
        ]
        for reason, value in sorted(crit.items(), key=lambda kv: -kv[1]):
            lines.append(f"| {reason} | {value:.0f} |")
        lines.append("")
        return "\n".join(lines)

    lines = [
        "== cycle attribution ==",
        f"launch : {cycles:.0f} cycles, {doc.get('warps', 0)} warps on "
        f"{doc.get('sms', 0)} SMs ({doc.get('events', 0)} events)",
        f"translation : {tr.get('total', 0.0):.0f} cycles over "
        f"{tr.get('events', 0)} requests "
        f"({tr.get('issue_slots', 0.0):.0f} issue slots)",
        f"  hidden  : {tr.get('hidden', 0.0):14.0f} "
        f"({100 * tr.get('hidden_fraction', 0.0):.1f}%)  "
        "<- absorbed by the memory-latency bubble",
        f"  exposed : {tr.get('exposed', 0.0):14.0f} "
        f"({100 * (1 - tr.get('hidden_fraction', 0.0)):.1f}%)  "
        "<- on the warp with no concurrent issue",
        f"critical path : "
        f"{doc.get('critical_path_cycles', 0.0):.0f} SM-cycles with no "
        "warp issuing, attributed to:",
    ]
    for reason, value in sorted(crit.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {reason:16s} {value:14.0f}")
    if stalls:
        lines.append("warp-level stalls (all warps, cycles):")
        for reason, value in sorted(stalls.items(),
                                    key=lambda kv: -kv[1]):
            lines.append(f"  {reason:16s} {value:14.0f}")
    idle = doc.get("idle_cycles", 0.0)
    issue = doc.get("issue_cycles", 0.0)
    lines.append(f"warp totals: issue {issue:.0f}, idle {idle:.0f} "
                 "(per-warp rows: hidden + exposed + idle = cycles)")
    return "\n".join(lines)


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _align(value: str, width: int, numeric: bool) -> str:
    return value.rjust(width) if numeric else value.ljust(width)


def _column_numeric(rows, col) -> bool:
    """Alignment for one column: schema metadata first, then sniffing."""
    if isinstance(col, Column):
        hint = col.is_numeric()
        if hint is not None:
            return hint
    return _is_numeric_column(rows, col)


def _is_numeric_column(rows, col) -> bool:
    """True when every present value is an int/float (bools are text)."""
    seen = False
    for row in rows:
        value = row.get(col)
        if value is None or value == "":
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        seen = True
    return seen


def _cell(value) -> str:
    """One table cell.  ``None`` and non-finite floats render explicitly
    so a broken measurement is visible instead of masquerading as a
    number (``nan`` used to print unlabeled)."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+inf" if value > 0 else "-inf"
        if value == 0:
            return "0"      # not "-0" for a negative zero
        return f"{value:g}"
    return str(value)
