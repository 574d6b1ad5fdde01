"""``repro-obs`` — the telemetry console.

Four subcommands over what ``repro-experiments`` writes:

* ``attr PATH...`` — read trace JSON written by ``repro-experiments
  --profile-dir`` (or any :meth:`~repro.gpu.trace.Tracer.to_chrome_trace`
  export), run the cycle-attribution analyzer, and print the
  hidden-vs-exposed translation report.  ``--validate`` also
  schema-checks every ``profile-*.json`` found.
* ``spans PATH...`` — causal request-span reports
  (:mod:`repro.telemetry.spans`): slowest requests, per-stage latency
  percentiles, fan-out per fault.
* ``top LIVE_DIR`` — the live dashboard (:mod:`repro.telemetry.top`)
  over a ``--live-dir``.
* ``trend`` — diff the latest ``BENCH_trend.json`` row against the
  previous one; exit 1 on a >10% regression of a tier-1 metric.  This
  is the CI perf gate.

``attr`` and ``spans`` take files or ``--profile-dir`` directories:
directories are scanned for ``trace-*.json`` and ``profile-*.json``,
and a file named ``profile-*.json`` is a profile, anything else a
trace.

Exit codes: 0 ok, 1 regression found, 2 usage / analysis error
(truncated trace, bad schema, missing files, a corrupt line in a live
file, bad threshold).
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
import time


def _iter_inputs(paths: list) -> tuple[list, list]:
    """Expand CLI paths into (trace files, profile files)."""
    traces, profiles = [], []
    for path in paths:
        if os.path.isdir(path):
            traces.extend(sorted(glob.glob(
                os.path.join(path, "trace-*.json"))))
            profiles.extend(sorted(glob.glob(
                os.path.join(path, "profile-*.json"))))
        elif os.path.basename(path).startswith("profile-"):
            profiles.append(path)
        else:
            traces.append(path)
    return traces, profiles


def _cmd_attr(args) -> int:
    from repro.harness.reporting import format_attribution
    from repro.telemetry.attribution import (
        TruncatedTraceError,
        attribute_chrome_trace,
    )
    from repro.telemetry.profile import validate_profile

    traces, profiles = _iter_inputs(args.paths)
    if args.validate:
        for path in profiles:
            with open(path) as f:
                doc = json.load(f)
            try:
                validate_profile(doc)
            except ValueError as exc:
                print(f"{path}: INVALID profile: {exc}",
                      file=sys.stderr)
                return 2
            note = ""
            series = doc["components"]["timeseries"]
            if series["enabled"]:
                note = (f", {series['windows']} sampled "
                        f"windows @ {series['window_cycles']:g} cycles")
            print(f"{path}: valid profile "
                  f"(schema v{doc['version']}{note})")
    if not traces:
        if args.validate and profiles:
            return 0
        print("repro-obs attr: no trace files found "
              "(expected trace-*.json; run repro-experiments with "
              "--profile-dir)", file=sys.stderr)
        return 2
    status = 0
    reports = []
    for path in traces:
        with open(path) as f:
            trace = json.load(f)
        try:
            report = attribute_chrome_trace(trace)
        except TruncatedTraceError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 2
            continue
        except ValueError as exc:
            print(f"{path}: cannot attribute: {exc}", file=sys.stderr)
            status = 2
            continue
        reports.append((path, report))
        if args.json:
            continue
        print(f"-- {path}")
        if report.events and not report.warp_rows:
            print("(trace has no attribution events; profile with "
                  "attribution enabled — repro-experiments "
                  "--attribute)")
        else:
            print(format_attribution(report, markdown=args.markdown))
        print()
    if args.json:
        json.dump({path: r.to_dict() for path, r in reports},
                  sys.stdout, indent=2, sort_keys=True)
        print()
    return status


def _cmd_spans(args) -> int:
    from repro.gpu.trace import events_from_chrome_trace
    from repro.telemetry.spans import (
        collect_requests,
        format_spans_report,
        spans_component,
        stage_percentiles,
    )

    traces, _ = _iter_inputs(args.paths)
    if not traces:
        print("repro-obs spans: no trace files found (expected "
              "trace-*.json; run repro-experiments with --trace and "
              "--profile-dir)", file=sys.stderr)
        return 2
    dumped = {}
    for path in traces:
        with open(path) as f:
            trace = json.load(f)
        events, dropped = events_from_chrome_trace(trace)
        if dropped:
            print(f"{path}: WARNING: {dropped} events dropped at "
                  f"record time; request spans may be incomplete",
                  file=sys.stderr)
        if args.json:
            requests = collect_requests(events)
            dumped[path] = {
                "requests": [r.to_dict() for r in requests],
                "stages": stage_percentiles(requests),
                "component": spans_component(events),
            }
            continue
        print(f"-- {path}")
        print(format_spans_report(events, top=args.top))
        print()
    if args.json:
        json.dump(dumped, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def _cmd_top(args) -> int:
    from repro.telemetry.top import Dashboard

    if not os.path.isdir(args.live_dir):
        print(f"error: {args.live_dir} is not a directory",
              file=sys.stderr)
        return 2
    dash = Dashboard(args.live_dir)
    try:
        if args.once:
            dash.poll()
            print(dash.render())
            return 0
        while True:
            dash.poll()
            # ANSI clear + home; falls out harmlessly on dumb pipes.
            sys.stdout.write("\x1b[2J\x1b[H" + dash.render() + "\n")
            sys.stdout.flush()
            if dash.run_done:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except ValueError as exc:       # a corrupt line in a live file
        print(f"repro-obs top: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # `repro-obs top --once | head` closing early is not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _cmd_trend(args) -> int:
    from repro.telemetry.trend import compare, load_trend

    try:
        doc = load_trend(args.trend_file)
    except (OSError, ValueError) as exc:
        print(f"repro-obs trend: cannot read trend file "
              f"{args.trend_file}: {exc}", file=sys.stderr)
        return 2
    try:
        regressions, lines = compare(doc, threshold=args.threshold)
    except ValueError as exc:
        print(f"repro-obs trend: {exc}", file=sys.stderr)
        return 2
    print(f"trend file: {args.trend_file} "
          f"({len(doc['runs'])} runs)")
    for line in lines:
        print(line)
    if regressions:
        print(f"\n{len(regressions)} tier-1 regression(s) beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for reg in regressions:
            print(f"  {reg.describe()}", file=sys.stderr)
        return 1
    print("no tier-1 regressions")
    return 0


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text}")
    return value


def main(argv=None) -> int:
    from repro.telemetry.trend import (
        DEFAULT_TREND_FILE,
        REGRESSION_THRESHOLD,
    )

    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Telemetry console: cycle attribution, request "
                    "spans, the live dashboard, and the benchmark "
                    "trend gate.")
    sub = parser.add_subparsers(dest="command", required=True)

    attr = sub.add_parser(
        "attr", help="hidden-vs-exposed translation attribution of "
                     "traces",
        description="Cycle attribution for profile/trace output.")
    attr.add_argument(
        "paths", nargs="+",
        help="trace JSON files or --profile-dir directories to "
             "attribute")
    attr.add_argument(
        "--markdown", action="store_true",
        help="render reports as Markdown instead of text")
    attr.add_argument(
        "--json", action="store_true",
        help="dump full reports as JSON instead of rendering")
    attr.add_argument(
        "--validate", action="store_true",
        help="schema-validate every profile-*.json found alongside "
             "the traces")
    attr.set_defaults(func=_cmd_attr)

    spans = sub.add_parser(
        "spans", help="causal request-span reports over traces",
        description="Causal request-span reports over trace exports: "
                    "slowest requests, per-stage latency percentiles, "
                    "fan-out per fault.")
    spans.add_argument(
        "paths", nargs="+",
        help="trace JSON files or --profile-dir directories")
    spans.add_argument(
        "--top", type=int, default=5,
        help="slowest requests to list (default: %(default)s)")
    spans.add_argument(
        "--json", action="store_true",
        help="dump per-request summaries as JSON instead of rendering")
    spans.set_defaults(func=_cmd_spans)

    top = sub.add_parser(
        "top", help="live dashboard over a --live-dir",
        description="Live dashboard over a repro-experiments "
                    "--live-dir (tails heartbeats + window series).")
    top.add_argument(
        "live_dir",
        help="the --live-dir of a running (or finished) "
             "repro-experiments invocation")
    top.add_argument(
        "--interval", type=_positive_seconds, default=1.0,
        metavar="SEC",
        help="redraw period in follow mode (default: %(default)s)")
    top.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (no screen clearing; "
             "CI/script-friendly)")
    top.set_defaults(func=_cmd_top)

    trend = sub.add_parser(
        "trend", help="perf gate: latest trend row vs the previous",
        description="Compare the two latest trend rows; exit 1 on a "
                    "tier-1 regression.")
    trend.add_argument(
        "--trend-file", default=DEFAULT_TREND_FILE,
        help="trend record to compare (default: %(default)s)")
    trend.add_argument(
        "--threshold", type=float, default=REGRESSION_THRESHOLD,
        help="relative tier-1 regression that fails the gate "
             "(default: %(default)s)")
    trend.set_defaults(func=_cmd_trend)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
