"""``repro-experiments`` — regenerate the paper's tables and figures.

Examples::

    repro-experiments --list
    repro-experiments table1 table2
    repro-experiments --all --scale quick --jobs 4
    repro-experiments --all --markdown results.md
    repro-experiments table1 --profile-dir /tmp/profiles

``--jobs N`` fans each experiment's parameter grid out over ``N``
spawn worker processes (:mod:`repro.harness.runner`); rows are
row-for-row identical to a serial run thanks to deterministic
per-point seeding.  A crashed point becomes an error row (and a
non-zero exit) instead of killing the suite.

With ``--profile-dir`` every kernel launch inside an experiment is
profiled (``repro.telemetry``): one ``LaunchProfile`` JSON per launch
(plus Chrome-trace files when running serially — traces stay in the
workers under ``--jobs``), and one merged *suite profile*
(``suite-profile.json``, schema v8 with a ``run.workers`` section)
per experiment, written under ``PROFILE_DIR/<experiment>/``.
``--attribute`` additionally runs the cycle-attribution analyzer on
every launch (:mod:`repro.telemetry.attribution`) and stores its
summary in each profile's ``components.attribution``.

``--trend-file PATH`` appends one schema-stamped row — commit, date,
and each experiment's key metric — to the benchmark trend record
after the run; ``repro-obs trend`` diffs the latest two rows and
fails on tier-1 regressions.

``--timeseries`` turns on cycle-window sampling
(:mod:`repro.telemetry.timeseries`) for every launch: profiles gain a
``components.timeseries`` section holding the sampled
series.  ``--live-dir PATH`` additionally streams the samples as they
happen — ``PATH/<experiment>/series-*.jsonl`` (a header line, then one
stamped window per line: the format sharded-cluster spills use) plus
``heartbeats.jsonl`` — the layout ``repro-obs top PATH/<experiment>``
renders live.  ``--window-cycles N`` sets the
sampling window width; ``--no-progress`` suppresses the stderr
progress line (heartbeat files are still written).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time

from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.reporting import (
    format_markdown,
    format_profile,
    format_result,
)
from repro.harness.runner import resolve_jobs, run_experiment, \
    spawn_executor


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce ActivePointers (ISCA'16) tables/figures.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (see --list)")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--scale", choices=("quick", "full"),
                        default="quick",
                        help="problem sizes (default: quick)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes per experiment grid "
                             "(default: 1 = serial; 0 = one per core)")
    parser.add_argument("--eviction-policy", metavar="POLICY",
                        choices=("clock", "fifo", "lru", "random"),
                        help="page-cache eviction policy override, for "
                             "experiments that take one (e.g. "
                             "ablation_eviction, ablation_readahead)")
    parser.add_argument("--markdown", metavar="PATH",
                        help="also write results as Markdown")
    parser.add_argument("--profile-dir", metavar="PATH",
                        help="profile every launch; write per-launch "
                             "JSON profiles, Chrome traces, and a "
                             "merged suite profile here")
    parser.add_argument("--attribute", action="store_true",
                        help="run the cycle-attribution analyzer on "
                             "every launch (implies profiling; the "
                             "summary lands in the profiles' "
                             "components.attribution — requires "
                             "--profile-dir)")
    parser.add_argument("--trend-file", metavar="PATH",
                        help="append one schema-stamped row (commit, "
                             "date, key metric per experiment) to "
                             "this benchmark trend record; compare "
                             "rows with repro-obs trend")
    parser.add_argument("--timeseries", action="store_true",
                        help="sample every launch in cycle windows "
                             "(implies profiling; the series lands in "
                             "the profiles' components.timeseries)")
    parser.add_argument("--live-dir", metavar="PATH",
                        help="stream sampled windows and worker "
                             "heartbeats here as the run progresses "
                             "(implies --timeseries; watch with "
                             "repro-obs top PATH/<experiment>)")
    parser.add_argument("--window-cycles", type=float, default=None,
                        metavar="N",
                        help="sampling window width in simulated "
                             "cycles (default: the sampler's)")
    parser.add_argument("--no-progress", action="store_true",
                        help="never draw the stderr progress line "
                             "(live files are still written)")
    args = parser.parse_args(argv)

    if args.attribute and not args.profile_dir:
        parser.error("--attribute requires --profile-dir (the "
                     "attribution summary is written with the "
                     "profiles)")
    if args.timeseries and not (args.live_dir or args.profile_dir):
        parser.error("--timeseries needs somewhere to land: give "
                     "--profile-dir (series in the profiles) and/or "
                     "--live-dir (streaming files)")

    if args.list:
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0

    names = list(ALL_EXPERIMENTS) if args.all else args.experiments
    if not names:
        parser.print_usage()
        print("error: give experiment ids, or --all / --list",
              file=sys.stderr)
        return 2
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"error: unknown experiments {unknown}; see --list",
              file=sys.stderr)
        return 2

    jobs = resolve_jobs(args.jobs)
    # One shared spawn pool for the whole invocation: worker start-up
    # (interpreter + imports) is paid once, not per experiment.
    executor = spawn_executor(jobs) if jobs > 1 else None
    rc = 0
    markdown_parts = []
    trend_metrics = {}
    try:
        for name in names:
            started = time.time()
            fn = ALL_EXPERIMENTS[name]
            exp = getattr(fn, "experiment", None)
            try:
                if exp is None:
                    # Legacy callable (tests monkeypatch these): run
                    # directly, fail-fast.
                    result = _run_legacy(fn, args)
                    report = None
                else:
                    live = None
                    if args.live_dir or args.timeseries:
                        from repro.harness.runner import LiveOptions
                        live = LiveOptions(
                            live_dir=(os.path.join(args.live_dir, name)
                                      if args.live_dir else None),
                            window_cycles=args.window_cycles)
                    from repro.harness.runner import Instrumentation
                    report = run_experiment(
                        exp, scale=args.scale, jobs=jobs,
                        options={"eviction_policy":
                                 args.eviction_policy},
                        instrument=Instrumentation(
                            profile=bool(args.profile_dir),
                            attribution=args.attribute,
                            live=live),
                        progress=(False if args.no_progress
                                  else None),
                        executor=executor)
                    result = report.result
            except Exception:
                # Don't lose the experiments that already finished:
                # flush a partial report, then surface the failure
                # (non-zero exit via the re-raise).
                markdown_parts.append(
                    f"### {name} — FAILED after "
                    f"{time.time() - started:.1f}s\n")
                if args.markdown:
                    _write_markdown(args, markdown_parts, partial=True)
                print(f"error: experiment {name} raised; "
                      + (f"partial results in {args.markdown}"
                         if args.markdown else
                         "no --markdown to save to"),
                      file=sys.stderr)
                raise
            elapsed = time.time() - started
            print(format_result(result))
            print(f"[{name} finished in {elapsed:.1f}s"
                  + (f", {jobs} workers" if jobs > 1 else "") + "]")
            if result.errors:
                rc = 1
                for err in result.errors:
                    print(f"error: {name} point {err['params']}: "
                          f"{err['error']}", file=sys.stderr)
            if args.profile_dir and report is not None \
                    and report.profiles:
                _write_profiles(args.profile_dir, name, report)
            if args.trend_file and exp is not None \
                    and exp.trend is not None and not result.errors:
                try:
                    metric = exp.trend(result)
                except Exception as exc:   # noqa: BLE001 — trend is
                    # advisory; a broken extractor must not fail the run
                    print(f"warning: trend metric for {name} "
                          f"failed: {exc}", file=sys.stderr)
                    metric = None
                if metric is not None:
                    trend_metrics[name] = metric
            print()
            markdown_parts.append(format_markdown(result,
                                                  elapsed=elapsed))
    finally:
        if executor is not None:
            executor.shutdown()

    if args.trend_file:
        if trend_metrics:
            from repro.telemetry.trend import append_run
            append_run(args.trend_file, trend_metrics,
                       scale=args.scale)
            print(f"trend row appended to {args.trend_file} "
                  f"({len(trend_metrics)} metric(s): "
                  f"{', '.join(sorted(trend_metrics))})")
        else:
            print(f"no trend metrics collected; {args.trend_file} "
                  "unchanged (experiments without a trend extractor, "
                  "or with failed points)", file=sys.stderr)

    if args.markdown:
        _write_markdown(args, markdown_parts)
        print(f"markdown written to {args.markdown}")
    return rc


def _run_legacy(fn, args):
    """Direct call of a plain (non-registry) experiment callable."""
    kwargs = {"scale": args.scale}
    if args.eviction_policy:
        # Only experiments that expose the knob receive it; the rest
        # run unchanged rather than erroring on an unknown kwarg.
        params = inspect.signature(fn).parameters
        if "eviction_policy" in params:
            kwargs["eviction_policy"] = args.eviction_policy
    return fn(**kwargs)


def _write_profiles(profile_dir, name, report) -> None:
    """Write per-launch docs, traces, and the merged suite profile."""
    from repro.telemetry import write_profile_docs

    out_dir = os.path.join(profile_dir, name)
    written = write_profile_docs(out_dir, report.profiles,
                                 report.tracers)
    if report.merged is not None:
        path = os.path.join(out_dir, "suite-profile.json")
        with open(path, "w") as f:
            json.dump(report.merged, f, indent=2, sort_keys=True)
        written.append(path)
        print(format_profile(report.merged))
    print(f"[{len(report.profiles)} launch profiles, "
          f"{len(written)} files -> {out_dir}]")


def _write_markdown(args, parts: list, partial: bool = False) -> None:
    parent = os.path.dirname(args.markdown)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(args.markdown, "w") as f:
        header = f"# Reproduction results (scale={args.scale})"
        if partial:
            header += " — PARTIAL (an experiment failed)"
        f.write(header + "\n\n")
        f.write("\n".join(parts))


if __name__ == "__main__":
    sys.exit(main())
