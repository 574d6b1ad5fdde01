"""The benchmark trend record: ``BENCH_trend.json``.

Every ``repro-experiments --all --quick`` run (and the CI bench-smoke
job) appends one *run row* per experiment to a schema-stamped JSON file:
which commit, when, at what scale, and one key metric per experiment
(extracted by the experiment's registered ``trend`` callable).  The file
is the repo's long-term performance memory — ``repro-obs trend``
diffs the latest row against the previous one and fails (non-zero exit)
on a >10% regression of any tier-1 metric, which is what gates perf in
CI.

Rows are append-only; the file stays human-diffable JSON so regressions
show up in review.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import time
from dataclasses import dataclass

TREND_SCHEMA = "repro.telemetry/bench-trend"
TREND_VERSION = 1

#: Relative change of a tier-1 metric (in the harmful direction) above
#: which ``compare`` reports a regression.
REGRESSION_THRESHOLD = 0.10

DEFAULT_TREND_FILE = "BENCH_trend.json"

__all__ = [
    "DEFAULT_TREND_FILE",
    "REGRESSION_THRESHOLD",
    "Regression",
    "TREND_SCHEMA",
    "TREND_VERSION",
    "append_run",
    "compare",
    "current_commit",
    "load_trend",
]


def _git(*args: str) -> str | None:
    """Stripped standard output of ``git args``, or ``None`` when git
    is missing or fails."""
    try:
        out = subprocess.run(["git", *args], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def current_commit() -> str:
    """Short hash of HEAD, suffixed ``-dirty`` when tracked files differ
    from HEAD (the numbers then come from no commit), or ``"unknown"``
    outside a git checkout."""
    commit = _git("rev-parse", "--short", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    if not commit or status is None:
        return "unknown"
    return f"{commit}-dirty" if status else commit


def load_trend(path: str) -> dict:
    """Load a trend file, or a fresh empty document if absent."""
    if not os.path.exists(path):
        return {"schema": TREND_SCHEMA, "version": TREND_VERSION,
                "runs": []}
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != TREND_SCHEMA:
        raise ValueError(
            f"{path}: bad schema marker {doc.get('schema')!r}")
    if doc.get("version") != TREND_VERSION:
        raise ValueError(
            f"{path}: unsupported version {doc.get('version')!r}")
    if not isinstance(doc.get("runs"), list):
        raise ValueError(f"{path}: runs must be a list")
    return doc


def append_run(path: str, metrics: dict, *, commit: str | None = None,
               date: str | None = None, scale: str = "quick") -> dict:
    """Append one run row to the trend file and rewrite it.

    ``metrics`` maps experiment name to a metric record::

        {"metric": "bandwidth", "value": 123.4, "unit": "GB/s",
         "higher_is_better": True, "tier1": True}

    Empty ``metrics`` appends nothing and leaves the file untouched.
    """
    if not metrics:
        return load_trend(path)
    doc = load_trend(path)
    row = {
        "commit": commit if commit is not None else current_commit(),
        "date": (date if date is not None
                 else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())),
        "scale": scale,
        "metrics": {name: dict(rec) for name, rec in
                    sorted(metrics.items())},
    }
    doc["runs"].append(row)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")
    return doc


@dataclass
class Regression:
    """One tier-1 metric that moved >threshold in the bad direction."""

    experiment: str
    metric: str
    previous: float
    latest: float
    change: float          # signed relative change, + = value went up
    unit: str = ""

    def describe(self) -> str:
        return (f"{self.experiment}.{self.metric}: "
                f"{self.previous:g} -> {self.latest:g} {self.unit} "
                f"({self.change:+.1%})")


def compare(doc: dict, *, threshold: float = REGRESSION_THRESHOLD
            ) -> tuple[list, list]:
    """Diff the latest run row against the previous one.

    Returns ``(regressions, lines)``: tier-1 metrics whose value moved
    more than ``threshold`` in the harmful direction, plus one
    human-readable delta line per metric present in both rows.  Metrics
    appearing or disappearing between the rows get their own lines,
    with a ``WARNING`` marker when the metric is tier-1 — a vanished
    tier-1 metric cannot regress, which is exactly how a perf gate
    silently rots.  Fewer than two rows compares nothing (no
    regressions, a note line).  ``threshold`` must be finite and
    non-negative (``ValueError`` otherwise): a NaN would pass every
    regression, a negative one flag unchanged metrics.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, "
                         f"got {threshold!r}")
    runs = doc.get("runs", [])
    if len(runs) < 2:
        return [], [f"({len(runs)} run(s) recorded; nothing to compare)"]
    prev, last = runs[-2], runs[-1]
    lines = [f"comparing {prev.get('commit', '?')} "
             f"({prev.get('date', '?')}) -> {last.get('commit', '?')} "
             f"({last.get('date', '?')})"]
    regressions = []
    for name, rec in sorted(last.get("metrics", {}).items()):
        before = prev.get("metrics", {}).get(name)
        if before is None or before.get("metric") != rec.get("metric"):
            warn = (" << WARNING: tier-1 metric appeared"
                    if rec.get("tier1") else "")
            lines.append(f"  {name}.{rec.get('metric')}: new metric, "
                         f"no baseline{warn}")
            continue
        p, v = before.get("value"), rec.get("value")
        if not isinstance(p, (int, float)) \
                or not isinstance(v, (int, float)):
            continue
        change = (v - p) / abs(p) if p else 0.0
        unit = rec.get("unit", "")
        higher = bool(rec.get("higher_is_better", True))
        harmful = -change if higher else change
        flag = ""
        if rec.get("tier1") and harmful > threshold:
            regressions.append(Regression(
                experiment=name, metric=str(rec.get("metric")),
                previous=float(p), latest=float(v), change=change,
                unit=unit))
            flag = "  << REGRESSION"
        lines.append(f"  {name}.{rec.get('metric')}: {p:g} -> {v:g} "
                     f"{unit} ({change:+.1%}){flag}")
    # A metric silently vanishing is how a perf gate rots: say so.  A
    # renamed metric (same experiment, different ``metric`` field)
    # shows up as removed + appeared.
    last_metrics = last.get("metrics", {})
    for name, before in sorted(prev.get("metrics", {}).items()):
        after = last_metrics.get(name)
        if after is not None \
                and after.get("metric") == before.get("metric"):
            continue
        warn = (" << WARNING: tier-1 metric disappeared"
                if before.get("tier1") else "")
        lines.append(f"  {name}.{before.get('metric')}: removed "
                     f"(was {before.get('value')}){warn}")
    return regressions, lines
