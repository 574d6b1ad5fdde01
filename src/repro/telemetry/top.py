"""A live dashboard over a running experiment suite (``repro-obs top``).

Point it at the ``--live-dir`` of a ``repro-experiments`` run (any
number of jobs) and it tails the two streams the runner writes there:

* ``heartbeats.jsonl`` — lifecycle + rate-limited window beats from
  every worker (progress, ETA, freshest per-SM busy fractions);
* ``series-*.jsonl`` — the full-resolution cycle-window series, one
  file per grid point (exact DRAM/PCIe byte totals, fault counters,
  component gauges), in the one series format: a header line, then
  one stamped window per line.

Rendering is plain text: per-SM utilisation bars, page-cache /
TLB / readahead hit rates, DRAM and PCIe throughput in bytes per
simulated cycle, and a completion ETA.  ``--once`` prints a single
frame (CI-friendly); the default follow mode redraws every
``--interval`` seconds until the run's ``run_done`` heartbeat lands
(or Ctrl-C).

Everything is read-only and incremental — the dashboard keeps a byte
offset and a line count per file and parses only the lines appended
since the last poll (:func:`~repro.telemetry.timeseries.read_jsonl`, an
unfinished last line waits for the next poll), so tailing a big run
stays cheap.  A complete line that does not parse raises
``ValueError`` naming the file and line.
"""

from __future__ import annotations

import glob
import os
import time
from typing import Optional

from repro.harness.heartbeat import HEARTBEATS_NAME, cache_hit_rate
from repro.telemetry.timeseries import read_jsonl

BAR_WIDTH = 24


class Dashboard:
    """Incremental reader + renderer for one live directory."""

    def __init__(self, live_dir: str):
        self.live_dir = live_dir
        # path -> (bytes consumed, lines consumed)
        self._read: dict[str, tuple[int, int]] = {}
        # Progress (from heartbeats)
        self.experiment = ""
        self.points_total = 0
        self.points_done = 0
        self.errors = 0
        self.jobs = 1
        self.run_done = False
        self.first_wall: Optional[float] = None
        self.last_wall: Optional[float] = None
        self.last_window_beat: Optional[dict] = None
        self.worker_pids: set = set()
        # Series totals (from series-*.jsonl, full resolution)
        self.windows = 0
        self.dram_bytes = 0.0
        self.pcie_bytes = 0.0
        self.cycles = 0.0                    # sum over points of max t1
        self._point_t1: dict = {}            # (experiment, point) -> t1
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        # (experiment, point) -> highest cumulative dropped-window
        # count seen (overflow records stamp a running total).
        self._dropped: dict = {}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def poll(self) -> None:
        """Consume every line completed since the last poll."""
        hb = os.path.join(self.live_dir, HEARTBEATS_NAME)
        series = sorted(glob.glob(os.path.join(self.live_dir,
                                               "series-*.jsonl")))
        for path in [hb] + series:
            offset, lines = self._read.get(path, (0, 0))
            records, end = read_jsonl(path, offset, lines)
            self._read[path] = (end, lines + len(records))
            if path == hb:
                for beat in records:
                    self._on_heartbeat(beat)
                continue
            if lines == 0:
                records = records[1:]       # a series file's header
            for record in records:
                self._on_window(record)

    def _on_heartbeat(self, beat: dict) -> None:
        kind = beat.get("kind")
        wall = beat.get("wall")
        if wall is not None:
            if self.first_wall is None:
                self.first_wall = wall
            self.last_wall = wall
        if kind == "start":
            self.experiment = beat.get("experiment", "")
            self.points_total = int(beat.get("points", 0))
            self.jobs = int(beat.get("jobs", 1))
            self.points_done = 0
            self.errors = 0
            self.run_done = False
            self.first_wall = wall
        elif kind == "window":
            self.last_window_beat = beat
            self.worker_pids.add(beat.get("pid"))
        elif kind == "point_done":
            self.points_done += 1
            if not beat.get("ok", True):
                self.errors += 1
        elif kind == "run_done":
            self.run_done = True

    def _on_window(self, record: dict) -> None:
        self.windows += 1
        self.dram_bytes += record.get("dram_bytes", 0)
        self.pcie_bytes += record.get("pcie_bytes", 0)
        key = (record.get("experiment"), record.get("point"))
        t1 = record.get("t1", 0.0)
        prev = self._point_t1.get(key, 0.0)
        if t1 > prev:
            self.cycles += t1 - prev
            self._point_t1[key] = t1
        for name, value in record.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in record.get("gauges", {}).items():
            self.gauges[name] = value
        dropped = record.get("dropped_windows", 0)
        if dropped:
            self._dropped[key] = max(self._dropped.get(key, 0), dropped)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def eta(self) -> Optional[float]:
        if (self.run_done or not self.points_done
                or self.points_done >= self.points_total
                or self.first_wall is None):
            return None
        elapsed = time.time() - self.first_wall
        return max(elapsed / self.points_done
                   * (self.points_total - self.points_done), 0.0)

    def _ratio(self, hits_key: str, misses_key: str) -> Optional[float]:
        hits = self.counters.get(hits_key, 0)
        total = hits + self.counters.get(misses_key, 0)
        return hits / total if total else None

    # ------------------------------------------------------------------
    # Render
    # ------------------------------------------------------------------
    def render(self) -> str:
        lines = []
        state = ("done" if self.run_done else "running")
        header = (f"repro-obs top — {self.experiment or '(waiting)'} "
                  f"[{state}]  "
                  f"points {self.points_done}/{self.points_total}  "
                  f"jobs {self.jobs}")
        if self.errors:
            header += f"  errors {self.errors}"
        eta = self.eta()
        if eta is not None:
            header += f"  eta {eta:.0f}s"
        lines.append(header)
        lines.append("-" * len(header))

        beat = self.last_window_beat
        if beat is not None:
            busy = beat.get("sm_busy_frac") or []
            lines.append(f"latest window {beat.get('window')} "
                         f"(point {beat.get('point')}, "
                         f"pid {beat.get('pid')}):")
            for sm, frac in enumerate(busy):
                lines.append(f"  SM{sm:<2d} {_bar(frac)} {frac:6.1%}")
        else:
            lines.append("(no window heartbeats yet)")

        lines.append("")
        hit = cache_hit_rate(self.counters)
        tlb = self._ratio("translation.tlb_hits",
                          "translation.tlb_misses")
        for label, value in (("page-cache hit", hit),
                             ("tlb hit", tlb)):
            if value is not None:
                lines.append(f"{label:16s} {_bar(value)} {value:6.1%}")
        if self.counters.get("readahead.issued"):
            issued = self.counters["readahead.issued"]
            hits = self.counters.get("readahead.hits", 0)
            frac = min(hits / issued, 1.0)
            lines.append(f"{'readahead hit':16s} {_bar(frac)} "
                         f"{frac:6.1%}")

        if self.cycles:
            lines.append(f"{'dram':16s} "
                         f"{self.dram_bytes / self.cycles:8.3f} B/cyc "
                         f"({_human_bytes(self.dram_bytes)} total)")
            lines.append(f"{'pcie':16s} "
                         f"{self.pcie_bytes / self.cycles:8.3f} B/cyc "
                         f"({_human_bytes(self.pcie_bytes)} total)")
        for name in sorted(self.gauges):
            value = self.gauges[name]
            if "utilization" in name or "occupancy" in name:
                frac = min(max(value, 0.0), 1.0)
                lines.append(f"{name:32s} {_bar(frac)} {frac:6.1%}")
            else:
                lines.append(f"{name:32s} {value:10.1f}")
        lines.append("")
        lines.append(f"{self.windows} windows sampled across "
                     f"{len(self._point_t1)} point(s), "
                     f"{len(self.worker_pids)} worker(s) heard")
        if self._dropped:
            total = sum(self._dropped.values())
            lines.append(
                f"WARNING: {total} window(s) past the in-profile "
                f"retention cap on {len(self._dropped)} point(s) — "
                f"profiles are truncated (widen window_cycles or "
                f"raise max_windows); this stream kept them")
        return "\n".join(lines)


def _bar(frac: float, width: int = BAR_WIDTH) -> str:
    frac = min(max(frac, 0.0), 1.0)
    filled = int(round(frac * width))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _human_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}"
        n /= 1024
    return f"{n:.1f} GiB"
