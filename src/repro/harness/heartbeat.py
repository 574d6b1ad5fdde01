"""Structured heartbeats: worker progress without stderr clobbering.

The old runner progress display had every caller writing ``\\r`` lines
straight to stderr — two experiments (or a worker warning) interleaved
and clobbered each other.  This module replaces it with one-way message
flow: *anyone* with progress to report emits a heartbeat dict through a
:class:`HeartbeatSender` (rate-limited, spawn-safe — heartbeats are
plain JSON-able dicts, so they travel over a ``multiprocessing`` queue
untouched), and exactly one :class:`HeartbeatRenderer` in the parent
process owns the terminal line.

Heartbeat kinds:

* ``start`` — a run began: experiment name, total points, job count;
* ``window`` — a sampled cycle window closed inside a launch: point
  index, window index, per-SM busy fractions, key gauges (what
  ``repro-obs top`` renders as live bars);
* ``point_done`` — one grid point finished (ok or error);
* ``run_done`` — the experiment finished.

The renderer also appends every heartbeat to ``<live_dir>/
heartbeats.jsonl`` when a live directory is given — the stream
``repro-obs top`` tails next to the per-point series files.  Heartbeats
have their own append writer: they are lifecycle events, not a series.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Optional

#: Minimum wall-clock seconds between ``window`` heartbeats from one
#: sender — a launch can close thousands of windows per second, and the
#: point of a heartbeat is liveness, not completeness (the series files
#: carry every window).
DEFAULT_MIN_INTERVAL = 0.2

HEARTBEATS_NAME = "heartbeats.jsonl"


def make_heartbeat(kind: str, experiment: str, **fields) -> dict:
    """One heartbeat record: plain dict, JSON- and pickle-safe."""
    out = {"kind": kind, "experiment": experiment,
           "pid": os.getpid(), "wall": time.time()}
    out.update(fields)
    return out


class HeartbeatSender:
    """Rate-limited emitter: ``window`` beats are throttled to one per
    ``min_interval`` seconds; lifecycle beats (``start``,
    ``point_done``, ``run_done``) always pass.  ``emit`` is any callable
    taking the heartbeat dict — a queue's ``put``, a renderer's
    ``handle``, a list's ``append``."""

    def __init__(self, emit: Callable[[dict], None],
                 min_interval: float = DEFAULT_MIN_INTERVAL):
        self.emit = emit
        self.min_interval = min_interval
        self._last_window: Optional[float] = None
        self.sent = 0
        self.throttled = 0

    def send(self, beat: dict) -> None:
        if beat.get("kind") == "window":
            now = time.monotonic()
            if self._last_window is not None \
                    and now - self._last_window < self.min_interval:
                self.throttled += 1
                return
            self._last_window = now
        self.sent += 1
        try:
            self.emit(beat)
        except Exception:
            # A full/broken channel must never kill the simulation.
            pass

    def window_beat(self, experiment: str, point: int,
                    record: dict) -> None:
        """Reduce one sampled window record to a compact heartbeat."""
        width = max(record.get("t1", 0.0) - record.get("t0", 0.0), 1.0)
        busy = [min(b / width, 1.0)
                for b in record.get("sm_busy", [])]
        self.send(make_heartbeat(
            "window", experiment, point=point,
            window=record.get("window", 0),
            t1=record.get("t1", 0.0),
            sm_busy_frac=busy,
            dram_bytes=record.get("dram_bytes", 0),
            pcie_bytes=record.get("pcie_bytes", 0),
            counters=dict(record.get("counters", {})),
            gauges=dict(record.get("gauges", {})),
        ))


class HeartbeatRenderer:
    """The single writer of the progress line (and of the heartbeat
    stream).

    ``show=False`` still processes heartbeats — the stream is written,
    the line is not (the ``--no-progress``-safe fallback).  ``stream``
    defaults to stderr; tests pass a ``StringIO``.
    """

    def __init__(self, show: bool = True, stream=None,
                 live_dir: Optional[str] = None):
        self.show = show
        self.stream = stream if stream is not None else sys.stderr
        self.total = 0
        self.done = 0
        self.errors = 0
        self.jobs = 1
        self.experiment = ""
        self.started = time.monotonic()
        self.last_window: Optional[dict] = None
        self._hb_fh = None
        self._line_open = False
        #: Component counter totals over every window beat, for the
        #: cache hit rate.
        self.counters: dict[str, float] = {}
        if live_dir:
            os.makedirs(live_dir, exist_ok=True)
            self._hb_fh = open(os.path.join(live_dir, HEARTBEATS_NAME),
                               "a")

    # ------------------------------------------------------------------
    def handle(self, beat: dict) -> None:
        """Consume one heartbeat: update state, the stream, the line."""
        kind = beat.get("kind")
        if kind == "start":
            self.experiment = beat.get("experiment", "")
            self.total = int(beat.get("points", 0))
            self.jobs = int(beat.get("jobs", 1))
            self.done = 0
            self.errors = 0
            self.started = time.monotonic()
        elif kind == "window":
            self.last_window = beat
            for name, value in beat.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
        elif kind == "point_done":
            self.done += 1
            if not beat.get("ok", True):
                self.errors += 1
        if self._hb_fh is not None:
            self._hb_fh.write(json.dumps(beat) + "\n")
            self._hb_fh.flush()
        self._render()
        if kind == "run_done":
            self.close()

    # ------------------------------------------------------------------
    def _render(self) -> None:
        if not self.show:
            return
        parts = [f"[{self.experiment}] {self.done}/{self.total} points "
                 f"({self.jobs} worker{'s' if self.jobs != 1 else ''})"]
        if self.errors:
            parts.append(f"{self.errors} failed")
        win = self.last_window
        if win is not None:
            busy = win.get("sm_busy_frac") or []
            if busy:
                parts.append(
                    f"busy {sum(busy) / len(busy):.0%}")
            hit = cache_hit_rate(self.counters)
            if hit is not None:
                parts.append(f"cache {hit:.0%}")
        eta = self.eta()
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        self.stream.write("\r" + " | ".join(parts))
        self.stream.flush()
        self._line_open = True

    def eta(self) -> Optional[float]:
        if not self.done or not self.total or self.done >= self.total:
            return None
        elapsed = time.monotonic() - self.started
        return elapsed / self.done * (self.total - self.done)

    def close(self) -> None:
        if self._line_open and self.show:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False
        if self._hb_fh is not None:
            self._hb_fh.close()
            self._hb_fh = None


def cache_hit_rate(counters: dict) -> Optional[float]:
    """Page-cache hit rate from accumulated component counter totals
    (``paging.minor_faults`` ...): minor faults are hits (page already
    resident), major faults are misses."""
    minor = counters.get("paging.minor_faults", 0)
    major = counters.get("paging.major_faults", 0)
    faults = minor + major
    if not faults:
        return None
    return minor / faults
