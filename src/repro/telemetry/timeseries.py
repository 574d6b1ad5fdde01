"""Cycle-window time-series sampling — live metrics for long launches.

Everything else in :mod:`repro.telemetry` is post-hoc: a launch must
finish before its :class:`LaunchProfile` exists.  The
:class:`TimeseriesSampler` closes that gap.  It *is* the launch's
:class:`~repro.telemetry.hooks.EngineProfile`, the engine's one
observer: the engine feeds it behind one ``is not None`` test per
handler site, and it updates the profile's launch totals exactly as the
plain class does (and records the same attribution overlay when a
tracer rides along) before bucketing the counted events into
fixed-width *windows* of simulated cycles.  An unsampled launch pays
one pointer test per event for the window roll and nothing else.  Each
window holds:

* per-SM issue-server busy cycles (occupancy) and instructions issued;
* warp stall cycles keyed by reason (``memory``, ``barrier``, ...);
* DRAM bytes/transactions, bandwidth-server busy cycles, and queue
  delay; PCIe bytes and link busy cycles;
* per-window *deltas* of every component counter registered with the
  profiler (page-cache faults, TLB hits/misses, readahead hits,
  staging batches, ...), probed by snapshot at window boundaries so the
  per-dereference hot paths stay uninstrumented;
* *gauges* — instantaneous levels (frames in use, pinned frames,
  staging-ring utilisation, readahead in-flight pages) evaluated at
  each window close.

The hard invariant: sampling only ever *reads* simulator state.  A
launch sampled at any window size produces bit-identical simulated
cycles to an unsampled one (regression-tested, like the attribution
layer's traced==untraced invariant).

Windows stream out through an optional ``sink`` callable as they close
(a :class:`SpillWriter` appends them to a JSONL file — what ``repro-obs
top`` tails), are mirrored as Chrome-trace ``"C"`` counter events when
a tracer is attached, and land in the launch profile under
``components.timeseries``.  :class:`SpillWriter` and
:func:`read_jsonl` are the one writer and the one reader of the
series format: a header line, then one stamped record per line.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Optional

from repro.telemetry.hooks import EngineProfile

#: Default window width, simulated cycles.  At the K80's 0.56 GHz this
#: is ~90 us of simulated time per sample — fine enough to see phase
#: changes, coarse enough that a long run stays a few thousand windows.
DEFAULT_WINDOW_CYCLES = 50_000.0

#: In-profile retention cap: the profile document keeps at most this
#: many windows (the stream sink is uncapped); overflow windows are
#: counted in ``dropped_windows``.
DEFAULT_MAX_WINDOWS = 4096


class _Window:
    """Accumulator for one cycle window (plain attrs, no dataclass —
    this is allocated per window on the sampling path)."""

    __slots__ = ("index", "sm_busy", "instructions", "stalls",
                 "dram_bytes", "dram_transactions", "dram_busy",
                 "dram_queue_cycles", "dram_queued_accesses",
                 "pcie_bytes", "pcie_busy")

    def __init__(self, index: int, num_sms: int):
        self.index = index
        self.sm_busy = [0.0] * num_sms
        self.instructions = 0.0
        self.stalls: dict[str, float] = {}
        self.dram_bytes = 0
        self.dram_transactions = 0
        self.dram_busy = 0.0
        self.dram_queue_cycles = 0.0
        self.dram_queued_accesses = 0
        self.pcie_bytes = 0
        self.pcie_busy = 0.0


class TimeseriesSampler(EngineProfile):
    """An :class:`~repro.telemetry.hooks.EngineProfile` that also
    buckets engine activity into fixed cycle windows.  See module
    docstring for the full contract.  The engine-facing hooks and the
    tracer overlay are inherited; this class adds :meth:`advance` and
    overrides the counting hooks (:meth:`_count_issue`,
    :meth:`_count_stall`), :meth:`dram`, :meth:`pcie` and
    :meth:`finish`.  Each updates the launch totals first, in the plain
    profile's order, then the windows; the totals lines are inlined
    rather than ``super()`` calls because this is the per-event path
    (``test_totals_match_plain_profile`` keeps the two in step)."""

    def __init__(self, num_sms: int,
                 window_cycles: float = DEFAULT_WINDOW_CYCLES,
                 max_windows: int = DEFAULT_MAX_WINDOWS,
                 sink: Optional[Callable[[dict], None]] = None,
                 tracer=None,
                 probes: Optional[list] = None,
                 gauges: Optional[list] = None):
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        super().__init__(sm_busy=[0.0] * num_sms, tracer=tracer)
        self.num_sms = num_sms
        self.window_cycles = float(window_cycles)
        self.max_windows = max_windows
        self.sink = sink
        #: ``(kind, stats_obj)`` pairs to probe by snapshot delta at
        #: each window close — or a :class:`MetricsRegistry`, consulted
        #: live so components registered mid-launch join the stream.
        #: The sampler keeps its *own* baselines so probing never
        #: rebaselines the profiler's per-launch delta accounting.
        self.probes = probes if probes is not None else []
        #: ``(name, fn)`` pairs; ``fn()`` -> instantaneous level.
        self.gauges = gauges if gauges is not None else []
        self.windows: list[dict] = []
        self.dropped_windows = 0
        self.finished = False
        self._open: dict[int, _Window] = {}
        self._flushed_until = 0      # all indices < this are closed
        self._next_roll = self.window_cycles
        self._baselines: dict[int, dict] = {}
        # Baseline every already-registered component now (launch
        # start), so the first window reports deltas, not nothing.
        self._probe_deltas()

    # -- engine-facing hooks (hot path; must never mutate sim state) ---
    def advance(self, now: float) -> None:
        """Heap time reached ``now``: close every window that ended.

        Safe because heap pops are monotonic and every interval the
        engine records starts at or after the pop time — a closed
        window can never receive a late contribution.
        """
        if now < self._next_roll:
            return
        target = int(now / self.window_cycles)
        for index in range(self._flushed_until, target):
            self._flush(index)
        self._flushed_until = target
        self._next_roll = (target + 1) * self.window_cycles

    def _count_issue(self, sm: int, start: float, cycles: float,
                     count: float) -> None:
        """One issue-server reservation: ``cycles`` busy on ``sm``
        issuing ``count`` instructions, starting at ``start``."""
        self.sm_busy[sm] += cycles
        if cycles <= 0 and count <= 0:
            return
        w = self.window_cycles
        first = int(start / w)
        end = start + cycles
        if end <= (first + 1) * w:       # fast path: single window
            win = self._open.get(first)
            if win is None:
                win = self._window(first)
            win.sm_busy[sm] += cycles
            win.instructions += count
            return
        span = cycles if cycles > 0 else 1.0
        index = max(first, self._flushed_until)
        while True:
            lo = max(start, index * w)
            hi = min(end, (index + 1) * w)
            part = hi - lo
            if part > 0:
                win = self._window(index)
                win.sm_busy[sm] += part
                win.instructions += count * (part / span)
            if end <= (index + 1) * w:
                break
            index += 1

    def _count_stall(self, reason: str, end: float,
                     cycles: float) -> None:
        """``cycles`` of warp stall time, attributed to the window in
        which the stall *ended* (stall intervals may begin before the
        current window — e.g. barrier waiters — and closed windows are
        immutable, so completion-time attribution keeps the stream
        append-only)."""
        if cycles <= 0:
            return
        self.stalls[reason] = self.stalls.get(reason, 0.0) + cycles
        index = int(end / self.window_cycles)
        if index < self._flushed_until:
            index = self._flushed_until
        win = self._open.get(index)
        if win is None:
            win = self._window(index)
        win.stalls[reason] = win.stalls.get(reason, 0.0) + cycles

    def dram(self, start: float, nbytes: int, transactions: int,
             busy: float, queue_cycles: float) -> None:
        """One DRAM access: bytes/transactions/queue delay land in the
        window containing the access start (so the byte series
        integrates exactly to the launch total); server busy cycles are
        spread over the service interval."""
        self.dram_queue_cycles += queue_cycles
        self.dram_queued_accesses += 1
        w = self.window_cycles
        index = int(start / w)
        if index < self._flushed_until:
            index = self._flushed_until
        win = self._open.get(index)
        if win is None:
            win = self._window(index)
        win.dram_bytes += nbytes
        win.dram_transactions += transactions
        win.dram_queue_cycles += queue_cycles
        win.dram_queued_accesses += 1
        if busy > 0:
            if start + busy <= (index + 1) * w \
                    and index * w <= start:
                win.dram_busy += busy    # fast path: single window
            else:
                self._spread(start, busy, "dram_busy")

    def pcie(self, start: float, nbytes: int, busy: float) -> None:
        """One PCIe transfer: bytes at the start window, link busy
        cycles spread over the transfer interval."""
        w = self.window_cycles
        index = int(start / w)
        if index < self._flushed_until:
            index = self._flushed_until
        win = self._open.get(index)
        if win is None:
            win = self._window(index)
        win.pcie_bytes += nbytes
        if busy > 0:
            if start + busy <= (index + 1) * w \
                    and index * w <= start:
                win.pcie_busy += busy
            else:
                self._spread(start, busy, "pcie_busy")

    def finish(self, total_cycles: float) -> None:
        """Launch over: close every remaining window."""
        if self.finished:
            return
        # A launch ending exactly on a boundary owns no window past it:
        # total==N*W means windows 0..N-1, not an empty window N.
        last = max((int(math.ceil(total_cycles / self.window_cycles))
                    - 1 if total_cycles > 0 else -1),
                   *(self._open.keys() or (-1,)))
        for index in range(self._flushed_until, last + 1):
            self._flush(index)
        self._flushed_until = last + 1
        self.finished = True

    # ------------------------------------------------------------------
    def _window(self, index: int) -> _Window:
        win = self._open.get(index)
        if win is None:
            win = _Window(index, self.num_sms)
            self._open[index] = win
        return win

    def _spread(self, start: float, cycles: float, attr: str) -> None:
        if cycles <= 0:
            return
        w = self.window_cycles
        end = start + cycles
        index = max(int(start / w), self._flushed_until)
        while True:
            lo = max(start, index * w)
            hi = min(end, (index + 1) * w)
            if hi > lo:
                win = self._window(index)
                setattr(win, attr, getattr(win, attr) + (hi - lo))
            if end <= (index + 1) * w:
                break
            index += 1

    def _probe_deltas(self) -> dict:
        """Per-window component-counter deltas since the last close.

        Uses private baselines keyed by stats-object id; a component
        first seen mid-launch is baselined silently (its pre-window
        history belongs to no window).
        """
        from repro.telemetry.profile import _numeric_fields
        out: dict[str, float] = {}
        probes = (self.probes.components()
                  if hasattr(self.probes, "components")
                  else self.probes)
        for kind, stats in probes:
            now = _numeric_fields(stats)
            base = self._baselines.get(id(stats))
            self._baselines[id(stats)] = now
            if base is None:
                continue
            for key, value in now.items():
                delta = value - base.get(key, 0)
                if delta:
                    name = f"{kind}.{key}"
                    out[name] = out.get(name, 0) + delta
        return out

    def _read_gauges(self) -> dict:
        out: dict[str, float] = {}
        for name, fn in self.gauges:
            try:
                value = float(fn())
            except Exception:       # a dead gauge must not kill a run
                continue
            out[name] = out.get(name, 0.0) + value
        return out

    def _flush(self, index: int) -> None:
        w = self.window_cycles
        win = self._open.pop(index, None)
        if win is None:
            win = _Window(index, self.num_sms)
        record = {
            "window": index,
            "t0": index * w,
            "t1": (index + 1) * w,
            "sm_busy": win.sm_busy,
            "instructions": win.instructions,
            "stalls": win.stalls,
            "dram_bytes": win.dram_bytes,
            "dram_transactions": win.dram_transactions,
            "dram_busy": win.dram_busy,
            "dram_queue_cycles": win.dram_queue_cycles,
            "dram_queued_accesses": win.dram_queued_accesses,
            "pcie_bytes": win.pcie_bytes,
            "pcie_busy": win.pcie_busy,
            "counters": self._probe_deltas(),
            "gauges": self._read_gauges(),
        }
        if len(self.windows) < self.max_windows:
            self.windows.append(record)
        else:
            self.dropped_windows += 1
            # Overflow records still stream; stamping the running drop
            # count (only on them — retained records stay unmutated)
            # lets live consumers like repro-obs top surface the loss.
            record["dropped_windows"] = self.dropped_windows
        if self.sink is not None:
            self.sink(record)
        if self.tracer is not None:
            self._counter_events(record)

    def _counter_events(self, record: dict) -> None:
        """Mirror the window onto the tracer as Chrome counter tracks."""
        t1 = record["t1"]
        busy = sum(record["sm_busy"]) / (self.window_cycles
                                         * max(self.num_sms, 1))
        self.tracer.record_counter("timeseries.sm_busy_frac", t1, busy)
        self.tracer.record_counter("timeseries.dram_bytes", t1,
                                   record["dram_bytes"])
        self.tracer.record_counter("timeseries.pcie_bytes", t1,
                                   record["pcie_bytes"])
        for name, value in record["gauges"].items():
            self.tracer.record_counter(f"gauge.{name}", t1, value)

    # -- consumers -----------------------------------------------------
    def to_component(self) -> dict:
        """The ``components.timeseries`` section of the profile."""
        return {
            "enabled": 1,
            "window_cycles": self.window_cycles,
            "windows": len(self.windows) + self.dropped_windows,
            "dropped_windows": self.dropped_windows,
            "series": list(self.windows),
        }


# ----------------------------------------------------------------------
# The one on-disk series format
# ----------------------------------------------------------------------
class SpillWriter:
    """The writer of every live series file
    (``series-<exp>-pNNN.jsonl``): a header line, then one window per
    line, copied with the ``stamp`` keys added after its own.  It is
    the sampler's sink: each call appends one closed window and flushes
    it, so ``repro-obs top`` can tail the file."""

    def __init__(self, path: str, header: dict, stamp: dict):
        self.stamp = stamp
        # Truncate on open: one writer per file.
        self._fh = open(path, "w")
        self._fh.write(json.dumps(header) + "\n")
        self._fh.flush()

    def __call__(self, record: dict) -> None:
        """The sampler-sink protocol: append one record and flush it."""
        self._fh.write(json.dumps(dict(record, **self.stamp)) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def read_jsonl(path: str, offset: int = 0,
               line: int = 0) -> tuple[list, int]:
    """Read the records of every newline-terminated line of ``path``
    from byte ``offset``; return them and the offset after the last.

    An unterminated tail (a writer mid-line) is left for the next call.
    ``line`` counts the lines before ``offset``, so a complete line
    that does not parse raises ``ValueError`` naming the file and its
    line number.  A missing file reads as empty."""
    try:
        with open(path, "rb") as f:
            f.seek(offset)
            chunk = f.read()
    except FileNotFoundError:
        return [], offset
    end = chunk.rfind(b"\n") + 1
    records = []
    for lineno, text in enumerate(chunk[:end].split(b"\n")[:-1],
                                  line + 1):
        try:
            records.append(json.loads(text))
        except ValueError as exc:      # JSONDecodeError, UnicodeError
            reason = getattr(exc, "msg", exc)
            raise ValueError(f"corrupt JSONL file {path}, line "
                             f"{lineno}: {reason}") from None
    return records, offset + end


def merge_series(docs: list) -> dict:
    """Concatenate ``components.timeseries`` sections across per-launch
    profile documents into one suite section (used by
    :func:`repro.telemetry.profile.merge_profiles`).

    Windows keep their per-launch indices and gain a ``launch`` key
    (the source document's position) so a reader can still separate the
    interleaved streams.
    """
    enabled = 0
    windows = 0
    dropped = 0
    window_cycles = 0.0
    series: list[dict] = []
    for pos, doc in enumerate(docs):
        sub = doc.get("components", {}).get("timeseries")
        if not isinstance(sub, dict) or not sub.get("enabled"):
            continue
        enabled += 1
        windows += int(sub.get("windows", 0))
        dropped += int(sub.get("dropped_windows", 0))
        window_cycles = max(window_cycles,
                            float(sub.get("window_cycles", 0.0)))
        for record in sub.get("series", []):
            out = dict(record)
            out["launch"] = pos
            series.append(out)
    return {
        "enabled": enabled,
        "window_cycles": window_cycles,
        "windows": windows,
        "dropped_windows": dropped,
        "series": series,
    }
