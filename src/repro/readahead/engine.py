"""The asynchronous readahead engine.

Sits between GPUfs fault handling and the page cache, modelling the
host-side readahead daemon of a GPUfs-style system.  On every paging
access the engine feeds the page number to the per-file
:class:`~repro.readahead.stream.StreamDetector`; once a sequential or
strided stream is confirmed it issues background page-ins for the pages
ahead, through the *same* batching window the demand
:class:`~repro.paging.staging.TransferBatcher` uses — speculative and
demand transfers coalesce into the same DMA batches, and the
speculative latency overlaps kernel compute instead of stalling a warp.

Timing model: a speculative page-in occupies no warp.  Its cost lives
on the daemon timeline as a *completion timestamp* (``ready_at`` on the
page-table entry) computed from the batcher's shared window state.  A
demand fault that lands on an in-flight speculative page waits only for
the remaining transfer time; a fault after completion is an ordinary
minor fault (a *readahead hit*).

Page-cache contract (the "polite speculator" rules):

* speculative frames are allocated **non-blocking** — when no free or
  reclaimable-speculative frame exists, the engine backs off
  (``cancelled``) and shrinks the stream's window rather than evicting
  a demand page;
* speculative frames are **low priority** — eviction prefers them over
  demand pages until first touch promotes them to normal;
* a speculative frame evicted untouched counts as ``wasted`` and
  shrinks the issuing stream's window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.paging.page_table import PageTableEntry
from repro.readahead.stream import Stream, StreamDetector


@dataclass
class ReadaheadStats:
    """Counters of one readahead engine (telemetry-exported)."""

    issued: int = 0             # speculative page-ins started
    hits: int = 0               # demand touches of a speculative page
    inflight_hits: int = 0      # of those, transfer still in flight
    wasted: int = 0             # speculative frames evicted untouched
    cancelled: int = 0          # issues dropped: no non-blocking frame
    deferred: int = 0           # issues skipped: bucket lock held / raced
    window_grows: int = 0
    window_shrinks: int = 0
    streams_created: int = 0
    streams_recycled: int = 0
    #: Window size at each issue event -> count (telemetry flattens
    #: this to ``window_hist_<n>`` keys).
    window_hist: dict = field(default_factory=dict)

    def hit_rate(self) -> float:
        return self.hits / self.issued if self.issued else 0.0


class ReadaheadEngine:
    """Stream detection + async issue queue for one GPUfs instance."""

    #: Instruction cost billed to the triggering warp per issue event —
    #: the fault handler's "kick the daemon" doorbell write, not the
    #: transfer itself.
    ISSUE_COST_INSTRS = 20.0

    def __init__(self, cache, batcher, handle_for, page_size: int):
        self.cache = cache
        self.table = cache.table
        self.batcher = batcher
        self.page_size = page_size
        self.stats = ReadaheadStats()
        self.detector = StreamDetector(counters=self.stats)
        self._handle_for = handle_for
        self._device = cache.device
        #: In-flight speculative page-ins: (entry, done_at, launch_no).
        self._inflight: list[tuple[PageTableEntry, float, int]] = []
        #: Which stream issued each outstanding speculative page.
        self._origin: dict[tuple[int, int], Stream] = {}

    # ------------------------------------------------------------------
    # Completion polling
    # ------------------------------------------------------------------
    def poll(self, now: float) -> None:
        """Mark in-flight speculative pages whose transfer finished.

        A launch boundary also completes everything outstanding: the
        daemon keeps running while the GPU is idle between kernels, and
        simulated time restarts at zero each launch.
        """
        if not self._inflight:
            return
        launch_no = self._device.launches
        still: list[tuple[PageTableEntry, float, int]] = []
        for entry, done_at, launch in self._inflight:
            if not entry.speculative or entry.removed:
                # Promoted (on_hit) or retired (eviction): those paths
                # already popped ``_origin``; the defensive pop keeps
                # the map clean even if a future path forgets.
                self._origin.pop((entry.file_id, entry.fpn), None)
                continue
            if entry.ready:
                # A demand touch flipped it via GPUfs._wait_ready; the
                # imminent on_hit owns the ``_origin`` entry (it feeds
                # the window-grow decision), so only drop it from the
                # in-flight list.
                continue
            if launch != launch_no or done_at <= now:
                entry.ready = True
                entry.ready_at = None
            else:
                still.append((entry, done_at, launch))
        self._inflight = still

    @property
    def inflight_pages(self) -> int:
        return len(self._inflight)

    def gauges(self) -> dict:
        """Instantaneous-level probes for the time-series sampler."""
        return {
            "readahead.inflight_pages":
                lambda: float(self.inflight_pages),
        }

    # ------------------------------------------------------------------
    # Fault-path hooks (called by GPUfs)
    # ------------------------------------------------------------------
    def on_demand_access(self, ctx, file_id: int, fpn: int) -> None:
        """Observe one paging access; maybe issue speculative page-ins.

        Untimed except for a small doorbell charge on issue — the
        daemon does the heavy lifting off the warp's critical path.
        """
        self.poll(ctx.now)
        stream = self.detector.observe(file_id, fpn, hint=ctx.warp_id)
        if stream is not None and stream.confirmed:
            self._issue(ctx, stream, trigger=(file_id, fpn))

    def on_hit(self, ctx, entry: PageTableEntry,
               waited: bool = False) -> None:
        """A demand access touched a speculative page: promote it."""
        entry.speculative = False
        self.cache.promote_frame(entry.frame)
        self.stats.hits += 1
        if waited:
            self.stats.inflight_hits += 1
        stream = self._origin.pop((entry.file_id, entry.fpn), None)
        if stream is None or not stream.confirmed:
            return
        # Grow when the consumer caught the pipeline: either it had to
        # wait on an in-flight transfer (the window is too shallow to
        # hide the latency), or it consumed the furthest page issued.
        caught_up = (stream.next_ra is not None
                     and entry.fpn + stream.stride >= stream.next_ra)
        if ((waited or caught_up) and self.detector.grow(stream)):
            self.stats.window_grows += 1

    def on_spec_evicted(self, entry: PageTableEntry) -> None:
        """Cache listener: a speculative frame was evicted untouched."""
        self.stats.wasted += 1
        stream = self._origin.pop((entry.file_id, entry.fpn), None)
        if stream is not None and self.detector.shrink(stream):
            self.stats.window_shrinks += 1

    # ------------------------------------------------------------------
    # Issue path
    # ------------------------------------------------------------------
    def _issue(self, ctx, stream: Stream,
               trigger: tuple[int, int]) -> None:
        handle = self._handle_for(stream.file_id)
        npages = -(-handle.size() // self.page_size)
        stride = stream.stride
        window_end = stream.last_fpn + stride * stream.window
        fpn = stream.last_fpn + stride
        if stream.next_ra is not None:
            fpn = max(fpn, stream.next_ra)
        issued = 0
        first = fpn
        last_done = ctx.now
        # Never reclaim the page the triggering fault is about to
        # consume (we run before its table lookup, so a ready
        # speculative entry for it is a guaranteed hit), nor this
        # stream's own outstanding speculative pages — churning them to
        # read further ahead trades hits for wasted evictions.  Under
        # pressure the daemon backs off instead.
        protect = {trigger}
        protect.update(k for k, s in self._origin.items() if s is stream)
        while fpn <= window_end and fpn < npages:
            if self.table.get(stream.file_id, fpn) is None:
                frame = self.cache.allocate_speculative(protect)
                if frame is None:
                    # Cache pressure: back off instead of evicting a
                    # demand page; try again with a smaller window.
                    self.stats.cancelled += 1
                    if self.detector.shrink(stream):
                        self.stats.window_shrinks += 1
                    break
                done_at = self._start_transfer(ctx, stream, fpn, frame,
                                               handle)
                if done_at is None:
                    # host_insert deferred (a warp holds the bucket
                    # lock, likely mid-fault on this very page) or the
                    # key appeared since the residency check: skip it.
                    fpn += stride
                    continue
                last_done = max(last_done, done_at)
                issued += 1
            fpn += stride
        stream.next_ra = fpn
        if issued:
            ctx.charge(self.ISSUE_COST_INSTRS)
            hist = self.stats.window_hist
            hist[stream.window] = hist.get(stream.window, 0) + 1
            if ctx.tracer is not None:
                ctx.trace_span(
                    "readahead", ctx.now, last_done,
                    f"file={stream.file_id} fpn={first}.. "
                    f"x{issued} stride={stride} w={stream.window}")

    def _start_transfer(self, ctx, stream: Stream, fpn: int, frame: int,
                        handle):
        """Returns the transfer's completion time, or ``None`` if the
        table insert was deferred/raced and no transfer started."""
        entry = PageTableEntry(stream.file_id, fpn, frame=frame,
                               ready=False, speculative=True)
        if self.table.host_insert(entry) is not entry:
            # Deferred (a warp holds the key's bucket lock mid-insert)
            # or the key is suddenly resident: hand the frame back —
            # it was never bound — and let the demand path win.
            self.cache.release_frame(frame)
            self.stats.deferred += 1
            return None
        self.cache.bind(entry)
        self.cache.mark_speculative(frame)
        done_at = self.batcher.fetch_async(
            ctx.now, handle, fpn * self.page_size, self.page_size,
            self.cache.frame_addr(frame))
        entry.ready_at = done_at
        self._inflight.append((entry, done_at, self._device.launches))
        self._origin[(stream.file_id, fpn)] = stream
        self.stats.issued += 1
        return done_at
