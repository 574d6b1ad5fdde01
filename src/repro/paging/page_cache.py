"""The GPU page cache: frames, pinning, and eviction.

Frames live in a contiguous region of GPU global memory.  The cache
enforces the paper's central invariant (§III-B): **a page with a positive
reference count is *active* — its virtual-to-physical mapping is fixed
and it can never be evicted.**  This is what makes it safe for apointers
to cache translations in hardware registers with no coherence protocol.

Eviction uses a clock sweep over unreferenced frames; dirty frames are
written back to the backing store before reuse.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.paging.page_table import PageTable, PageTableEntry
from repro.paging.policies import make_policy

if TYPE_CHECKING:
    from repro.paging.gpufs import GPUfsConfig


class PageCacheFullError(Exception):
    """All frames are pinned by active pages — the cache is clogged.

    The paper's unlink heuristic exists precisely to keep the number of
    non-evictable pages low (§III-B); hitting this error means every
    frame is referenced by some linked apointer.
    """


class PageCache:
    """Frame allocator and eviction policy over device memory, shaped
    by a :class:`~repro.paging.gpufs.GPUfsConfig`'s ``page_size``,
    ``num_frames`` and ``eviction_policy``."""

    def __init__(self, device, config: GPUfsConfig):
        self.config = config
        self.device = device
        self.base = device.alloc(config.num_frames * config.page_size)
        self.table = PageTable(device, config.num_frames)
        self._free: list[int] = list(range(config.num_frames - 1, -1, -1))
        self._owner: list[Optional[PageTableEntry]] = (
            [None] * config.num_frames)
        self.policy = make_policy(config.eviction_policy,
                                  config.num_frames)
        self.evictions = 0
        self.writebacks = 0
        #: Optional readahead engine: notified (``on_spec_evicted``)
        #: when a speculative frame is evicted before its first touch.
        self.spec_listener = None

    # ------------------------------------------------------------------
    def frame_addr(self, frame: int) -> int:
        """Device address of a frame's first byte."""
        if not 0 <= frame < self.config.num_frames:
            raise ValueError(f"bad frame {frame}")
        return self.base + frame * self.config.page_size

    @property
    def frames_in_use(self) -> int:
        return self.config.num_frames - len(self._free)

    def pinned_frames(self) -> int:
        return sum(1 for e in self._owner
                   if e is not None and e.refcount > 0)

    def gauges(self) -> dict:
        """Instantaneous-level probes for the time-series sampler
        (read at window close; never mutate cache state)."""
        total = self.config.num_frames
        return {
            "page_cache.frames_used":
                lambda: float(self.frames_in_use),
            "page_cache.pinned_frames":
                lambda: float(self.pinned_frames()),
            "page_cache.occupancy":
                lambda: self.frames_in_use / total,
        }

    # ------------------------------------------------------------------
    #: Spin interval while every frame is transiently busy/pinned.
    ALLOC_RETRY_CYCLES = 400.0
    #: Retries before declaring the cache clogged for good.
    ALLOC_MAX_RETRIES = 64

    def allocate_frame(self, ctx, writeback):
        """Timed: get a free frame, evicting an inactive page if needed.

        When every frame is momentarily ineligible (pinned or mid
        page-in) the allocator waits and retries — concurrent faults
        briefly overcommit a small cache.  Only a *persistent* clog
        (every frame referenced by linked apointers) raises
        :class:`PageCacheFullError`.

        ``writeback`` is a generator function ``writeback(ctx, entry,
        frame_addr)`` invoked for dirty victims.  Returns the frame
        index.
        """
        for attempt in range(self.ALLOC_MAX_RETRIES):
            if self._free:
                return self._free.pop()
            victim = yield from self._evict_one(ctx, writeback)
            if victim is not None:
                return victim
            yield from ctx.sleep(self.ALLOC_RETRY_CYCLES)
        raise PageCacheFullError(
            f"all {self.config.num_frames} frames pinned "
            "(refcounts > 0)")

    def _evict_one(self, ctx, writeback):
        # Let the readahead daemon complete any finished speculative
        # transfers first: an in-flight frame (ready=False) is not
        # evictable, and without this poll a demand allocation could
        # starve retrying against frames nobody else will ever flip.
        if self.spec_listener is not None:
            self.spec_listener.poll(ctx.now)
        # Untouched speculative (readahead) frames are sacrificed
        # before any demand page, whatever the policy's order.
        if self.policy.low_priority:
            frame = yield from self._evict_scan(ctx, writeback,
                                                low_only=True)
            if frame is not None:
                return frame
        return (yield from self._evict_scan(ctx, writeback,
                                            low_only=False))

    def _evict_scan(self, ctx, writeback, low_only: bool):
        for frame in self.policy.candidates():
            if low_only and frame not in self.policy.low_priority:
                continue
            entry = self._owner[frame]
            if entry is None or entry.refcount > 0 or not entry.ready:
                continue
            # Candidate victim.  The final refcount check happens under
            # the bucket lock inside remove_if_unreferenced, closing the
            # race with a fault handler re-referencing the page.
            removed = yield from self.table.remove_if_unreferenced(
                ctx, entry)
            if not removed:
                continue
            # Now unreachable: no linked apointer can hold its mapping
            # (the paper's fixed-mapping guarantee), so the frame can be
            # flushed and reused safely.
            if entry.dirty:
                self.writebacks += 1
                yield from writeback(ctx, entry, self.frame_addr(frame))
                entry.dirty = False
            self._retire(entry, frame)
            return frame
        return None

    def _retire(self, entry, frame: int) -> None:
        """Common bookkeeping once ``entry`` lost its frame."""
        self._owner[frame] = None
        self.evictions += 1
        self.policy.set_low_priority(frame, False)
        if entry.speculative and self.spec_listener is not None:
            self.spec_listener.on_spec_evicted(entry)

    def bind(self, entry: PageTableEntry) -> None:
        """Record that ``entry`` now owns its frame."""
        self._owner[entry.frame] = entry
        self.policy.on_bind(entry.frame)

    def touch(self, frame: int) -> None:
        """A resident page was referenced (eviction-policy feedback)."""
        self.policy.on_touch(frame)

    def release_frame(self, frame: int) -> None:
        """Return a never-bound frame to the free list (insert raced)."""
        self._owner[frame] = None
        self._free.append(frame)
        self.policy.set_low_priority(frame, False)
        self.policy.on_release(frame)

    # ------------------------------------------------------------------
    # Speculative (readahead) frames
    # ------------------------------------------------------------------
    def mark_speculative(self, frame: int) -> None:
        """Flag a freshly bound readahead frame as low priority."""
        self.policy.set_low_priority(frame, True)

    def promote_frame(self, frame: int) -> None:
        """First demand touch of a readahead frame: normal priority."""
        self.policy.set_low_priority(frame, False)
        self.policy.on_touch(frame)

    def allocate_speculative(self, protect=frozenset()) -> Optional[int]:
        """Non-blocking, untimed frame grab for the readahead daemon.

        Takes a free frame, or reclaims an *untouched speculative*
        frame (stale readahead is fair game), but never evicts a demand
        page and never waits — the daemon backs off instead.  Returns
        ``None`` under pressure.

        ``protect`` is a set of ``(file_id, fpn)`` keys exempt from
        speculative reclaim — the engine passes the page the
        triggering fault is about to consume and the issuing stream's
        outstanding pages, so readahead never cannibalises its own
        imminent hits to read further ahead.
        """
        if self._free:
            return self._free.pop()
        # Every resident speculative page's frame is low priority
        # (``mark_speculative`` until promoted or retired), so no other
        # frame could be reclaimed.  The set does not change during the
        # walk: the walk ends at the one frame it retires.
        if not self.policy.low_priority:
            return None
        for frame in self.policy.low_priority_candidates():
            entry = self._owner[frame]
            if (entry is None or not entry.speculative
                    or entry.refcount > 0 or not entry.ready
                    or entry.key in protect):
                continue
            if not self.table.host_remove(entry):
                # Deferred: bucket lock held (a warp is mid-fault on
                # the page) or the entry turned dirty — host_remove
                # refuses both, so a promoted-and-written page can
                # never be silently reclaimed here.
                continue
            self._retire(entry, frame)
            return frame
        return None

    def discard_frame(self, entry: PageTableEntry) -> None:
        """Drop a clean, unreferenced page whose table entry was just
        removed (``madvise(DONTNEED)``, ``ftruncate``): the frame goes
        back on the free list."""
        frame = entry.frame
        self._retire(entry, frame)
        self._free.append(frame)
        self.policy.on_release(frame)
