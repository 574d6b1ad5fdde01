"""Per-file access-stream detection for the readahead daemon.

The detector watches the sequence of page faults a file receives and
recognises *streams*: runs of accesses separated by a constant page
stride.  Sequential reads are the stride-1 special case; GPU kernels
commonly produce strided streams instead, because each warp walks the
file at a stride of the warp count.  A stream therefore carries a
*hint* — here the faulting warp id — so concurrent warps reading
disjoint regions each get their own stream state instead of shredding
one global sequence (the same reason Linux keeps readahead state per
open file descriptor).

Each stream owns an adaptive readahead window, grown when speculation
pays off and shrunk when speculative frames go to waste — see
:class:`~repro.readahead.engine.ReadaheadEngine` for the feedback
edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class Stream:
    """One detected access stream within a file."""

    file_id: int
    hint: int                  # stream key (the observing warp's id)
    last_fpn: int              # most recent page of the stream
    stride: int = 0            # pages per step; 0 = not yet confirmed
    run: int = 1               # consecutive accesses matching the stride
    window: int = 0            # current readahead window, in pages
    next_ra: Optional[int] = None   # first fpn not yet issued speculatively
    last_used: int = 0         # detector LRU tick

    @property
    def confirmed(self) -> bool:
        return self.stride != 0


@dataclass
class DetectorCounters:
    streams_created: int = 0
    streams_recycled: int = 0


class StreamDetector:
    """Tracks up to ``MAX_STREAMS`` concurrent streams per file system.

    :meth:`observe` feeds one page access in; it returns the stream the
    access extended once that stream is *confirmed* (``MIN_RUN``
    consecutive accesses at a constant stride), or ``None`` while the
    pattern is still ambiguous.  Random access therefore never returns
    a stream and costs only the per-access bookkeeping.
    """

    #: Concurrent streams tracked; the least recently used is recycled.
    MAX_STREAMS = 64
    #: Largest page stride recognised as a stream.
    MAX_STRIDE = 64
    #: Accesses at one stride before a stream is confirmed.
    MIN_RUN = 2
    #: Readahead window, in pages, of a newly confirmed stream.
    INITIAL_WINDOW = 4
    #: Floor and ceiling of the adaptive window.
    MIN_WINDOW = 2
    MAX_WINDOW = 64

    def __init__(self, counters: Optional[DetectorCounters] = None):
        self.counters = counters if counters is not None \
            else DetectorCounters()
        self._streams: dict[tuple[int, int], Stream] = {}
        self._tick = 0

    # ------------------------------------------------------------------
    def observe(self, file_id: int, fpn: int,
                hint: int = 0) -> Optional[Stream]:
        """Feed one page access; returns the confirmed stream it
        extends, or ``None``."""
        self._tick += 1
        key = (file_id, hint)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._new_stream(key, fpn)
            return None
        stream.last_used = self._tick
        if fpn == stream.last_fpn:
            # Re-fault of the same page (other lanes / refault): no new
            # pattern information.
            return stream if stream.confirmed else None
        delta = fpn - stream.last_fpn
        if stream.confirmed and delta == stream.stride:
            stream.last_fpn = fpn
            stream.run += 1
            return stream
        if not stream.confirmed and 0 < delta <= self.MAX_STRIDE:
            # Second access of an embryo stream fixes its stride.
            stream.stride = delta
            stream.last_fpn = fpn
            stream.run = 2
            if stream.window == 0:
                stream.window = self.INITIAL_WINDOW
            return stream if stream.run >= self.MIN_RUN else None
        # The pattern broke: restart the stream at the new position.
        # Keep the learnt window — a seek within the same logical
        # stream (e.g. a new record) should not forfeit its history.
        stream.last_fpn = fpn
        stream.stride = 0
        stream.run = 1
        stream.next_ra = None
        return None

    # ------------------------------------------------------------------
    def _new_stream(self, key: tuple[int, int], fpn: int) -> Stream:
        if len(self._streams) >= self.MAX_STREAMS:
            lru = min(self._streams, key=lambda k:
                      self._streams[k].last_used)
            del self._streams[lru]
            self.counters.streams_recycled += 1
        stream = Stream(file_id=key[0], hint=key[1], last_fpn=fpn,
                        last_used=self._tick)
        self._streams[key] = stream
        self.counters.streams_created += 1
        return stream

    # ------------------------------------------------------------------
    # Window feedback (called by the engine)
    # ------------------------------------------------------------------
    def grow(self, stream: Stream) -> bool:
        """Speculation paid off: double the stream's window."""
        new = min(max(stream.window * 2, self.MIN_WINDOW),
                  self.MAX_WINDOW)
        changed = new != stream.window
        stream.window = new
        return changed

    def shrink(self, stream: Stream) -> bool:
        """Speculation wasted or cache pressure: halve the window."""
        new = max(stream.window // 2, self.MIN_WINDOW)
        changed = new != stream.window
        stream.window = new
        return changed

    # ------------------------------------------------------------------
    @property
    def streams(self) -> list[Stream]:
        """Live streams (test / introspection use)."""
        return list(self._streams.values())
