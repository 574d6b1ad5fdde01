"""Eviction policies for the page cache.

The paper's page cache needs *some* replacement policy for unreferenced
pages (§V mentions swapping for large files without prescribing one).
The default is a clock sweep; this module provides alternatives so the
choice can be studied (see ``benchmarks/bench_ablations.py``):

* :class:`ClockPolicy` — cyclic scan, evict the first eligible frame;
* :class:`FifoPolicy` — evict in frame-allocation order;
* :class:`LruPolicy` — least-recently-*referenced* first (touch events
  come from the fault path, the only place software can observe reuse);
* :class:`RandomPolicy` — uniform random eligible frame (seeded).

A policy only *orders candidates*; eligibility (refcount == 0, ready,
not removed) is still enforced by the page cache, and the final check
happens under the bucket lock.
"""

from __future__ import annotations

import random
from typing import Iterator


class EvictionPolicy:
    """Strategy interface: propose victim frames, newest info first.

    Frames can additionally be marked *low priority* (speculative
    readahead pages that no warp has touched yet): every policy prefers
    evicting those before any normal frame, in its own candidate order.
    The page cache clears the mark when the page is promoted on first
    touch, evicted, or its frame is released.
    """

    name = "?"

    def __init__(self, num_frames: int):
        self.num_frames = num_frames
        self.low_priority: set[int] = set()

    def candidates(self) -> Iterator[int]:
        """Yield frame indices in preferred eviction order."""
        raise NotImplementedError

    def low_priority_candidates(self) -> Iterator[int]:
        """The :attr:`low_priority` frames, in :meth:`candidates` order.

        This default walks :meth:`candidates` once, so a policy that
        draws randomness there draws it here too.  The set must not
        change while the result is iterated."""
        low = self.low_priority
        return (frame for frame in self.candidates() if frame in low)

    def set_low_priority(self, frame: int, low: bool) -> None:
        """Mark/unmark ``frame`` as preferred for eviction."""
        if low:
            self.low_priority.add(frame)
        else:
            self.low_priority.discard(frame)

    def on_bind(self, frame: int) -> None:
        """A page was installed into ``frame``."""

    def on_touch(self, frame: int) -> None:
        """A resident page in ``frame`` was referenced (fault path)."""

    def on_release(self, frame: int) -> None:
        """``frame`` returned to the free list unbound."""


class ClockPolicy(EvictionPolicy):
    """Cyclic sweep starting after the previous victim."""

    name = "clock"

    def __init__(self, num_frames: int):
        super().__init__(num_frames)
        self._hand = 0

    def candidates(self) -> Iterator[int]:
        n = self.num_frames
        for i in range(n):
            frame = (self._hand + i) % n
            yield frame
        # advance the hand past the last candidate we proposed

    def low_priority_candidates(self) -> Iterator[int]:
        # The sweep's order is each frame's distance past the hand.
        hand, n = self._hand, self.num_frames
        return iter(sorted(self.low_priority,
                           key=lambda frame: (frame - hand) % n))

    def on_bind(self, frame: int) -> None:
        self._hand = (frame + 1) % self.num_frames


class FifoPolicy(EvictionPolicy):
    """Evict pages in the order their frames were (re)bound."""

    name = "fifo"

    def __init__(self, num_frames: int):
        super().__init__(num_frames)
        self._order: list[int] = []

    def candidates(self) -> Iterator[int]:
        # A rebind refreshes a frame's position, so only the *last*
        # occurrence in the log counts.
        ordered = self._last_occurrence_order()
        yield from ordered
        seen = set(ordered)
        for frame in range(self.num_frames):
            if frame not in seen:
                yield frame

    def on_bind(self, frame: int) -> None:
        self._order.append(frame)
        if len(self._order) > 4 * self.num_frames:
            self._order = self._last_occurrence_order()

    def _last_occurrence_order(self) -> list[int]:
        seen: set[int] = set()
        kept: list[int] = []
        for frame in reversed(self._order):
            if frame not in seen:
                seen.add(frame)
                kept.append(frame)
        kept.reverse()
        return kept


class LruPolicy(EvictionPolicy):
    """Least recently referenced first (touches from the fault path)."""

    name = "lru"

    def __init__(self, num_frames: int):
        super().__init__(num_frames)
        self._stamp = 0
        self._last: dict[int, int] = {}

    def _tick(self) -> int:
        self._stamp += 1
        return self._stamp

    def candidates(self) -> Iterator[int]:
        ordered = sorted(range(self.num_frames),
                         key=lambda f: self._last.get(f, -1))
        yield from ordered

    def on_bind(self, frame: int) -> None:
        self._last[frame] = self._tick()

    def on_touch(self, frame: int) -> None:
        self._last[frame] = self._tick()

    def on_release(self, frame: int) -> None:
        self._last.pop(frame, None)


class RandomPolicy(EvictionPolicy):
    """Uniformly random eligible frame (deterministic via seed)."""

    name = "random"

    def __init__(self, num_frames: int, seed: int = 0):
        super().__init__(num_frames)
        self._rng = random.Random(seed)

    def candidates(self) -> Iterator[int]:
        frames = list(range(self.num_frames))
        self._rng.shuffle(frames)
        yield from frames


POLICIES = {
    "clock": ClockPolicy,
    "fifo": FifoPolicy,
    "lru": LruPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, num_frames: int) -> EvictionPolicy:
    try:
        return POLICIES[name](num_frames)
    except KeyError:
        raise ValueError(
            f"unknown eviction policy {name!r}; "
            f"choose from {sorted(POLICIES)}") from None
