"""Concurrent page-table hash table.

One hash table indexes the pages of *all* files in the page cache (§V):
keys are ``(file_id, file_page_number)`` pairs, values are page-cache
frame numbers plus a reference count.  Following the paper:

* the table has **16x more slots than frames**, which keeps the collision
  (probe) rate around 3 % at full cache occupancy;
* **reads are lock-free** — a lookup costs one global-memory load per
  probed slot;
* **insertions and removals take a per-bucket lock** (fine-grained:
  buckets are groups of slots sharing one lock).

The table is *functionally* a Python open-addressing table; every probe,
insert and refcount update also charges the simulated GPU for the global
memory traffic and atomics the real data structure would incur, using a
real device-memory allocation for its slot addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.gpu.instructions import TimedLock
from repro.gpu.kernel import WarpContext

ENTRY_BYTES = 16        # key word + value word, as packed on the GPU
HASH_COST_INSTRS = 6    # integer hash of (file_id, fpn)


class _Tombstone:
    """Marks a removed slot.  Removal must not relocate entries — a
    lock-free reader walking the probe chain concurrently would miss
    them — so removed slots become tombstones that probes skip."""

    def __repr__(self):  # pragma: no cover
        return "<tombstone>"


TOMBSTONE = _Tombstone()


@dataclass
class PageTableEntry:
    """One resident page: its frame and reference count."""

    file_id: int
    fpn: int
    frame: int
    refcount: int = 0
    dirty: bool = False
    ready: bool = True   # False while the page-in transfer is in flight
    removed: bool = False  # set (under the bucket lock) by eviction
    # Readahead state: a speculative page was brought in by the
    # readahead daemon and not yet touched by any warp; ``ready_at``
    # is the daemon-timeline completion time of its in-flight transfer
    # (None once the data has landed).
    speculative: bool = False
    ready_at: Optional[float] = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.file_id, self.fpn)


class PageTable:
    """Open-addressing concurrent hash table with bucket locks."""

    #: §V: 16x more slots than frames keeps probes near 3 % when full.
    SLOTS_PER_FRAME = 16
    #: Slots that share one bucket lock.
    SLOTS_PER_LOCK = 8

    def __init__(self, device, nframes: int):
        self.nslots = max(16, nframes * self.SLOTS_PER_FRAME)
        self.base = device.alloc(self.nslots * ENTRY_BYTES)
        self._slots: list[Optional[PageTableEntry]] = [None] * self.nslots
        self._index: dict[tuple[int, int], int] = {}
        nlocks = max(1, self.nslots // self.SLOTS_PER_LOCK)
        self._locks = [TimedLock(f"pt-bucket-{i}") for i in range(nlocks)]
        # Metrics.
        self.lookups = 0
        self.probes = 0
        self.inserts = 0
        self.removes = 0
        #: Untimed removals refused because the key's bucket lock was
        #: held (the ``ra_deferred``-style defer pattern) or the entry
        #: was dirty — either way the caller must not drop the page.
        self.deferred_removes = 0

    # ------------------------------------------------------------------
    # Pure helpers (no simulated time)
    # ------------------------------------------------------------------
    def _hash(self, file_id: int, fpn: int) -> int:
        h = (file_id * 0x9E3779B97F4A7C15 + fpn * 0xBF58476D1CE4E5B9)
        return (h ^ (h >> 31)) % self.nslots

    def _slot_addr(self, slot: int) -> int:
        return self.base + slot * ENTRY_BYTES

    def _lock_for(self, slot: int) -> TimedLock:
        return self._locks[(slot // self.SLOTS_PER_LOCK) % len(self._locks)]

    def _probe_chain(self, file_id: int, fpn: int) -> Iterator[int]:
        slot = self._hash(file_id, fpn)
        for _ in range(self.nslots):
            yield slot
            slot = (slot + 1) % self.nslots

    def get(self, file_id: int, fpn: int) -> Optional[PageTableEntry]:
        """Functional lookup without timing (host-side / test use)."""
        slot = self._index.get((file_id, fpn))
        return None if slot is None else self._slots[slot]

    def entries(self) -> list[PageTableEntry]:
        """All resident entries (functional, host-side / test use)."""
        return [self._slots[s] for s in self._index.values()]

    def host_insert(self, entry: PageTableEntry) -> Optional[PageTableEntry]:
        """Untimed insert by the host readahead daemon.

        The daemon updates the table from the host side (its RPC cost
        is folded into the speculative transfer time), so no warp is
        charged.  If the key is already present the existing entry wins
        and the caller's is discarded, mirroring :meth:`insert`.

        Returns ``None`` (insert deferred) when the key's bucket lock
        is held: a warp may be mid-:meth:`insert` of this very key —
        its entry is unpublished until the scan completes, so racing
        past the lock could create two live entries for one key.  The
        daemon backs off and retries on a later access instead.
        """
        if self._lock_for(self._hash(entry.file_id,
                                     entry.fpn)).holder is not None:
            return None
        existing = self.get(entry.file_id, entry.fpn)
        if existing is not None:
            return existing
        free_slot = None
        for slot in self._probe_chain(entry.file_id, entry.fpn):
            current = self._slots[slot]
            if current is TOMBSTONE:
                if free_slot is None:
                    free_slot = slot
                continue
            if current is None:
                if free_slot is None:
                    free_slot = slot
                break
        if free_slot is None:
            raise RuntimeError("page table full")
        self._slots[free_slot] = entry
        self._index[entry.key] = free_slot
        self.inserts += 1
        return entry

    def host_remove(self, entry: PageTableEntry) -> bool:
        """Untimed removal by the host daemon (readahead reclaim,
        ``madvise(DONTNEED)``).

        Only succeeds on the exact entry while it is ready and
        unreferenced — the same eligibility the timed
        :meth:`remove_if_unreferenced` enforces, since the daemon must
        never yank a page out from under a faulting warp.  Two further
        refusals (both counted in ``deferred_removes``):

        * the key's bucket lock is held — a warp may be mid-fault on
          this very page, about to take a reference; removing under it
          would evict the page it is installing (mirrors the
          :meth:`host_insert` defer);
        * the entry is **dirty** — the untimed path cannot write the
          page back, so removing it would silently drop the write.
          The caller must defer to the timed eviction path (which
          flushes dirty victims) or flush first.
        """
        if self._lock_for(self._hash(entry.file_id,
                                     entry.fpn)).holder is not None:
            self.deferred_removes += 1
            return False
        if entry.dirty:
            self.deferred_removes += 1
            return False
        slot = self._index.get(entry.key)
        current = self._slots[slot] if slot is not None else None
        if current is not entry or entry.refcount > 0 or not entry.ready:
            return False
        entry.removed = True
        self._slots[slot] = TOMBSTONE
        del self._index[entry.key]
        self.removes += 1
        return True

    def collision_rate(self) -> float:
        """Fraction of lookups that needed more than one probe."""
        if self.lookups == 0:
            return 0.0
        return (self.probes - self.lookups) / self.lookups

    # ------------------------------------------------------------------
    # Timed operations (kernel-coroutine generators)
    # ------------------------------------------------------------------
    def lookup(self, ctx: WarpContext, file_id: int, fpn: int):
        """Lock-free timed lookup; returns the entry or ``None``."""
        ctx.charge(HASH_COST_INSTRS, chain=HASH_COST_INSTRS)
        self.lookups += 1
        # The probe chain of :meth:`_probe_chain`, walked inline.
        slots, nslots, base = self._slots, self.nslots, self.base
        slot = self._hash(file_id, fpn)
        for _ in range(nslots):
            self.probes += 1
            yield from ctx.load_scalar(base + slot * ENTRY_BYTES, "u8")
            entry = slots[slot]
            if entry is None:
                return None
            if (entry is not TOMBSTONE and entry.fpn == fpn
                    and entry.file_id == file_id):
                return entry
            slot += 1
            if slot == nslots:
                slot = 0
        return None

    def insert(self, ctx: WarpContext, entry: PageTableEntry):
        """Timed insert under the bucket lock.

        Returns the winning entry: if another warp inserted the same key
        while we waited for the lock, that entry is returned instead and
        the caller's is discarded (the standard concurrent-insert race).
        """
        home = self._hash(entry.file_id, entry.fpn)
        lock = self._lock_for(home)
        yield from ctx.lock(lock)
        ctx.charge(HASH_COST_INSTRS)
        file_id, fpn = entry.file_id, entry.fpn
        slots, nslots, base = self._slots, self.nslots, self.base
        while True:
            winner = None
            free_slot = None
            slot = home
            for _ in range(nslots):
                self.probes += 1
                yield from ctx.load_scalar(base + slot * ENTRY_BYTES, "u8")
                existing = slots[slot]
                if existing is None:
                    if free_slot is None:
                        free_slot = slot
                    break
                if existing is TOMBSTONE:
                    if free_slot is None:
                        free_slot = slot
                elif existing.fpn == fpn and existing.file_id == file_id:
                    winner = existing
                    break
                slot += 1
                if slot == nslots:
                    slot = 0
            if winner is not None:
                yield from ctx.unlock(lock)
                return winner
            if free_slot is None:
                yield from ctx.unlock(lock)
                raise RuntimeError("page table full")
            # The probe loads yielded, so the host readahead daemon may
            # have run meanwhile.  host_insert defers same-key inserts
            # while our lock is held, but a *different* key's chain can
            # land in the slot we picked — re-validate before
            # publishing and rescan if it was taken.
            if slots[free_slot] is not None \
                    and slots[free_slot] is not TOMBSTONE:
                continue
            slots[free_slot] = entry
            self._index[entry.key] = free_slot
            self.inserts += 1
            yield from ctx.store_scalar(
                self._slot_addr(free_slot),
                entry.frame & 0xFFFFFFFFFFFFFFFF, "u8")
            yield from ctx.unlock(lock)
            return entry

    def remove(self, ctx: WarpContext, file_id: int, fpn: int):
        """Timed removal under the bucket lock (used by eviction)."""
        key = (file_id, fpn)
        slot = self._index.get(key)
        if slot is None:
            return False
        lock = self._lock_for(self._hash(file_id, fpn))
        yield from ctx.lock(lock)
        slot = self._index.get(key)
        if slot is None:
            yield from ctx.unlock(lock)
            return False
        self._slots[slot] = TOMBSTONE
        del self._index[key]
        self.removes += 1
        yield from ctx.store_scalar(self._slot_addr(slot), 0, "u8")
        yield from ctx.unlock(lock)
        return True

    def remove_if_unreferenced(self, ctx: WarpContext,
                               victim: PageTableEntry):
        """Timed: atomically evict ``victim`` if it is still resident,
        ready, and unreferenced.

        All three conditions are re-checked under the bucket lock, and
        the check is by *entry identity*, not key: between the eviction
        scan and lock acquisition the page may have been removed and a
        fresh (possibly in-flight) entry inserted under the same key —
        removing that one by key would yank a page out from under its
        faulting warp.  The victim is marked ``removed`` so a concurrent
        ref-taker can detect that it lost and retry.
        """
        key = victim.key
        lock = self._lock_for(self._hash(victim.file_id, victim.fpn))
        yield from ctx.lock(lock)
        slot = self._index.get(key)
        entry = self._slots[slot] if slot is not None else None
        if (entry is not victim or entry.refcount > 0
                or not entry.ready):
            yield from ctx.unlock(lock)
            return False
        entry.removed = True
        self._slots[slot] = TOMBSTONE
        del self._index[key]
        self.removes += 1
        yield from ctx.store_scalar(self._slot_addr(slot), 0, "u8")
        yield from ctx.unlock(lock)
        return True

    def add_refs(self, ctx: WarpContext, entry: PageTableEntry, refs: int):
        """Timed atomic refcount adjustment (may be negative)."""
        slot = self._index.get(entry.key)
        addr = self._slot_addr(slot if slot is not None else 0) + 8
        yield from ctx.atomic_add(addr, refs)
        entry.refcount += refs
        if entry.refcount < 0:
            raise RuntimeError(
                f"negative refcount for page {entry.key}: {entry.refcount}")
        return entry.refcount

