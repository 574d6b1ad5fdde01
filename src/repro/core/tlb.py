"""The per-threadblock software TLB (§III-E, §IV-D).

A direct-mapped hash table in the threadblock's scratchpad memory.
Besides cached ``(file page) -> frame address`` mappings, each entry
keeps a *threadblock-private* reference count, making the TLB a
reference-count aggregator for the block's threads (the sloppy-counter
optimisation the paper cites).

Semantics, following the paper's discussion of the TLB's complications:

* Reads are lock-free (one scratchpad access); modifications take the
  entry's lock.
* Every resident entry holds **one global pin** on its page (taken via
  the normal fault path when the entry was created), so a cached mapping
  can never go stale — the page cannot be evicted.
* An entry whose local count is positive **cannot be evicted on
  conflict** (the count would be lost); the conflicting access *bypasses*
  the TLB and works against the global page table directly, which "does
  not affect the correctness of the counter".
* An entry whose local count has dropped to zero stays cached — that is
  the TLB's payoff — and is evicted (releasing its pin) only on conflict
  or when the block drains its TLB at the end of the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.metrics import APStats
from repro.gpu.instructions import TimedLock
from repro.gpu.kernel import WarpContext

#: Acquire cost of a scratchpad spin lock, in cycles.
SCRATCH_LOCK_CYCLES = 35.0

#: Instruction costs of the TLB code paths (index hash, tag compare,
#: entry update).  Updates are costly relative to lookups — "the TLB
#: data structure itself adds overheads to address translation, because
#: the TLB updates are costly" (§III-E) — and scale with the entry size
#: (12 B for short apointers, 20 B for long, §IV-D).
LOOKUP_INSTRS = 8
UPDATE_INSTRS = 30


@dataclass
class _Entry:
    key: tuple[int, int]          # (file_id, xpage)
    frame_addr: int
    tb_refs: int                  # threadblock-private reference count
    global_held: int              # global refs this entry is holding


class SoftwareTLB:
    """Direct-mapped TLB for one threadblock."""

    def __init__(self, entries: int, entry_bytes: int, scratchpad,
                 stats: Optional[APStats] = None):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("TLB size must be a positive power of two")
        self.entries = entries
        # Scratchpad words moved per entry update (size-dependent cost:
        # this is what makes short apointers cheaper in Table III).
        self.entry_words = max(2, -(-entry_bytes // 8))
        self._table: list[Optional[_Entry]] = [None] * entries
        self._locks = [TimedLock(f"tlb-{i}", latency=SCRATCH_LOCK_CYCLES)
                       for i in range(entries)]
        # Claim the scratchpad footprint (raises if it does not fit).
        scratchpad.alloc_array("tlb", entries * entry_bytes, "u1")
        self.stats = stats if stats is not None else APStats()

    # ------------------------------------------------------------------
    def _slot(self, file_id: int, xpage: int) -> int:
        h = file_id * 0x9E3779B1 + xpage * 0x85EBCA77
        return (h ^ (h >> 13)) % self.entries

    # ------------------------------------------------------------------
    # Timed operations
    # ------------------------------------------------------------------
    def lookup_and_ref(self, ctx: WarpContext, file_id: int, xpage: int,
                       refs: int):
        """Timed: if ``(file_id, xpage)`` is cached, take ``refs`` local
        references and return the frame address; else return ``None``."""
        slot = self._slot(file_id, xpage)
        ctx.charge(LOOKUP_INSTRS)
        yield from ctx.scratch(1)           # lock-free tag read
        entry = self._table[slot]
        if entry is None or entry.key != (file_id, xpage):
            self.stats.tlb_misses += 1
            return None
        lock = self._locks[slot]
        yield from ctx.lock(lock)
        ctx.charge(UPDATE_INSTRS)
        yield from ctx.scratch(self.entry_words)   # count update
        # Re-check under the lock: a conflicting install may have
        # evicted this (zero-referenced) entry since the tag read.
        if self._table[slot] is not entry:
            yield from ctx.unlock(lock)
            self.stats.tlb_misses += 1
            return None
        self.stats.tlb_hits += 1
        entry.tb_refs += refs
        yield from ctx.unlock(lock)
        return entry.frame_addr

    def install(self, ctx: WarpContext, file_id: int, xpage: int,
                frame_addr: int, refs: int):
        """Timed: cache a fresh mapping holding ``refs`` local refs.

        Returns ``(installed, evicted)``.  ``installed`` is ``False`` —
        a *bypass* — when the slot is occupied by an entry with live
        references, in which case the caller keeps working against the
        global table.  A zero-referenced occupant is evicted and returned
        as ``(key, global_held)``; the caller must release its global
        references.
        """
        slot = self._slot(file_id, xpage)
        lock = self._locks[slot]
        yield from ctx.lock(lock)
        ctx.charge(UPDATE_INSTRS)
        yield from ctx.scratch(self.entry_words)
        occupant = self._table[slot]
        if occupant is not None and occupant.key == (file_id, xpage):
            # Another warp of the block installed it while we faulted;
            # merge our references into the existing entry.
            occupant.tb_refs += refs
            occupant.global_held += refs
            yield from ctx.unlock(lock)
            return True, None
        if occupant is not None and occupant.tb_refs > 0:
            self.stats.tlb_bypasses += 1
            yield from ctx.unlock(lock)
            return False, None
        evicted = None
        if occupant is not None:
            self.stats.tlb_evictions += 1
            evicted = (occupant.key, occupant.global_held)
        self._table[slot] = _Entry((file_id, xpage), frame_addr, refs,
                                   global_held=refs)
        yield from ctx.scratch(self.entry_words)
        yield from ctx.unlock(lock)
        return True, evicted

    def unref(self, ctx: WarpContext, file_id: int, xpage: int,
              refs: int):
        """Timed: drop ``refs`` local references.

        Returns ``True`` if the entry was found (the global count needs
        no update); ``False`` if it was not (entry was installed by a
        bypass path — caller updates the global count itself).
        """
        slot = self._slot(file_id, xpage)
        ctx.charge(LOOKUP_INSTRS)
        yield from ctx.scratch(1)
        entry = self._table[slot]
        if entry is None or entry.key != (file_id, xpage):
            return False
        lock = self._locks[slot]
        yield from ctx.lock(lock)
        ctx.charge(UPDATE_INSTRS)
        if self._table[slot] is not entry:
            # Evicted while we waited — only possible at zero local
            # refs, so the caller cannot be holding any.
            yield from ctx.unlock(lock)
            return False
        entry.tb_refs -= refs
        if entry.tb_refs < 0:
            yield from ctx.unlock(lock)
            raise RuntimeError(
                f"TLB local refcount underflow for page {entry.key}")
        yield from ctx.scratch(1)
        yield from ctx.unlock(lock)
        return True

    def drain(self, ctx: WarpContext):
        """Timed: evict every entry; returns ``(key, global_held)`` pairs
        whose global references the caller must release.  Called at
        threadblock teardown."""
        released = []
        for slot, entry in enumerate(self._table):
            if entry is None:
                continue
            lock = self._locks[slot]
            yield from ctx.lock(lock)
            self._table[slot] = None
            yield from ctx.scratch(1)
            yield from ctx.unlock(lock)
            released.append((entry.key, entry.global_held))
        return released
