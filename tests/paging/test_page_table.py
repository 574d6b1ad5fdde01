"""Tests for the concurrent page-table hash table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import Device
from repro.paging.page_table import PageTable, PageTableEntry


@pytest.fixture
def device():
    return Device(memory_bytes=32 * 1024 * 1024)


@pytest.fixture
def table(device):
    return PageTable(device, nframes=32)


def drive(device, gen_fn, *args):
    """Run a single-warp kernel around a table operation; returns results."""
    out = []

    def kern(ctx):
        result = yield from gen_fn(ctx, *args)
        out.append(result)

    device.launch(kern, grid=1, block_threads=32)
    return out[0]


class TestGeometry:
    def test_sixteen_slots_per_frame(self, table):
        assert table.nslots == 32 * 16

    def test_memory_overhead_below_five_percent(self, device):
        """§V: table memory overhead is <5% of the page cache size."""
        nframes = 512
        t = PageTable(device, nframes)
        table_bytes = t.nslots * 16
        cache_bytes = nframes * 4096
        assert table_bytes / cache_bytes < 0.07


class TestInsertLookup:
    def test_lookup_missing_returns_none(self, device, table):
        assert drive(device, table.lookup, 1, 0) is None

    def test_insert_then_lookup(self, device, table):
        entry = PageTableEntry(1, 7, frame=3)
        won = drive(device, table.insert, entry)
        assert won is entry
        found = drive(device, table.lookup, 1, 7)
        assert found is entry

    def test_duplicate_insert_returns_existing(self, device, table):
        first = PageTableEntry(1, 7, frame=3)
        second = PageTableEntry(1, 7, frame=9)
        drive(device, table.insert, first)
        won = drive(device, table.insert, second)
        assert won is first

    def test_different_files_do_not_collide_logically(self, device, table):
        a = PageTableEntry(1, 0, frame=0)
        b = PageTableEntry(2, 0, frame=1)
        drive(device, table.insert, a)
        drive(device, table.insert, b)
        assert drive(device, table.lookup, 1, 0) is a
        assert drive(device, table.lookup, 2, 0) is b

    def test_remove_then_lookup_misses(self, device, table):
        drive(device, table.insert, PageTableEntry(1, 7, frame=3))
        assert drive(device, table.remove, 1, 7)
        assert drive(device, table.lookup, 1, 7) is None

    def test_remove_missing_returns_false(self, device, table):
        assert not drive(device, table.remove, 9, 9)

    def test_remove_repairs_probe_chain(self, device, table):
        """Entries displaced by linear probing stay findable after a
        removal earlier in their chain."""
        entries = [PageTableEntry(5, fpn, frame=fpn) for fpn in range(20)]
        for e in entries:
            drive(device, table.insert, e)
        drive(device, table.remove, 5, 0)
        for e in entries[1:]:
            assert drive(device, table.lookup, 5, e.fpn) is e

    def test_table_full_raises(self, device):
        small = PageTable(device, nframes=1)  # 16 slots
        for i in range(16):
            drive(device, small.insert, PageTableEntry(1, i, frame=i))
        with pytest.raises(RuntimeError, match="full"):
            drive(device, small.insert, PageTableEntry(1, 99, frame=99))


class TestRefcounts:
    def test_add_refs_accumulates(self, device, table):
        e = PageTableEntry(1, 0, frame=0)
        drive(device, table.insert, e)
        drive(device, table.add_refs, e, 32)
        drive(device, table.add_refs, e, 5)
        assert e.refcount == 37

    def test_negative_refcount_raises(self, device, table):
        e = PageTableEntry(1, 0, frame=0)
        drive(device, table.insert, e)
        with pytest.raises(RuntimeError, match="negative"):
            drive(device, table.add_refs, e, -1)


class TestCollisionRate:
    def test_low_collision_rate_at_full_cache(self, device):
        """§V: 16x sizing yields a ~3% collision rate when the cache is
        full (one resident entry per frame)."""
        nframes = 256
        t = PageTable(device, nframes)
        for i in range(nframes):
            drive(device, t.insert, PageTableEntry(1, i, frame=i))
        t.lookups = t.probes = 0
        for i in range(nframes):
            drive(device, t.lookup, 1, i)
        assert t.collision_rate() < 0.10

    @given(keys=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 1000)),
                        min_size=1, max_size=60))
    @settings(max_examples=20, deadline=None)
    def test_insert_lookup_consistency(self, keys):
        device = Device(memory_bytes=8 * 1024 * 1024)
        t = PageTable(device, nframes=64)
        entries = {}
        for frame, (fid, fpn) in enumerate(sorted(keys)):
            e = PageTableEntry(fid, fpn, frame=frame)
            entries[(fid, fpn)] = e
            drive(device, t.insert, e)
        for (fid, fpn), e in entries.items():
            assert t.get(fid, fpn) is e
        assert t.get(99, 99) is None


class TestHostInsertLockDiscipline:
    """The host readahead daemon must not race a warp's bucket-locked
    insert (REVIEW: duplicate live entries for one key)."""

    def test_host_insert_defers_while_bucket_lock_held(self, device, table):
        e = PageTableEntry(1, 7, frame=0, ready=False, speculative=True)
        lock = table._lock_for(table._hash(1, 7))
        lock.holder = object()          # a warp is mid-insert here
        assert table.host_insert(e) is None
        assert table.get(1, 7) is None
        lock.holder = None
        assert table.host_insert(e) is e
        assert table.get(1, 7) is e

    def test_host_insert_returns_existing_entry(self, device, table):
        first = PageTableEntry(1, 7, frame=0)
        assert table.host_insert(first) is first
        dup = PageTableEntry(1, 7, frame=1)
        assert table.host_insert(dup) is first
        assert table.get(1, 7) is first

    def test_insert_rescans_when_daemon_takes_free_slot(self, device, table):
        """A host_insert of a *different* key (different bucket lock,
        overlapping probe chain) landing in the slot a mid-flight
        insert() picked must not be clobbered: the warp re-validates
        before publishing and probes on."""
        # Pin the hash so the warp's key homes at slot 64 and the
        # daemon's key at slot 56 — different lock groups (8 slots per
        # lock), but the daemon's chain walks 56..63 (pre-filled) and
        # reaches 64.
        mapping = {(1, 3): 64, (2, 9): 56}
        mapping.update({(3, i): 56 + i for i in range(8)})
        orig = PageTable._hash
        table._hash = lambda fid, fpn: mapping.get(
            (fid, fpn), orig(table, fid, fpn))
        for i in range(8):
            table.host_insert(PageTableEntry(3, i, frame=10 + i))
        # A tombstone at 64: the warp picks it as free_slot, then keeps
        # probing (yielding) past the occupied 65 — the daemon's window.
        doomed = PageTableEntry(1, 3, frame=2)
        table.host_insert(doomed)
        assert table.host_remove(doomed)
        blocker = PageTableEntry(4, 0, frame=3)
        mapping[(4, 0)] = 65
        table.host_insert(blocker)

        warp_entry = PageTableEntry(1, 3, frame=0)
        daemon_entry = PageTableEntry(2, 9, frame=1, ready=False,
                                      speculative=True)
        p0 = table.probes
        fired = []

        def kern(ctx):
            gen = table.insert(ctx, warp_entry)
            try:
                step = gen.send(None)
                while True:
                    # Fire once the warp has chosen the tombstone at 64
                    # and is mid-probe on slot 65.
                    if not fired and table.probes >= p0 + 2:
                        fired.append(table.host_insert(daemon_entry))
                    step = gen.send((yield step))
            except StopIteration:
                pass

        device.launch(kern, grid=1, block_threads=32)
        assert fired and fired[0] is daemon_entry
        assert table._slots[64] is daemon_entry
        assert table.get(2, 9) is daemon_entry
        assert table.get(1, 3) is warp_entry
        live = [s for s in table._slots if isinstance(s, PageTableEntry)]
        assert live.count(daemon_entry) == 1
        assert live.count(warp_entry) == 1


class TestHostRemoveLockDiscipline:
    """host_remove must defer — never drop a write — when a warp holds
    the bucket lock or the page is dirty (the write-back analogue of
    the host_insert defer above)."""

    def test_host_remove_defers_while_bucket_lock_held(self, device,
                                                       table):
        e = PageTableEntry(1, 7, frame=0, ready=True, speculative=True)
        assert table.host_insert(e) is e
        lock = table._lock_for(table._hash(1, 7))
        lock.holder = object()          # a warp is mid-fault here
        assert not table.host_remove(e)
        assert table.deferred_removes == 1
        assert table.get(1, 7) is e     # still resident, not removed
        assert not e.removed
        lock.holder = None
        assert table.host_remove(e)
        assert table.get(1, 7) is None

    def test_host_remove_refuses_dirty_entry(self, device, table):
        e = PageTableEntry(1, 7, frame=0, ready=True, speculative=True)
        table.host_insert(e)
        e.dirty = True                  # a write landed on the page
        assert not table.host_remove(e)
        assert table.deferred_removes == 1
        assert table.get(1, 7) is e
        e.dirty = False                 # flushed by the timed path
        assert table.host_remove(e)

    def test_speculative_reclaim_skips_dirty_promoted_page(self, device):
        """allocate_speculative goes through host_remove, so a
        speculative page that was promoted and written can never be
        silently reclaimed by the readahead daemon."""
        from repro.paging.gpufs import GPUfsConfig
        from repro.paging.page_cache import PageCache

        cache = PageCache(device, GPUfsConfig(page_size=4096,
                                              num_frames=2))
        frames = [cache.allocate_speculative() for _ in range(2)]
        assert None not in frames
        entries = []
        for i, frame in enumerate(frames):
            e = PageTableEntry(1, i, frame=frame, ready=True,
                               speculative=True)
            cache.table.host_insert(e)
            cache.bind(e)
            cache.mark_speculative(frame)
            entries.append(e)
        entries[0].dirty = True         # written after a write fault
        got = cache.allocate_speculative()
        # Only the clean speculative frame is reclaimable.
        assert got == entries[1].frame
        assert cache.table.get(1, 0) is entries[0]
        assert cache.table.get(1, 1) is None
        assert cache.allocate_speculative() is None
        # Each refused reclaim attempt on the dirty page counts.
        assert cache.table.deferred_removes == 2
