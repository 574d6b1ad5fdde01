"""Tests for the page cache: pinning, eviction, writeback."""

import pytest

from repro.gpu import Device
from repro.paging.gpufs import GPUfsConfig
from repro.paging.page_cache import PageCache, PageCacheFullError
from repro.paging.page_table import PageTableEntry


@pytest.fixture
def device():
    return Device(memory_bytes=32 * 1024 * 1024)


@pytest.fixture
def cache(device):
    return PageCache(device, GPUfsConfig(page_size=4096, num_frames=4))


def drive(device, gen_fn, *args, **kwargs):
    out = []

    def kern(ctx):
        out.append((yield from gen_fn(ctx, *args, **kwargs)))

    device.launch(kern, grid=1, block_threads=32)
    return out[0]


def _no_writeback(ctx, entry, frame_addr):
    return
    yield  # pragma: no cover


class TestConfig:
    """The cache's geometry checks run when its GPUfsConfig is built."""

    def test_page_size_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            GPUfsConfig(page_size=3000)

    def test_frames_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            GPUfsConfig(num_frames=0)


class TestFrames:
    def test_frame_addresses_are_page_strided(self, cache):
        assert cache.frame_addr(1) - cache.frame_addr(0) == 4096

    def test_bad_frame_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.frame_addr(4)

    def test_allocate_uses_free_frames_first(self, device, cache):
        frames = [drive(device, cache.allocate_frame, _no_writeback)
                  for _ in range(4)]
        assert sorted(frames) == [0, 1, 2, 3]
        assert cache.evictions == 0


class TestEviction:
    def test_evicts_unreferenced_page(self, device, cache):
        for i in range(4):
            frame = drive(device, cache.allocate_frame, _no_writeback)
            entry = PageTableEntry(1, i, frame=frame)
            cache.bind(entry)
            drive(device, cache.table.insert, entry)
        frame = drive(device, cache.allocate_frame, _no_writeback)
        assert cache.evictions == 1
        assert frame in range(4)

    def test_active_pages_are_never_evicted(self, device, cache):
        """The paper's core invariant: refcount > 0 pins the mapping."""
        entries = []
        for i in range(4):
            frame = drive(device, cache.allocate_frame, _no_writeback)
            entry = PageTableEntry(1, i, frame=frame, refcount=1)
            cache.bind(entry)
            drive(device, cache.table.insert, entry)
            entries.append(entry)
        with pytest.raises(PageCacheFullError):
            drive(device, cache.allocate_frame, _no_writeback)
        # Releasing one page makes exactly that page evictable.
        entries[2].refcount = 0
        frame = drive(device, cache.allocate_frame, _no_writeback)
        assert frame == entries[2].frame
        assert cache.table.get(1, 2) is None

    def test_dirty_victim_triggers_writeback(self, device, cache):
        written = []

        def writeback(ctx, entry, frame_addr):
            written.append(entry.key)
            return
            yield  # pragma: no cover

        frame = drive(device, cache.allocate_frame, writeback)
        entry = PageTableEntry(1, 0, frame=frame, dirty=True)
        cache.bind(entry)
        drive(device, cache.table.insert, entry)
        for _ in range(4):
            drive(device, cache.allocate_frame, writeback)
        assert written == [(1, 0)]
        assert cache.writebacks == 1

    def test_release_frame_returns_to_free_list(self, device, cache):
        frame = drive(device, cache.allocate_frame, _no_writeback)
        cache.release_frame(frame)
        assert drive(device, cache.allocate_frame, _no_writeback) == frame

    def test_pinned_frames_counter(self, device, cache):
        frame = drive(device, cache.allocate_frame, _no_writeback)
        entry = PageTableEntry(1, 0, frame=frame, refcount=3)
        cache.bind(entry)
        assert cache.pinned_frames() == 1
        entry.refcount = 0
        assert cache.pinned_frames() == 0
