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


def _scan_every_candidate(cache, protect=frozenset()):
    """``PageCache.allocate_speculative`` without its early return when
    no frame is low priority: every policy candidate is examined."""
    if cache._free:
        return cache._free.pop()
    for frame in cache.policy.candidates():
        entry = cache._owner[frame]
        if (entry is None or not entry.speculative
                or entry.refcount > 0 or not entry.ready
                or entry.key in protect):
            continue
        if not cache.table.host_remove(entry):
            continue
        cache._retire(entry, frame)
        return frame
    return None


class TestAllocateSpeculative:
    """With no free frame and no low-priority frame, the readahead
    daemon's frame grab returns ``None`` without scanning.  That is
    exact while every resident speculative page's frame is marked low
    priority; both are checked on every call of the readahead
    workloads."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"scanned": 0, "short": 0}
        allocate = PageCache.allocate_speculative

        def checked(self, protect=frozenset()):
            speculative = {frame for frame, entry in enumerate(self._owner)
                           if entry is not None and entry.speculative}
            assert speculative <= self.policy.low_priority
            if self._free or self.policy.low_priority:
                calls["scanned"] += 1
                return allocate(self, protect)
            calls["short"] += 1
            # With nothing speculative resident the full scan reclaims
            # nothing, so running it first changes no state.
            assert _scan_every_candidate(self, protect) is None
            assert allocate(self, protect) is None
            return None

        monkeypatch.setattr(PageCache, "allocate_speculative", checked)
        return calls

    def test_filescan(self, calls):
        from repro.workloads.filebench import run_sequential_file_read

        # perfbench's tiny filescan: the working set is 4x the cache.
        r = run_sequential_file_read(npages=64, warps=4, num_frames=16,
                                     readahead=True, seed=3)
        assert r.verified
        assert calls["short"] and calls["scanned"]

    @pytest.mark.parametrize("workload", ["seq-read", "file-memcpy"])
    def test_ablation_readahead_quick_point(self, calls, workload):
        import repro.harness.experiments  # noqa: F401 - registers
        from repro.harness import REGISTRY

        REGISTRY["ablation_readahead"].point(
            scale="quick", workload=workload, readahead=True,
            eviction_policy="clock")
        assert calls["scanned"] + calls["short"]


def _full_walk(cache, protect=frozenset()):
    """``PageCache.allocate_speculative`` walking every policy
    candidate, not just the low-priority frames, behind the same early
    return."""
    if not cache._free and not cache.policy.low_priority:
        return None
    return _scan_every_candidate(cache, protect)


#: Readahead file reads whose working set overflows the cache, so the
#: daemon's frame grab walks the low-priority frames: perfbench's tiny
#: ``filescan``, its copying form and a wider grid.
PRESSURED_READS = {
    "filescan": dict(npages=64, warps=4, num_frames=16),
    "file-memcpy": dict(npages=64, warps=4, num_frames=16,
                        copy_pages=True),
    "wide": dict(npages=128, warps=8, num_frames=24),
}


class TestLowPriorityWalk:
    """The readahead daemon's frame grab walks only the low-priority
    frames, in the policy's candidate order.  On every call, under each
    policy, it returns the frame the full candidate walk returns, and
    the whole run, random draws included, is the same."""

    def _run(self, monkeypatch, shape, policy, allocate):
        from repro.workloads.filebench import run_sequential_file_read

        frames, walked = [], [0]

        def recorded(self, protect=frozenset()):
            if not self._free and self.policy.low_priority:
                walked[0] += 1
            frames.append(allocate(self, protect))
            return frames[-1]

        monkeypatch.setattr(PageCache, "allocate_speculative", recorded)
        r = run_sequential_file_read(readahead=True, eviction_policy=policy,
                                     seed=3, **PRESSURED_READS[shape])
        assert r.verified
        return r, frames, walked[0]

    @pytest.mark.parametrize("policy", ["clock", "fifo", "lru", "random"])
    @pytest.mark.parametrize("shape", sorted(PRESSURED_READS))
    def test_same_frame_as_the_full_walk(self, monkeypatch, policy, shape):
        got = self._run(monkeypatch, shape, policy,
                        PageCache.allocate_speculative)
        want = self._run(monkeypatch, shape, policy, _full_walk)
        assert got == want
        # Walks both reclaimed a frame and found none to reclaim.
        result, frames, walked = got
        assert walked and None in frames
        assert any(f is not None for f in frames)
