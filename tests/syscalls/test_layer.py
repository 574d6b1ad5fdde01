"""Unit tests for the generic warp-level syscall layer
(:mod:`repro.syscalls`): dispatch, read/write/flush semantics,
madvise, ftruncate, and the non-blocking ticket calls."""

import numpy as np
import pytest

from repro.gpu import Device
from repro.host import HostFileSystem, O_RDWR
from repro.host.ramfs import FileSystemError, RamFS
from repro.paging import GPUfs, GPUfsConfig
from repro.syscalls import (
    MADV_DONTNEED,
    MADV_WILLNEED,
    SYSCALLS,
    SyscallTicket,
)

PAGE = 4096


def make_env(npages=8, num_frames=16, flags=O_RDWR, sanitize=False,
             seed=11):
    data = np.random.RandomState(seed).randint(
        0, 256, npages * PAGE, dtype=np.uint8)
    fs = RamFS()
    fs.create("data", data)
    device = Device(memory_bytes=64 * 1024 * 1024)
    gfs = GPUfs(device, HostFileSystem(fs),
                GPUfsConfig(page_size=PAGE, num_frames=num_frames,
                            sanitize=sanitize))
    fid = gfs.open("data", flags)
    return device, gfs, fid, data


def drive(device, kern):
    device.launch(kern, grid=1, block_threads=32)


class TestDispatch:
    def test_taxonomy_covers_the_five_calls(self):
        for name in ("pread", "pwrite", "msync", "madvise", "ftruncate"):
            assert name in SYSCALLS

    def test_ordering_and_blocking_match_the_paper_taxonomy(self):
        # GPU-syscalls paper §3: msync/ftruncate are strong-ordered
        # and blocking; pread/pwrite relaxed blocking; madvise and the
        # _async variants non-blocking.
        assert SYSCALLS["msync"].ordering == "strong"
        assert SYSCALLS["ftruncate"].ordering == "strong"
        assert SYSCALLS["pread"].ordering == "relaxed"
        assert SYSCALLS["pread"].blocking
        assert not SYSCALLS["madvise"].blocking
        assert not SYSCALLS["pread_async"].blocking
        assert not SYSCALLS["pwrite_async"].blocking

    def test_invoke_dispatches_by_name(self):
        device, gfs, fid, data = make_env()
        dst = device.alloc(256)
        sc = gfs.syscalls

        def kern(ctx):
            n = yield from sc.invoke(ctx, "pread", fid, 0, 256, dst)
            assert n == 256

        drive(device, kern)
        assert sc.stats.pread == 1
        got = device.memory.read(dst, 256)
        assert np.array_equal(got, data[:256])

    def test_invoke_unknown_name_raises(self):
        device, gfs, fid, _ = make_env()
        sc = gfs.syscalls

        def kern(ctx):
            yield from sc.invoke(ctx, "creat", fid)

        with pytest.raises(ValueError, match="creat"):
            drive(device, kern)


class TestReadWrite:
    def test_pwrite_then_msync_persists(self):
        device, gfs, fid, data = make_env()
        sc = gfs.syscalls
        payload = np.arange(512, dtype=np.uint8) % 251
        src = device.alloc(512)
        device.memory.write(src, payload)
        off = 3 * PAGE + 4000         # unaligned, page-straddling

        def kern(ctx):
            yield from sc.pwrite(ctx, fid, off, 512, src)
            flushed = yield from sc.msync(ctx, fid)
            assert flushed >= 1

        drive(device, kern)
        expect = data.copy()
        expect[off:off + 512] = payload
        final = gfs.handle_for(fid).pread(0, len(data))
        assert np.array_equal(final, expect)
        assert sc.stats.pwrite == 1
        assert sc.stats.bytes_written == 512
        assert sc.stats.msync == 1
        assert sc.stats.writeback_bytes == 2 * PAGE  # straddles 2 pages

    def test_pread_after_pwrite_sees_uncommitted_data(self):
        """Read-your-writes through the page cache, before any msync."""
        device, gfs, fid, _ = make_env()
        sc = gfs.syscalls
        payload = np.full(128, 0xAB, dtype=np.uint8)
        src = device.alloc(128)
        dst = device.alloc(128)
        device.memory.write(src, payload)

        def kern(ctx):
            yield from sc.pwrite(ctx, fid, PAGE, 128, src)
            yield from sc.pread(ctx, fid, PAGE, 128, dst)

        drive(device, kern)
        assert np.array_equal(device.memory.read(dst, 128), payload)

    def test_pwrite_to_read_only_fd_raises(self):
        device, gfs, fid, _ = make_env(flags=0)  # O_RDONLY
        sc = gfs.syscalls
        src = device.alloc(64)

        def kern(ctx):
            yield from sc.pwrite(ctx, fid, 0, 64, src)

        with pytest.raises(FileSystemError, match="pwrite"):
            drive(device, kern)
        assert sc.stats.pwrite == 0      # rejected before accounting

    def test_zero_length_rejected(self):
        device, gfs, fid, _ = make_env()
        sc = gfs.syscalls
        buf = device.alloc(64)

        def kern(ctx):
            yield from sc.pread(ctx, fid, 0, 0, buf)

        with pytest.raises(ValueError):
            drive(device, kern)

    def test_blocking_calls_account_blocked_cycles(self):
        device, gfs, fid, _ = make_env()
        sc = gfs.syscalls
        dst = device.alloc(PAGE)

        def kern(ctx):
            yield from sc.pread(ctx, fid, 0, PAGE, dst)

        drive(device, kern)
        assert sc.stats.blocked_cycles > 0


class TestMsync:
    def test_msync_range_flushes_only_overlapping_pages(self):
        device, gfs, fid, data = make_env()
        sc = gfs.syscalls
        src = device.alloc(64)
        device.memory.write(src, np.full(64, 7, dtype=np.uint8))
        flushed = []

        def kern(ctx):
            yield from sc.pwrite(ctx, fid, 0, 64, src)
            yield from sc.pwrite(ctx, fid, 5 * PAGE, 64, src)
            n = yield from sc.msync(ctx, fid, 0, PAGE)
            flushed.append(n)

        drive(device, kern)
        assert flushed[0] == 1           # only page 0, not page 5
        final = gfs.handle_for(fid).pread(0, len(data))
        assert np.array_equal(final[:64], np.full(64, 7, dtype=np.uint8))
        assert np.array_equal(final[5 * PAGE:5 * PAGE + 64],
                              data[5 * PAGE:5 * PAGE + 64])

    def test_dirty_eviction_writes_back(self):
        """Dirty pages forced out by frame pressure reach the host
        even without msync."""
        device, gfs, fid, _ = make_env(npages=8, num_frames=2)
        sc = gfs.syscalls
        src = device.alloc(64)
        device.memory.write(src, np.full(64, 9, dtype=np.uint8))

        def kern(ctx):
            for p in range(8):
                yield from sc.pwrite(ctx, fid, p * PAGE, 64, src)

        drive(device, kern)
        assert sc.stats.writeback_bytes >= 6 * PAGE
        final = gfs.handle_for(fid).pread(0, 64)
        # page 0 was evicted (frame pressure) and written back
        assert np.array_equal(final, np.full(64, 9, dtype=np.uint8))


class TestMadvise:
    def test_willneed_prefetches_and_first_touch_is_minor(self):
        device, gfs, fid, data = make_env()
        sc = gfs.syscalls
        dst = device.alloc(PAGE)

        def kern(ctx):
            yield from sc.madvise(ctx, fid, 2 * PAGE, 2 * PAGE,
                                  MADV_WILLNEED)
            yield from ctx.sleep(100_000, io_wait=True)
            yield from sc.pread(ctx, fid, 2 * PAGE, PAGE, dst)

        drive(device, kern)
        assert sc.stats.advise_prefetched == 2
        assert gfs.stats.major_faults == 0
        assert gfs.stats.minor_faults >= 1
        assert np.array_equal(device.memory.read(dst, PAGE),
                              data[2 * PAGE:3 * PAGE])

    def test_dontneed_drops_clean_resident_page(self):
        device, gfs, fid, _ = make_env()
        sc = gfs.syscalls
        dst = device.alloc(PAGE)

        def kern(ctx):
            yield from sc.pread(ctx, fid, 0, PAGE, dst)
            yield from sc.madvise(ctx, fid, 0, PAGE, MADV_DONTNEED)
            yield from sc.pread(ctx, fid, 0, PAGE, dst)

        drive(device, kern)
        assert sc.stats.advise_dropped == 1
        assert gfs.stats.major_faults == 2   # re-faulted from host

    def test_dontneed_defers_on_dirty_page(self):
        device, gfs, fid, _ = make_env()
        sc = gfs.syscalls
        src = device.alloc(64)

        def kern(ctx):
            yield from sc.pwrite(ctx, fid, 0, 64, src)
            yield from sc.madvise(ctx, fid, 0, PAGE, MADV_DONTNEED)

        drive(device, kern)
        assert sc.stats.advise_dropped == 0
        assert sc.stats.advise_deferred >= 1

    def test_unknown_advice_raises(self):
        device, gfs, fid, _ = make_env()
        sc = gfs.syscalls

        def kern(ctx):
            yield from sc.madvise(ctx, fid, 0, PAGE, 99)

        with pytest.raises(ValueError, match="advice"):
            drive(device, kern)


class TestFtruncate:
    def test_shrink_discards_beyond_eof_and_zeroes_tail(self):
        device, gfs, fid, data = make_env(npages=4)
        sc = gfs.syscalls
        dst = device.alloc(PAGE)
        new_size = PAGE + 100

        def kern(ctx):
            yield from sc.pread(ctx, fid, PAGE, PAGE, dst)  # resident
            yield from sc.ftruncate(ctx, fid, new_size)

        drive(device, kern)
        assert gfs.handle_for(fid).size() == new_size
        assert sc.stats.ftruncate == 1
        # The resident straddle page's tail beyond EOF is zeroed, so a
        # later writeback cannot resurrect stale bytes.
        final = gfs.handle_for(fid).pread(0, new_size)
        assert np.array_equal(final, data[:new_size])

    def test_shrink_with_pinned_page_beyond_eof_raises(self):
        device, gfs, fid, _ = make_env(npages=4)
        sc = gfs.syscalls

        def kern(ctx):
            yield from gfs.gmmap(ctx, fid, 3 * PAGE)  # pin page 3
            yield from sc.ftruncate(ctx, fid, PAGE)

        with pytest.raises(RuntimeError):
            drive(device, kern)

    def test_negative_size_rejected(self):
        device, gfs, fid, _ = make_env()
        sc = gfs.syscalls

        def kern(ctx):
            yield from sc.ftruncate(ctx, fid, -1)

        with pytest.raises(ValueError):
            drive(device, kern)


class TestAsyncTickets:
    def test_pread_async_returns_ticket_and_wait_blocks(self):
        device, gfs, fid, data = make_env()
        sc = gfs.syscalls
        dst = device.alloc(2 * PAGE)
        waited = []

        def kern(ctx):
            t = yield from sc.pread_async(ctx, fid, 0, 2 * PAGE, dst)
            assert isinstance(t, SyscallTicket)
            t0 = ctx.now
            n = yield from sc.wait(ctx, t)
            waited.append((n, ctx.now - t0))

        drive(device, kern)
        assert waited[0][0] == 2 * PAGE
        assert waited[0][1] > 0          # the wait actually slept
        assert sc.stats.tickets_issued == 1
        assert sc.stats.tickets_waited == 1
        assert np.array_equal(device.memory.read(dst, 2 * PAGE),
                              data[:2 * PAGE])

    def test_wait_is_idempotent(self):
        device, gfs, fid, _ = make_env()
        sc = gfs.syscalls
        dst = device.alloc(PAGE)

        def kern(ctx):
            t = yield from sc.pread_async(ctx, fid, 0, PAGE, dst)
            yield from sc.wait(ctx, t)
            yield from sc.wait(ctx, t)   # second wait: no extra sleep

        drive(device, kern)
        assert sc.stats.tickets_waited == 1

    def test_pwrite_async_reaches_host_directly(self):
        device, gfs, fid, _ = make_env()
        sc = gfs.syscalls
        payload = np.full(256, 0x5C, dtype=np.uint8)
        src = device.alloc(256)
        device.memory.write(src, payload)

        def kern(ctx):
            t = yield from sc.pwrite_async(ctx, fid, 0, 256, src)
            yield from sc.wait(ctx, t)

        drive(device, kern)
        assert np.array_equal(gfs.handle_for(fid).pread(0, 256), payload)

    def test_pwrite_async_to_read_only_fd_raises(self):
        device, gfs, fid, _ = make_env(flags=0)
        sc = gfs.syscalls
        src = device.alloc(64)

        def kern(ctx):
            yield from sc.pwrite_async(ctx, fid, 0, 64, src)

        with pytest.raises(FileSystemError):
            drive(device, kern)


class TestTelemetry:
    def test_syscall_counters_reach_profile_v7(self):
        from repro.telemetry.profiler import capture

        with capture(trace=False) as prof:
            device, gfs, fid, _ = make_env()
            sc = gfs.syscalls
            buf = device.alloc(PAGE)

            def kern(ctx):
                yield from sc.pread(ctx, fid, 0, PAGE, buf)
                yield from sc.pwrite(ctx, fid, 0, PAGE, buf)
                yield from sc.msync(ctx, fid)

            drive(device, kern)
        doc = prof.profiles[0].to_dict()
        assert doc["version"] == 8
        sy = doc["components"]["syscalls"]
        assert sy["pread"] == 1
        assert sy["pwrite"] == 1
        assert sy["msync"] == 1
        assert sy["writeback_bytes"] == PAGE
        assert sy["blocked_cycles"] > 0


class TestSanitizedCopyTail:
    """A warp copy's last ``nbytes % 512`` bytes are that warp's store:
    the sanitizer sees them like the full 512-byte steps."""

    @staticmethod
    def _two_pwrites(nbytes, offsets):
        device, gfs, fid, _ = make_env(sanitize=True)
        sc = gfs.syscalls
        srcs = [device.alloc(nbytes) for _ in offsets]

        def kern(ctx):
            w = ctx.warp_in_block
            yield from sc.pwrite(ctx, fid, offsets[w], nbytes, srcs[w])

        device.launch(kern, grid=1, block_threads=32 * len(offsets))
        return gfs.sanitizer

    @pytest.mark.parametrize("nbytes", [100, 512, 1000])
    def test_unlocked_pwrites_to_one_offset_are_torn(self, nbytes):
        sanitizer = self._two_pwrites(nbytes, (0, 0))
        violations = sanitizer.violations
        assert {v.invariant for v in violations} == {"torn-write"}
        # Each of the second writer's steps, and its tail, tears once.
        assert len(violations) == nbytes // 512 + (nbytes % 512 > 0)

    @pytest.mark.parametrize("nbytes", [100, 1000])
    def test_pwrites_to_disjoint_pages_are_clean(self, nbytes):
        sanitizer = self._two_pwrites(nbytes, (0, PAGE + 8))
        assert sanitizer.violations == []

    @pytest.mark.parametrize("nbytes", [100, 1000])
    def test_pwrites_to_disjoint_bytes_of_one_page_are_clean(self, nbytes):
        # The warp that faults the page in fills the whole frame; the
        # other warp reaches the frame only once it is ready, so its
        # copy into other bytes of the page is ordered after the fill.
        sanitizer = self._two_pwrites(nbytes, (0, 1024))
        assert sanitizer.violations == []
