"""Integration tests for the GPUfs layer: faults, gmmap, batching,
writeback, and fault filters."""

import numpy as np
import pytest

from repro.gpu import Device
from repro.host import HostFileSystem, O_RDWR
from repro.host.ramfs import RamFS
from repro.paging import GPUfs, GPUfsConfig
from repro.paging.gpufs import FaultFilter, PROT_READ, PROT_WRITE

PAGE = 4096


def make_gpufs(file_bytes, num_frames=16, batching=True, fault_filter=None):
    fs = RamFS()
    fs.create("data", file_bytes)
    device = Device(memory_bytes=64 * 1024 * 1024)
    gfs = GPUfs(device, HostFileSystem(fs),
                GPUfsConfig(page_size=PAGE, num_frames=num_frames,
                            batching=batching),
                fault_filter=fault_filter)
    return device, gfs


@pytest.fixture
def file_bytes():
    return np.random.RandomState(7).randint(
        0, 256, 64 * PAGE, dtype=np.uint8)


class TestFaults:
    def test_first_access_is_major_second_is_minor(self, file_bytes):
        device, gfs = make_gpufs(file_bytes)
        fid = gfs.open("data")

        def kern(ctx, fid):
            addr = yield from gfs.gmmap(ctx, fid, 0)
            yield from gfs.gmunmap(ctx, fid, 0)
            addr = yield from gfs.gmmap(ctx, fid, 0)
            yield from gfs.gmunmap(ctx, fid, 0)

        device.launch(kern, grid=1, block_threads=32, args=(fid,))
        assert gfs.stats.major_faults == 1
        assert gfs.stats.minor_faults == 1

    def test_fault_returns_correct_data(self, file_bytes):
        device, gfs = make_gpufs(file_bytes)
        fid = gfs.open("data")
        seen = []

        def kern(ctx, fid):
            addr = yield from gfs.gmmap(ctx, fid, 5 * PAGE)
            vals = yield from ctx.load(addr + ctx.lane * 4, "u4")
            seen.append(vals.copy())

        device.launch(kern, grid=1, block_threads=32, args=(fid,))
        expected = file_bytes[5 * PAGE:5 * PAGE + 128].view(np.uint32)
        assert np.array_equal(seen[0], expected)

    def test_intra_page_offset_respected(self, file_bytes):
        device, gfs = make_gpufs(file_bytes)
        fid = gfs.open("data")
        seen = []

        def kern(ctx, fid):
            addr = yield from gfs.gmmap(ctx, fid, 3 * PAGE + 100)
            vals = yield from ctx.load(addr + ctx.lane * 4, "u4")
            seen.append(vals.copy())

        device.launch(kern, grid=1, block_threads=32, args=(fid,))
        expected = file_bytes[3 * PAGE + 100:
                              3 * PAGE + 100 + 128].view(np.uint32)
        assert np.array_equal(seen[0], expected)

    def test_concurrent_faults_on_same_page_one_transfer(self, file_bytes):
        """Many warps faulting on one page must cause one host transfer."""
        device, gfs = make_gpufs(file_bytes)
        fid = gfs.open("data")

        def kern(ctx, fid):
            yield from gfs.gmmap(ctx, fid, 0)

        device.launch(kern, grid=4, block_threads=256, args=(fid,))
        assert gfs.stats.major_faults == 1
        assert gfs.batcher.stats.transfers == 1
        entry = gfs.cache.table.get(fid, 0)
        assert entry.refcount == 32  # one gmmap per warp

    def test_refcounts_balance_after_unmap(self, file_bytes):
        device, gfs = make_gpufs(file_bytes)
        fid = gfs.open("data")

        def kern(ctx, fid):
            for p in range(4):
                yield from gfs.gmmap(ctx, fid, p * PAGE)
                yield from gfs.gmunmap(ctx, fid, p * PAGE)

        device.launch(kern, grid=2, block_threads=256, args=(fid,))
        for entry in gfs.cache.table.entries():
            assert entry.refcount == 0

    def test_release_nonresident_page_raises(self, file_bytes):
        device, gfs = make_gpufs(file_bytes)
        fid = gfs.open("data")

        def kern(ctx, fid):
            yield from gfs.release_page(ctx, fid, 0)

        with pytest.raises(RuntimeError, match="non-resident"):
            device.launch(kern, grid=1, block_threads=32, args=(fid,))


class TestEvictionAndWriteback:
    def test_working_set_larger_than_cache(self, file_bytes):
        """All 64 pages through a 16-frame cache: evictions, correct data."""
        device, gfs = make_gpufs(file_bytes, num_frames=16)
        fid = gfs.open("data")
        ok = []

        def kern(ctx, fid):
            for p in range(ctx.warp_id, 64, 8):
                addr = yield from gfs.gmmap(ctx, fid, p * PAGE)
                vals = yield from ctx.load(addr + ctx.lane * 4, "u4")
                exp = file_bytes[p * PAGE:p * PAGE + 128].view(np.uint32)
                ok.append(np.array_equal(vals, exp))
                yield from gfs.gmunmap(ctx, fid, p * PAGE)

        device.launch(kern, grid=1, block_threads=256, args=(fid,))
        assert all(ok) and len(ok) == 64
        assert gfs.cache.evictions >= 48

    def test_dirty_pages_written_back_on_eviction(self, file_bytes):
        device, gfs = make_gpufs(file_bytes, num_frames=4)
        fid = gfs.open("data", O_RDWR)

        def kern(ctx, fid):
            addr = yield from gfs.gmmap(ctx, fid, 0, prot=PROT_READ | PROT_WRITE)
            yield from ctx.store(addr + ctx.lane * 4,
                                 np.full(32, 0xAB, np.uint32), "u4")
            yield from gfs.gmunmap(ctx, fid, 0)
            for p in range(1, 6):  # force page 0 out
                yield from gfs.gmmap(ctx, fid, p * PAGE)
                yield from gfs.gmunmap(ctx, fid, p * PAGE)

        device.launch(kern, grid=1, block_threads=32, args=(fid,))
        back = gfs.host_fs.ramfs.open("data").pread(0, 128).view(np.uint32)
        assert np.all(back == 0xAB)
        assert gfs.cache.writebacks >= 1

    def test_flush_writes_dirty_pages(self, file_bytes):
        device, gfs = make_gpufs(file_bytes)
        fid = gfs.open("data", O_RDWR)

        def kern(ctx, fid):
            addr = yield from gfs.gmmap(ctx, fid, PAGE, prot=PROT_READ | PROT_WRITE)
            yield from ctx.store(addr + ctx.lane * 4,
                                 np.full(32, 0xCD, np.uint32), "u4")
            yield from gfs.gmunmap(ctx, fid, PAGE)
            yield from gfs.flush(ctx)

        device.launch(kern, grid=1, block_threads=32, args=(fid,))
        back = gfs.host_fs.ramfs.open("data").pread(PAGE, 128).view(np.uint32)
        assert np.all(back == 0xCD)


class TestBatching:
    def test_batching_reduces_transactions_and_time(self, file_bytes):
        results = {}
        for batching in (True, False):
            device, gfs = make_gpufs(file_bytes, num_frames=64,
                                     batching=batching)
            fid = gfs.open("data")

            def kern(ctx, fid):
                for p in range(ctx.warp_id, 64, 16):
                    yield from gfs.gmmap(ctx, fid, p * PAGE)
                    yield from gfs.gmunmap(ctx, fid, p * PAGE)

            res = device.launch(kern, grid=2, block_threads=256, args=(fid,))
            results[batching] = (res.cycles, gfs.batcher.stats.batches)
        cycles_on, batches_on = results[True]
        cycles_off, batches_off = results[False]
        assert batches_on < batches_off
        assert cycles_on < cycles_off * 0.7

    def test_batch_size_capped(self, file_bytes):
        device, gfs = make_gpufs(file_bytes, num_frames=64)
        gfs.batcher.MAX_BATCH = 4
        fid = gfs.open("data")

        def kern(ctx, fid):
            p = ctx.warp_id
            yield from gfs.gmmap(ctx, fid, p * PAGE)

        device.launch(kern, grid=2, block_threads=256, args=(fid,))
        assert gfs.batcher.stats.batches >= 4


class TestFaultFilter:
    def test_xor_filter_roundtrip(self, file_bytes):
        """A CryptFS-style page filter decrypts on page-in and encrypts
        on page-out, transparently to the accessing kernel."""

        class XorFilter(FaultFilter):
            instructions_per_byte = 0.5

            def page_in(self, data, fpn):
                return data ^ np.uint8(0x5A)

            def page_out(self, data, fpn):
                return data ^ np.uint8(0x5A)

        encrypted = file_bytes ^ np.uint8(0x5A)
        device, gfs = make_gpufs(encrypted, fault_filter=XorFilter())
        fid = gfs.open("data", O_RDWR)
        seen = []

        def kern(ctx, fid):
            addr = yield from gfs.gmmap(ctx, fid, 0, prot=PROT_READ | PROT_WRITE)
            vals = yield from ctx.load(addr + ctx.lane * 4, "u4")
            seen.append(vals.copy())
            yield from ctx.store(addr + ctx.lane * 4, vals + 1, "u4")
            yield from gfs.gmunmap(ctx, fid, 0)
            yield from gfs.flush(ctx)

        device.launch(kern, grid=1, block_threads=32, args=(fid,))
        # The kernel saw plaintext.
        assert np.array_equal(seen[0], file_bytes[:128].view(np.uint32))
        # The host file still holds ciphertext (of the updated values).
        stored = gfs.host_fs.ramfs.open("data").pread(0, 128)
        decrypted = (stored ^ np.uint8(0x5A)).view(np.uint32)
        assert np.array_equal(decrypted, seen[0] + 1)
