"""Tests for the transfer batcher and staging path."""

import numpy as np
import pytest

from repro.gpu import Device
from repro.gpu.instructions import TimedLock
from repro.gpu.memory import MemoryError_
from repro.host import HostFileSystem, O_RDWR
from repro.host.ramfs import RamFS
from repro.paging.staging import TransferBatcher

PAGE = 4096


@pytest.fixture
def env():
    device = Device(memory_bytes=32 * 1024 * 1024)
    fs = RamFS()
    data = np.random.RandomState(5).randint(0, 256, 16 * PAGE,
                                            dtype=np.uint8)
    fs.create("f", data)
    handle = HostFileSystem(fs).open("f", O_RDWR)
    return device, handle, data


class TestFetch:
    def test_fetch_lands_exact_bytes(self, env):
        device, handle, data = env
        batcher = TransferBatcher(device, PAGE)
        dst = device.alloc(PAGE)

        def kern(ctx):
            yield from batcher.fetch(ctx, handle, 3 * PAGE, PAGE, dst)

        device.launch(kern, grid=1, block_threads=32)
        got = device.memory.read(dst, PAGE)
        assert np.array_equal(got, data[3 * PAGE:4 * PAGE])

    def test_short_read_zero_padded(self, env):
        device, handle, data = env
        batcher = TransferBatcher(device, PAGE)
        dst = device.alloc(PAGE)

        def kern(ctx):
            # Read the page straddling EOF.
            yield from batcher.fetch(ctx, handle, 15 * PAGE + 2048,
                                     PAGE, dst)

        device.launch(kern, grid=1, block_threads=32)
        got = device.memory.read(dst, PAGE)
        assert np.array_equal(got[:2048], data[15 * PAGE + 2048:])
        assert np.all(got[2048:] == 0)

    def test_oversized_fetch_rejected(self, env):
        device, handle, _ = env
        batcher = TransferBatcher(device, PAGE)
        with pytest.raises(ValueError):

            def kern(ctx):
                yield from batcher.fetch(ctx, handle, 0, 2 * PAGE, 0)

            device.launch(kern, grid=1, block_threads=32)

    def test_out_of_bounds_copy_raises_before_its_run(self, env):
        """A frame past the end of device memory fails the staging copy
        before any of its loads or stores is dispatched, and the slot
        comes back free."""
        device, handle, _ = env
        batcher = TransferBatcher(device, PAGE)
        dst = device.memory.size - PAGE // 2
        lock = TimedLock("fetch")
        caught = []

        def kern(ctx):
            yield from ctx.lock(lock)
            try:
                yield from batcher.fetch(ctx, handle, 0, PAGE, dst)
            except MemoryError_ as err:
                caught.append(err)
            yield from ctx.unlock(lock)

        res = device.launch(kern, grid=1, block_threads=32)
        assert len(caught) == 1
        assert res.stats.loads == res.stats.stores == 0
        assert res.stats.pcie_transactions == 1
        assert batcher._slot_busy == [False] * batcher.num_slots
        assert batcher.ring_utilization() == 0.0


class TestBatching:
    def _run_many(self, env, enabled):
        device, handle, _ = env
        batcher = TransferBatcher(device, PAGE, enabled=enabled)
        dst = device.alloc(16 * PAGE)

        def kern(ctx):
            p = ctx.warp_id
            yield from batcher.fetch(ctx, handle, p * PAGE, PAGE,
                                     dst + p * PAGE)

        res = device.launch(kern, grid=1, block_threads=16 * 32)
        return batcher, res

    def test_concurrent_fetches_batch(self, env):
        batcher, _ = self._run_many(env, enabled=True)
        assert batcher.stats.transfers == 16
        assert batcher.stats.batches < 16
        assert batcher.stats.mean_batch_size() > 1.5

    def test_disabled_batching_is_one_per_transfer(self, env):
        batcher, _ = self._run_many(env, enabled=False)
        assert batcher.stats.batches == 16

    def test_batching_is_faster(self, env):
        device, handle, data = env
        _, on = self._run_many(env, enabled=True)
        # Fresh environment for a fair comparison.
        device2 = Device(memory_bytes=32 * 1024 * 1024)
        fs = RamFS()
        fs.create("f", data)
        handle2 = HostFileSystem(fs).open("f")
        batcher2 = TransferBatcher(device2, PAGE, enabled=False)
        dst = device2.alloc(16 * PAGE)

        def kern(ctx):
            p = ctx.warp_id
            yield from batcher2.fetch(ctx, handle2, p * PAGE, PAGE,
                                      dst + p * PAGE)

        off = device2.launch(kern, grid=1, block_threads=16 * 32)
        assert on.cycles < off.cycles


class TestStagingRing:
    def _shrunk_ring(self, device, slots):
        """A batcher whose staging ring is smaller than the burst the
        tests throw at it (the constructor sizes the ring generously,
        so shrink it to force reuse pressure)."""
        batcher = TransferBatcher(device, PAGE)
        batcher.num_slots = slots
        batcher._slot_busy = [False] * slots
        batcher._next_slot = 0
        return batcher

    def test_more_fetches_than_slots_no_clobber(self, env):
        """Regression: concurrent fetches beyond the ring size must not
        overwrite a slot whose staging-to-frame copy is in flight."""
        device, handle, data = env
        batcher = self._shrunk_ring(device, 4)
        dst = device.alloc(16 * PAGE)

        def kern(ctx):
            p = ctx.warp_id
            yield from batcher.fetch(ctx, handle, p * PAGE, PAGE,
                                     dst + p * PAGE)

        # 16 warps fetch batched pages concurrently through 4 slots.
        device.launch(kern, grid=1, block_threads=16 * 32)
        got = device.memory.read(dst, 16 * PAGE)
        assert np.array_equal(got, data)
        # Every slot was released once its copy finished.
        assert not any(batcher._slot_busy)

    def test_saturated_ring_waits_instead_of_clobbering(self, env):
        device, handle, data = env
        batcher = self._shrunk_ring(device, 2)
        dst = device.alloc(16 * PAGE)

        def kern(ctx):
            p = ctx.warp_id
            yield from batcher.fetch(ctx, handle, p * PAGE, PAGE,
                                     dst + p * PAGE)

        device.launch(kern, grid=1, block_threads=16 * 32)
        assert batcher.stats.slot_waits > 0
        assert np.array_equal(device.memory.read(dst, 16 * PAGE), data)


class TestSpeculative:
    """BatcherStats invariants when daemon-side (fetch_async) traffic
    shares the batching window with demand fetches."""

    def test_mixed_demand_and_speculative_counters(self, env):
        device, handle, data = env
        batcher = TransferBatcher(device, PAGE)
        dst = device.alloc(16 * PAGE)
        done_at = []

        def kern(ctx):
            p = ctx.warp_id
            if p < 8:
                yield from batcher.fetch(ctx, handle, p * PAGE, PAGE,
                                         dst + p * PAGE)
            elif p == 8:
                # One warp plays readahead daemon: untimed speculative
                # fetches issued into the same aggregation windows.
                for q in range(8, 16):
                    done_at.append(batcher.fetch_async(
                        ctx.now, handle, q * PAGE, PAGE,
                        dst + q * PAGE))
                yield from ctx.sleep(1.0)

        res = device.launch(kern, grid=1, block_threads=9 * 32)
        assert batcher.stats.transfers == 16
        assert batcher.stats.speculative == 8
        assert batcher.stats.speculative <= batcher.stats.transfers
        assert batcher.stats.bytes_moved == 16 * PAGE
        # Speculative fetches coalesce rather than opening a batch each.
        assert batcher.stats.batches < 16
        assert batcher.stats.mean_batch_size() > 1.0
        # Completion times are in the future but within the launch.
        assert all(0 < d <= res.cycles + 1e6 for d in done_at)
        # The speculative bytes landed correctly too.
        got = device.memory.read(dst, 16 * PAGE)
        assert np.array_equal(got, data)

    def test_fetch_async_opens_window_demand_joins(self, env):
        device, handle, _ = env
        batcher = TransferBatcher(device, PAGE)
        dst = device.alloc(2 * PAGE)
        batcher.fetch_async(0.0, handle, 0, PAGE, dst)
        assert batcher.stats.batches == 1

        def kern(ctx):
            yield from batcher.fetch(ctx, handle, PAGE, PAGE, dst + PAGE)

        device.launch(kern, grid=1, block_threads=32)
        # The demand fetch rode the window the daemon opened.
        assert batcher.stats.batches == 1
        assert batcher.stats.transfers == 2

    def test_fetch_async_rejects_oversized(self, env):
        device, handle, _ = env
        batcher = TransferBatcher(device, PAGE)
        with pytest.raises(ValueError):
            batcher.fetch_async(0.0, handle, 0, 2 * PAGE, 0)


class TestWriteback:
    def test_writeback_reaches_file(self, env):
        device, handle, _ = env
        batcher = TransferBatcher(device, PAGE)
        src = device.alloc(PAGE)
        device.memory.write(src, np.full(PAGE, 0x7F, np.uint8))

        def kern(ctx):
            yield from batcher.writeback(ctx, handle, 2 * PAGE, src, PAGE)

        device.launch(kern, grid=1, block_threads=32)
        assert np.all(handle.pread(2 * PAGE, PAGE) == 0x7F)

    def test_writeback_data_override(self, env):
        device, handle, _ = env
        batcher = TransferBatcher(device, PAGE)
        src = device.alloc(PAGE)

        def kern(ctx):
            yield from batcher.writeback(
                ctx, handle, 0, src, PAGE,
                data=np.full(PAGE, 0x11, np.uint8))

        device.launch(kern, grid=1, block_threads=32)
        assert np.all(handle.pread(0, PAGE) == 0x11)
