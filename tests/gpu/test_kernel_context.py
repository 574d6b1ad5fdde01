"""Unit tests for WarpContext: identity, charging, scalar helpers."""

import sys

import numpy as np
import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.gpu import Device
from repro.gpu import warp_primitives as wp
from repro.gpu.memory import AffineLanes, MemoryError_


@pytest.fixture
def dev():
    return Device(memory_bytes=8 * 1024 * 1024)


class TestIdentity:
    def test_global_tid_layout(self, dev):
        tids = []

        def kern(ctx):
            tids.append((ctx.block_id, ctx.warp_in_block,
                         ctx.global_tid.copy()))
            yield from ctx.flush()

        dev.launch(kern, grid=2, block_threads=64)
        by_key = {(b, w): t for b, w, t in tids}
        assert by_key[(0, 0)][0] == 0
        assert by_key[(0, 1)][0] == 32
        assert by_key[(1, 0)][0] == 64
        assert by_key[(1, 1)][31] == 127

    def test_warp_id_unique(self, dev):
        ids = []

        def kern(ctx):
            ids.append(ctx.warp_id)
            yield from ctx.flush()

        dev.launch(kern, grid=3, block_threads=96)
        assert sorted(ids) == list(range(9))

    def test_lane_vector(self, dev):
        def kern(ctx):
            assert np.array_equal(ctx.lane, np.arange(32))
            yield from ctx.flush()

        dev.launch(kern, grid=1, block_threads=32)


class TestCharging:
    def test_charges_fold_into_next_op(self, dev):
        """Charged instructions appear in the launch's totals."""
        def kern(ctx):
            ctx.charge(17)
            yield from ctx.compute(3)

        res = dev.launch(kern, grid=1, block_threads=32)
        assert res.stats.instructions == pytest.approx(20)

    def test_flush_emits_pending(self, dev):
        def kern(ctx):
            ctx.charge(9)
            yield from ctx.flush()

        res = dev.launch(kern, grid=1, block_threads=32)
        assert res.stats.instructions == pytest.approx(9)

    def test_flush_without_pending_is_free(self, dev):
        def kern(ctx):
            yield from ctx.flush()

        res = dev.launch(kern, grid=1, block_threads=32)
        assert res.stats.instructions == 0
        assert res.cycles == 0

    def test_intrinsics_charge_one_instruction(self, dev):
        """Each shuffle and vote charges one instruction, and returns
        what its ``warp_primitives`` form does; the bit scans ``ffs``
        and ``popc`` charge nothing."""
        got = []

        def kern(ctx):
            ctx.ballot(ctx.lane < 16)
            ctx.all(ctx.lane >= 0)
            ctx.any(ctx.lane == 0)
            ctx.shfl(ctx.lane, 0)
            got.append(ctx.shfl_down(ctx.lane * 3, 5))
            got.append([ctx.ffs(0b10100), ctx.ffs(0), ctx.popc(0b10110)])
            yield from ctx.flush()

        res = dev.launch(kern, grid=1, block_threads=32)
        assert res.stats.instructions == pytest.approx(5)
        assert np.array_equal(got[0], wp.shfl_down(np.arange(32) * 3, 5))
        assert (got[0][0], got[0][31]) == (15, 93)    # clamped at lane 31
        assert got[1] == [3, 0, 3]


class TestScalarAccess:
    def test_scalar_roundtrip(self, dev):
        addr = dev.alloc(64)
        got = []

        def kern(ctx):
            yield from ctx.store_scalar(addr, 0xDEADBEEF, "u8")
            got.append((yield from ctx.load_scalar(addr, "u8")))

        dev.launch(kern, grid=1, block_threads=32)
        assert got[0] == 0xDEADBEEF

    @pytest.mark.parametrize("op", ["load", "store"])
    def test_scalar_straddling_a_segment_is_two_transactions(self, dev,
                                                            op):
        addr = dev.alloc(256, align=128) + 124
        seen = []
        count = dev.memory.transactions_for
        span = dev.memory.span_transactions

        def spy(addrs, width, mask=None):
            seen.append((type(addrs), mask))
            return count(addrs, width, mask)

        def span_spy(base, nbytes):
            # The accessor may count its one lane with the affine
            # branch's closed form directly: recorded as that lane.
            if sys._getframe(1).f_code.co_name in ("load_scalar",
                                                   "store_scalar"):
                seen.append((AffineLanes, None))
            return span(base, nbytes)

        dev.memory.transactions_for = spy
        dev.memory.span_transactions = span_spy

        def kern(ctx):
            if op == "load":
                yield from ctx.load_scalar(addr, "u8")
            else:
                yield from ctx.store_scalar(addr, 1, "u8")

        res = dev.launch(kern, grid=1, block_threads=32)
        assert res.stats.dram_transactions == 2
        assert seen == [(AffineLanes, None)]

    # The per-lane vector check's exact message: a one-lane affine
    # access must raise it unchanged.
    @pytest.mark.parametrize("op", ["load", "store"])
    @pytest.mark.parametrize("where, message", [
        pytest.param("end", "device vector access out of bounds: "
                            "[8388604, 8388612) size 8388608", id="end"),
        pytest.param("negative", "device vector access out of bounds: "
                                 "[-8, 0) size 8388608", id="negative"),
    ])
    def test_scalar_out_of_bounds_raises(self, dev, op, where, message):
        addr = dev.memory.size - 4 if where == "end" else -8

        def kern(ctx):
            if op == "load":
                yield from ctx.load_scalar(addr, "u8")
            else:
                yield from ctx.store_scalar(addr, 7, "u8")

        with pytest.raises(MemoryError_) as err:
            dev.launch(kern, grid=1, block_threads=32)
        assert str(err.value) == message

    def test_sanitized_store_scalar_is_a_one_lane_store(self, dev):
        dev.sanitizer = sanitizer = Sanitizer()
        addr = dev.alloc(64) + 8

        def kern(ctx):
            yield from ctx.store_scalar(addr, 5, "u4")

        dev.launch(kern, grid=1, block_threads=32)
        assert sanitizer.stats.stores_checked == 1
        (write,) = sanitizer._writes
        assert write.addrs.tolist() == [addr]
        assert (write.width, write.lo, write.hi) == (4, addr, addr + 4)

    def test_clock_monotonic_and_flushes(self, dev):
        times = []

        def kern(ctx):
            t0 = yield from ctx.clock()
            ctx.charge(100, chain=100)
            t1 = yield from ctx.clock()   # flushes the charge
            times.append((t0, t1))

        dev.launch(kern, grid=1, block_threads=32)
        t0, t1 = times[0]
        assert t1 - t0 >= 100 * dev.spec.dependent_issue_cycles * 0.9


class TestMaskedAccess:
    def test_partial_mask_load_store(self, dev):
        base = dev.alloc(256)
        dev.memory.write(base, np.arange(64, dtype=np.uint32))

        def kern(ctx):
            mask = ctx.lane < 8
            vals = yield from ctx.load(base + ctx.lane * 4, "u4",
                                       mask=mask)
            yield from ctx.store(base + (ctx.lane + 32) * 4, vals + 1,
                                 "u4", mask=mask)

        dev.launch(kern, grid=1, block_threads=32)
        out = dev.memory.read(base + 128, 32).view(np.uint32)
        assert np.array_equal(out, np.arange(8, dtype=np.uint32) + 1)
