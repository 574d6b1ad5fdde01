"""Tests for the APtr state machine, arithmetic, dereference, and the
reference-counting invariants of §III-B."""

import contextlib
import copy
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AArray, APConfig, APtrState, PtrFormat
from repro.core.apointer import APtr, BoundsError, ProtectionError
from repro.gpu import Device, K80_SPEC
from repro.gpu import warp_primitives as wp
from repro.gpu.kernel import BlockContext, WarpContext
from repro.gpu.memory import AffineLanes
from repro.host import HostFileSystem
from repro.host.filesys import O_RDWR
from repro.host.ramfs import RamFS
from repro.paging import GPUfs, GPUfsConfig
from tests.conftest import budget
from tests.core.conftest import PAGE, launch, make_avm
from tests.gpu.test_engine_golden import CASES as GOLDEN_CASES
from tests.gpu.test_engine_golden import GOLDEN as GOLDEN_ENGINE
from tests.gpu.test_engine_golden import capture as capture_golden_case


class TestStateMachine:
    def test_fresh_pointer_is_unlinked(self, device, gpufs, file_bytes):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        states = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            states.append(ptr.state)
            yield from ptr.read(ctx, "u4")
            states.append(ptr.state)

        launch(device, kern)
        assert states == [APtrState.UNLINKED, APtrState.LINKED]

    def test_first_access_faults_second_does_not(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.read(ctx, "u4")
            yield from ptr.read(ctx, "u4")
            yield from ptr.read(ctx, "u4")

        launch(device, kern)
        assert avm.stats.fault_groups == 1
        assert avm.stats.derefs == 3

    def test_crossing_page_boundary_unlinks(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        states = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.read(ctx, "u4")
            yield from ptr.add(ctx, PAGE)          # off the linked page
            states.append(ptr.state)
            yield from ptr.add(ctx, -PAGE)         # back, still unlinked
            states.append(ptr.state)
            yield from ptr.destroy(ctx)

        launch(device, kern)
        assert states == [APtrState.UNLINKED, APtrState.UNLINKED]
        assert avm.stats.unlinks == 32

    def test_moving_within_page_stays_linked(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        states = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.seek(ctx, ctx.lane * 4)
            yield from ptr.read(ctx, "u4")
            yield from ptr.add(ctx, 128)
            states.append(ptr.state)
            yield from ptr.destroy(ctx)

        launch(device, kern)
        assert states == [APtrState.LINKED]
        assert avm.stats.fault_groups == 1

    def test_clone_is_unlinked_copy(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        out = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.add(ctx, 64)
            yield from ptr.read(ctx, "u4")
            twin = ptr.clone(ctx)
            out.append((twin.state, twin.pos.copy(), ptr.state))
            yield from ptr.destroy(ctx)

        launch(device, kern)
        twin_state, twin_pos, orig_state = out[0]
        assert twin_state == APtrState.UNLINKED
        assert orig_state == APtrState.LINKED
        assert np.all(twin_pos == 64)

    def test_mixed_state_when_lanes_diverge(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        states = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.seek(ctx, ctx.lane * 4)
            yield from ptr.read(ctx, "u4")
            # Half the lanes step onto the next page (and unlink).
            delta = np.where(ctx.lane < 16, PAGE, 0)
            yield from ptr.add(ctx, delta)
            states.append(ptr.state)
            yield from ptr.destroy(ctx)

        launch(device, kern)
        assert states == [APtrState.MIXED]


class TestFunctionalAccess:
    def test_read_returns_file_contents(self, device, gpufs, file_bytes):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        seen = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.seek(ctx, ctx.lane * 4)
            seen.append((yield from ptr.read(ctx, "u4")))
            yield from ptr.destroy(ctx)

        launch(device, kern)
        assert np.array_equal(seen[0], file_bytes[:128].view(np.uint32))

    def test_write_reaches_backing_file_via_flush(self, device, gpufs):
        from repro.host.filesys import O_RDWR
        avm = make_avm(gpufs)
        fid = gpufs.open("data", O_RDWR)

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid, write=True)
            yield from ptr.seek(ctx, ctx.lane * 4)
            yield from ptr.write(ctx, np.full(32, 99, np.uint32), "u4")
            yield from ptr.destroy(ctx)
            yield from gpufs.flush(ctx)

        launch(device, kern)
        back = gpufs.host_fs.ramfs.open("data").pread(0, 128).view(np.uint32)
        assert np.all(back == 99)

    def test_unaligned_mapping_reads_across_pages(self, device, gpufs,
                                                  file_bytes):
        """The §VI-E usability point: records not aligned to page
        boundaries are read through plain pointer arithmetic."""
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        seen = []
        record = 3072  # 3 KB records straddle 4 KB pages

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 16 * PAGE, fid)
            for r in range(4):
                yield from ptr.seek(ctx, r * record + ctx.lane * 4)
                seen.append((r, (yield from ptr.read(ctx, "u4"))))
            yield from ptr.destroy(ctx)

        launch(device, kern)
        for r, vals in seen:
            exp = file_bytes[r * record:r * record + 128].view(np.uint32)
            assert np.array_equal(vals, exp)

    def test_lanes_in_different_pages_read_correctly(self, device,
                                                     file_bytes):
        # 32 simultaneously pinned pages need a cache larger than the
        # default 16-frame fixture.
        from repro.host import HostFileSystem
        from repro.host.ramfs import RamFS
        from repro.paging import GPUfs, GPUfsConfig
        fs = RamFS()
        fs.create("data", file_bytes)
        gpufs = GPUfs(device, HostFileSystem(fs),
                      GPUfsConfig(page_size=PAGE, num_frames=64))
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        seen = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 32 * PAGE, fid)
            yield from ptr.seek(ctx, ctx.lane * PAGE)  # 32 distinct pages
            seen.append((yield from ptr.read(ctx, "u4")))
            yield from ptr.destroy(ctx)

        launch(device, kern)
        exp = np.array([file_bytes[l * PAGE:l * PAGE + 4].view(np.uint32)[0]
                        for l in range(32)])
        assert np.array_equal(seen[0], exp)


class TestGvmunmap:
    """``AVM.gvmunmap``, the unmap half of the paper's gvmmap API."""

    def test_unmap_unlinks_and_drops_every_page_reference(self, device,
                                                          gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        seen = {}

        def refcounts():
            return {e.fpn: e.refcount for e in gpufs.cache.table.entries()
                    if e.file_id == fid}

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.seek(ctx, (ctx.lane % 4) * PAGE)
            yield from ptr.read(ctx, "u4")
            seen["mapped"] = ptr.state, refcounts()
            yield from avm.gvmunmap(ctx, ptr)
            seen["unmapped"] = ptr.state, refcounts(), ptr.valid.any()

        launch(device, kern)
        state, refs = seen["mapped"]
        assert state is APtrState.LINKED
        assert refs == {0: 8, 1: 8, 2: 8, 3: 8}    # 8 lanes per page
        state, refs, any_valid = seen["unmapped"]
        assert state is APtrState.UNLINKED and not any_valid
        assert refs == {0: 0, 1: 0, 2: 0, 3: 0}
        assert avm.stats.unlinks == 32


class TestAggregation:
    def test_one_fault_group_per_distinct_page(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            # Lanes split across 4 pages: 4 sequential fault groups.
            yield from ptr.seek(ctx, (ctx.lane % 4) * PAGE)
            yield from ptr.read(ctx, "u4")
            yield from ptr.destroy(ctx)

        launch(device, kern)
        assert avm.stats.fault_groups == 4
        assert avm.stats.translation_faults == 32

    def test_refcount_aggregated_per_warp(self, device, gpufs):
        """§III-D: the count is incremented by the number of lanes that
        access the page, not once per lane."""
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        counts = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            yield from ptr.seek(ctx, ctx.lane * 4)
            yield from ptr.read(ctx, "u4")
            entry = gpufs.cache.table.get(fid, 0)
            counts.append(entry.refcount)
            yield from ptr.destroy(ctx)

        launch(device, kern)
        assert counts[0] == 32
        assert gpufs.cache.table.get(fid, 0).refcount == 0

    def test_active_page_survives_cache_pressure(self, device, gpufs,
                                                 file_bytes):
        """A linked apointer's page is never evicted even when other
        accesses sweep the whole cache (16 frames, 32-page file)."""
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        ok = []

        def kern(ctx):
            held = avm.gvmmap(ctx, 32 * PAGE, fid)
            yield from held.seek(ctx, ctx.lane * 4)
            first = yield from held.read(ctx, "u4")
            sweep = avm.gvmmap(ctx, 32 * PAGE, fid)
            for p in range(1, 32):
                yield from sweep.seek(ctx, p * PAGE)
                yield from sweep.read(ctx, "u4")
            again = yield from held.read(ctx, "u4")  # still linked: no fault
            ok.append(np.array_equal(first, again))
            yield from held.destroy(ctx)
            yield from sweep.destroy(ctx)

        launch(device, kern)
        assert ok[0]
        assert gpufs.cache.evictions > 0  # pressure was real


class TestProtectionAndBounds:
    def test_write_through_readonly_raises(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid, write=False)
            yield from ptr.write(ctx, np.zeros(32, np.uint32), "u4")

        with pytest.raises(ProtectionError):
            launch(device, kern)

    def test_out_of_bounds_read_raises(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx):
            ptr = avm.gvmmap(ctx, PAGE, fid)
            yield from ptr.add(ctx, PAGE)
            yield from ptr.read(ctx, "u4")

        with pytest.raises(BoundsError):
            launch(device, kern)

    def test_negative_position_raises(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx):
            ptr = avm.gvmmap(ctx, PAGE, fid)
            yield from ptr.add(ctx, -4)
            yield from ptr.read(ctx, "u4")

        with pytest.raises(BoundsError):
            launch(device, kern)

    def test_straddling_access_rejected(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 2 * PAGE, fid)
            yield from ptr.add(ctx, PAGE - 2)
            yield from ptr.read(ctx, "u4")

        with pytest.raises(BoundsError):
            launch(device, kern)


    def test_wide_read_straddling_page_rejected(self, device, gpufs):
        """A 12-byte element at in-page offset 4092 (= 341 * 12) is
        12-aligned, yet its last 8 bytes lie in the next page, whose
        frame is unrelated to this one's."""
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 2 * PAGE, fid)
            yield from ptr.seek(ctx, PAGE - 4)
            yield from ptr.read_wide(ctx, 3, "f4")
            yield from ptr.destroy(ctx)

        with pytest.raises(BoundsError, match="straddles"):
            launch(device, kern)

    def test_wide_read_inside_page_returns_file_bytes(self, device, gpufs,
                                                      file_bytes):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")
        seen = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 2 * PAGE, fid)
            yield from ptr.seek(ctx, PAGE - 16)     # 340 * 12: fits
            seen.append((yield from ptr.read_wide(ctx, 3, "f4")))
            yield from ptr.destroy(ctx)

        launch(device, kern)
        row = file_bytes[PAGE - 16:PAGE - 4]
        assert np.all(seen[0].view(np.uint8) == row)

    def test_aarray_block_straddling_page_rejected(self, device, gpufs):
        avm = make_avm(gpufs)
        fid = gpufs.open("data")

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 2 * PAGE, fid)
            # Lanes 0-30 stay 12-aligned inside page 0; lane 31's three
            # floats start at byte 4092 = 930 * 4 + 31 * 12.
            yield from AArray(ptr, "f4").get_block(ctx, 930, 3)
            yield from ptr.destroy(ctx)

        with pytest.raises(BoundsError, match="straddles"):
            launch(device, kern)


class TestMaskedLaneBounds:
    """Only active lanes are bounds-checked: a masked-off lane may sit
    anywhere, while the same lane, active, raises."""

    BAD_POSITIONS = {"out_of_range": 8 * PAGE, "negative": -4,
                     "misaligned": 2}

    def _run(self, device, gpufs, op, bad, active):
        avm = make_avm(gpufs)
        fid = gpufs.open("data", O_RDWR)
        seen = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid, write=True)
            pos = ctx.lane * 4
            pos[5] = self.BAD_POSITIONS[bad]
            yield from ptr.seek(ctx, pos)
            mask = np.ones(32, dtype=bool)
            mask[5] = active
            if op == "read":
                seen.append((yield from ptr.read(ctx, "u4", mask=mask)))
            else:
                yield from ptr.write(ctx, np.full(32, 7, np.uint32), "u4",
                                     mask=mask)
            yield from ptr.destroy(ctx)
            yield from gpufs.flush(ctx)

        launch(device, kern)
        return seen

    @pytest.mark.parametrize("bad", sorted(BAD_POSITIONS))
    @pytest.mark.parametrize("op", ["read", "write"])
    def test_masked_off_lane_is_not_checked(self, device, gpufs,
                                            file_bytes, op, bad):
        seen = self._run(device, gpufs, op, bad, active=False)
        lanes = np.arange(32) != 5
        if op == "read":
            expect = file_bytes[:128].view(np.uint32)
            assert np.array_equal(seen[0][lanes], expect[lanes])
            assert seen[0][5] == 0
        else:
            back = gpufs.host_fs.ramfs.open("data").pread(0, 128)
            back = back.view(np.uint32)
            assert np.all(back[lanes] == 7)
            assert back[5] == file_bytes[20:24].view(np.uint32)[0]

    @pytest.mark.parametrize("bad", sorted(BAD_POSITIONS))
    @pytest.mark.parametrize("op", ["read", "write"])
    def test_same_lane_active_raises(self, device, gpufs, op, bad):
        with pytest.raises(BoundsError):
            self._run(device, gpufs, op, bad, active=True)


# ----------------------------------------------------------------------
# The warp summary against the lane arrays it summarises
# ----------------------------------------------------------------------
MAP_PAGES = 4
MAP_SIZE = MAP_PAGES * PAGE
#: A device mapping with pages that 16-byte accesses do not tile.
ODD_PAGE = 1000
SCALAR_DELTAS = [0, 1, 4, -4, 12, 128, -128, PAGE - 4, PAGE, -PAGE]
STRIDES = [0, 1, 4, 8, 12, 16, 128, PAGE]
# 992 is 16-aligned and 8 bytes short of the end of an ODD_PAGE page.
STARTS = [-8, 0, 2, 4, 12, 992, PAGE - 64, PAGE - 4, 2 * PAGE + 16,
          MAP_SIZE - 128, MAP_SIZE - 4]

masks = st.one_of(st.none(), st.integers(0, (1 << 32) - 1))
ops = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(SCALAR_DELTAS)),
    st.tuples(st.just("add_lanes"), st.sampled_from(STRIDES),
              st.sampled_from(SCALAR_DELTAS)),
    st.tuples(st.just("seek"), st.sampled_from(STARTS),
              st.sampled_from(STRIDES)),
    st.tuples(st.just("read"), st.sampled_from(["u1", "u4", "f8"]), masks),
    st.tuples(st.just("read_wide"), st.sampled_from([2, 3, 4]), masks),
    st.tuples(st.just("write"), st.sampled_from(["u1", "u4", "f8"]), masks,
              st.integers(1, 255)),
    st.tuples(st.just("clone")),
    st.tuples(st.just("destroy")),
)


def lane_summary(ptr):
    """The summary's predicates, recomputed from the lane arrays."""
    valid = ptr.valid
    all_linked = bool(valid.all())
    shared = (all_linked and np.unique(ptr.linked_xpage).size == 1
              and np.unique(ptr.frame_addr).size == 1)
    steps = np.diff(ptr.pos)
    return {
        "stride": int(steps[0]) if (steps == steps[0]).all() else None,
        "any_linked": bool(valid.any()),
        "all_linked": all_linked,
        "all_write": all_linked and bool(ptr.linked_write.all()),
        "page": int(ptr.linked_xpage[0]) if shared else None,
        "frame": int(ptr.frame_addr[0]) if shared else None,
        "lo": int(ptr.pos.min()),
        "hi": int(ptr.pos.max()),
    }


def check_summary(ptr):
    expect = lane_summary(ptr)
    assert {key: getattr(ptr, "_" + key) for key in expect} == expect
    # A linked lane always points into the page it is linked to.
    valid = ptr.valid
    assert np.array_equal(ptr.linked_xpage[valid], ptr.xpage_vec()[valid])
    offsets = ptr.base_offset + ptr.pos
    align = ptr._align
    if align == 0:
        assert not offsets.any()
    else:
        assert align & (align - 1) == 0
        assert not (offsets % align).any()


def legal(ptr, width, active):
    """Reference bounds rule over the active lanes only."""
    pos = ptr.pos[active]
    in_page = (ptr.base_offset + pos) % ptr.page_size
    return bool(np.all((pos >= 0) & (pos + width <= ptr.size)
                       & (in_page % width == 0)
                       & (in_page + width <= ptr.page_size)))


real_deref = APtr._deref


def checked_deref(self, ctx, width, write, mask):
    addrs = yield from real_deref(self, ctx, width, write, mask)
    lanes = np.asarray(addrs)
    assert lanes.dtype == np.int64
    assert np.array_equal(lanes, self.frame_addr + self.in_page_vec())
    # Exactly the unmasked, one-page, element-apart dereferences are
    # handed to memory as affine lanes.
    affine = (mask is None and self._page is not None
              and self._stride == width)
    assert isinstance(addrs, AffineLanes) == affine
    return addrs


class TestSummaryAgainstLaneArrays:
    """After every operation the warp summary equals the predicates
    recomputed from the lane arrays, every dereference returns
    ``frame_addr + in_page_vec()`` (as a vector or as affine lanes),
    bounds errors match the per-lane rule, and reads return the bytes
    last written there."""

    @settings(max_examples=budget(40), deadline=None)
    @given(backend=st.sampled_from(["device", "device-odd", "gpufs",
                                    "gpufs-tlb"]),
           program=st.lists(ops, min_size=1, max_size=14))
    # A scalar add that moves only the top lanes off the shared page.
    @example(backend="device", program=[
        ("seek", 0, 4), ("read", "u4", None), ("add", PAGE - 4),
        ("read", "u4", None)])
    # Every lane 16-aligned, yet the access straddles a 1000-byte page.
    @example(backend="device-odd", program=[
        ("seek", 992, 0), ("read_wide", 4, None)])
    # Affine lanes: written, read back, then read wide after a per-lane
    # seek to a 16-byte stride and a scalar add that keeps it.
    @example(backend="gpufs", program=[
        ("seek", 0, 4), ("write", "u4", None, 9), ("read", "u4", None),
        ("seek", 16, 16), ("add", 128), ("read_wide", 4, None)])
    # The same shape under a mask stays an address vector.
    @example(backend="device", program=[
        ("seek", 0, 4), ("read", "u4", 0xFFFF0000),
        ("write", "u4", 0x0000FFFF, 3)])
    # One fault group links all 32 lanes (the O(1) link update), through
    # the TLB, then again after a per-lane seek within the page.
    @example(backend="gpufs-tlb", program=[
        ("read", "u4", None), ("seek", 64, 4), ("write", "u4", None, 5)])
    # A scalar add moves every lane off its page: the unlink drops the
    # whole warp (the O(1) "nothing linked" update); a new fault links
    # it again and destroy drops it again.
    @example(backend="gpufs", program=[
        ("seek", 0, 4), ("read", "u4", None), ("add", PAGE),
        ("read", "u4", None), ("destroy",)])
    # A per-lane add widens the lanes' range inside the page; the scalar
    # add after it crosses a page with the upper half of the lanes only,
    # which the O(1) range test sees only if the per-lane add refreshed
    # the position part.
    @example(backend="device", program=[
        ("seek", 0, 4), ("read", "u4", None), ("add_lanes", 4, 0),
        ("add", PAGE - 128), ("read", "u4", None)])
    def test_summary_matches_lanes(self, backend, program):
        rng = np.random.RandomState(5)
        image = rng.randint(0, 256, (MAP_PAGES + 1) * PAGE, dtype=np.uint8)
        device = Device(memory_bytes=16 * 1024 * 1024)
        use_tlb = backend == "gpufs-tlb"
        if backend.startswith("device"):
            avm = make_avm()
            base = device.alloc(MAP_SIZE)
            device.memory.write(base, image[:MAP_SIZE])
            shadow = image[:MAP_SIZE].copy()
            page_size = ODD_PAGE if backend == "device-odd" else PAGE

            def mapping(ctx):
                return avm.gvmmap_device(ctx, base, MAP_SIZE,
                                         page_size=page_size)
        else:
            fs = RamFS()
            fs.create("data", image)
            gpufs = GPUfs(device, HostFileSystem(fs),
                          GPUfsConfig(page_size=PAGE, num_frames=16))
            avm = make_avm(gpufs, use_tlb=use_tlb, tlb_entries=8)
            fid = gpufs.open("data", O_RDWR)
            shadow = image[PAGE:].copy()       # mapped one page in

            def mapping(ctx):
                return avm.gvmmap(ctx, MAP_SIZE, fid, foffset=PAGE,
                                  write=True)

        def kern(ctx):
            ptr = mapping(ctx)
            check_summary(ptr)
            for op in program:
                kind = op[0]
                if kind == "add":
                    yield from ptr.add(ctx, op[1])
                elif kind == "add_lanes":
                    yield from ptr.add(ctx, ctx.lane * op[1] + op[2])
                elif kind == "seek":
                    yield from ptr.seek(ctx, op[1] + ctx.lane * op[2])
                elif kind == "clone":
                    twin = ptr.clone(ctx)
                    yield from ptr.destroy(ctx)
                    ptr = twin
                elif kind == "destroy":
                    yield from ptr.destroy(ctx)
                else:
                    yield from access(ctx, ptr, op)
                check_summary(ptr)
            yield from ptr.destroy(ctx)
            if use_tlb:
                yield from avm.drain_tlb(ctx, ptr.backend)

        def access(ctx, ptr, op):
            mask = None
            if op[2] is not None:
                mask = ((op[2] >> ctx.lane) & 1).astype(bool)
            active = ctx.active if mask is None else ctx.active & mask
            if op[0] == "read_wide":
                elems, dtype = op[1], "f4"
            else:
                elems, dtype = 1, op[1]
            width = np.dtype(dtype).itemsize * elems
            ok = legal(ptr, width, active)
            pos = ptr.pos.copy()
            try:
                if op[0] == "write":
                    values = np.full(32, op[3], dtype)
                    yield from ptr.write(ctx, values, dtype, mask=mask)
                elif op[0] == "read":
                    got = yield from ptr.read(ctx, dtype, mask=mask)
                else:
                    got = yield from ptr.read_wide(ctx, elems, dtype,
                                                   mask=mask)
            except BoundsError:
                assert not ok
                return
            assert ok
            rows = pos[:, None] + np.arange(width)
            if op[0] == "write":
                assert ptr.linked_write[active].all()
                shadow[rows[active]] = values[:1].view(np.uint8)
            else:
                got = got.view(np.uint8).reshape(32, width)
                assert np.array_equal(got[active], shadow[rows[active]])

        with mock.patch.object(APtr, "_deref", checked_deref):
            launch(device, kern, scratchpad_bytes=avm.config.tlb_bytes()
                   if use_tlb else 0)
        if backend.startswith("gpufs"):
            assert all(e.refcount == 0
                       for e in gpufs.cache.table.entries())


#: The summary fields a full ``_summarize()`` writes exactly; ``_align``
#: is a bound (a scalar ``add`` keeps a power of two dividing it).
EXACT_SUMMARY = ("_any_linked", "_all_linked", "_all_write", "_page",
                 "_frame", "_lo", "_hi", "_stride")
#: Golden engine cases that create apointers.
REPLAYED = [name for name in GOLDEN_CASES
            if name.startswith("apointer/")
            or name in ("syscall/graphwalk", "table2/quick")]


def check_kept_summary(ptr):
    """The summary ``ptr`` kept current equals what a full
    ``_summarize()`` writes from its lane arrays (on a copy, so the
    replayed run is not disturbed)."""
    full = copy.copy(ptr)
    full._summarize()
    assert ({name: getattr(ptr, name) for name in EXACT_SUMMARY}
            == {name: getattr(full, name) for name in EXACT_SUMMARY})
    align = ptr._align
    if align == 0:
        assert full._align == 0
    else:
        assert align & (align - 1) == 0 and full._align % align == 0


class TestSummaryKeptCurrent:
    """Replays the golden engine cases that use apointers and, after
    every fault, unlink, ``add`` and ``seek``, holds the summary each
    operation kept current to a full recompute; the cases' cycles,
    stats and memory must still equal their golden records."""

    METHODS = ("_page_fault", "_unlink", "add", "seek")

    @pytest.mark.parametrize("name", REPLAYED)
    def test_summary_equals_full_recompute(self, name):
        golden = json.loads(GOLDEN_ENGINE.read_text())
        seen = dict.fromkeys(self.METHODS, 0)

        def replayed(method):
            real = getattr(APtr, method)

            def run(self, *args, **kwargs):
                result = yield from real(self, *args, **kwargs)
                check_kept_summary(self)
                seen[method] += 1
                return result
            return run

        with contextlib.ExitStack() as stack:
            for method in self.METHODS:
                stack.enter_context(mock.patch.object(
                    APtr, method, replayed(method)))
            assert capture_golden_case(name) == golden[name]
        assert all(seen.values()), seen


class TestEncodedWord:
    @pytest.mark.parametrize("fmt", [PtrFormat.LONG, PtrFormat.SHORT])
    def test_word_tracks_state(self, device, gpufs, fmt):
        from repro.core import translation as tr
        avm = make_avm(gpufs, fmt=fmt)
        fid = gpufs.open("data")
        words = []

        def kern(ctx):
            ptr = avm.gvmmap(ctx, 8 * PAGE, fid)
            words.append(("unlinked", ptr.encoded_word().copy()))
            yield from ptr.read(ctx, "u4")
            words.append(("linked", ptr.encoded_word().copy()))
            yield from ptr.destroy(ctx)

        launch(device, kern)
        for label, word in words:
            valid = (word & tr.VALID_BIT) != 0
            assert valid.all() == (label == "linked")

    def test_short_format_costs_more_instructions(self):
        from repro.core.calibration import cost_model_for
        long_cm = cost_model_for(APConfig(fmt=PtrFormat.LONG))
        short_cm = cost_model_for(APConfig(fmt=PtrFormat.SHORT))
        assert short_cm.fmt_extra_count > long_cm.fmt_extra_count


class TestDirectBackend:
    def test_device_mapping_roundtrip(self, device):
        avm = make_avm()
        base = device.alloc(8 * PAGE)
        device.memory.write(base, np.arange(PAGE * 2, dtype=np.uint32))
        seen = []

        def kern(ctx):
            ptr = avm.gvmmap_device(ctx, base, 8 * PAGE)
            yield from ptr.seek(ctx, ctx.lane * 4)
            seen.append((yield from ptr.read(ctx, "u4")))
            yield from ptr.write(ctx, np.full(32, 5, np.uint32), "u4")
            yield from ptr.destroy(ctx)

        launch(device, kern)
        assert np.array_equal(seen[0], np.arange(32, dtype=np.uint32))
        back = device.memory.read(base, 128).view(np.uint32)
        assert np.all(back == 5)

    def test_no_gpufs_required(self, device):
        avm = make_avm()
        with pytest.raises(RuntimeError, match="no GPUfs"):

            def kern(ctx):
                avm.gvmmap(ctx, PAGE, 3)
                yield from ctx.flush()

            launch(device, kern)


# ----------------------------------------------------------------------
# Listing 1: the one-pass groups against the ballot loop
# ----------------------------------------------------------------------
def ballot_page_fault(self, ctx, active, write):
    """``APtr._page_fault`` as a ballot/ffs/shfl/popc loop, one round
    per faulting page (the reference the one-pass groups must equal)."""
    cm = self.cost
    xpages = self.xpage_vec()
    faulting = (~self.valid) & active
    self.avm.stats.translation_faults += int(faulting.sum())
    t0 = ctx.now
    ctx.begin_request()
    try:
        ctx.push_activity("translation")
        try:
            while True:
                ballot = wp.ballot(~self.valid, active)
                ctx.charge(2)              # __ballot + __ffs
                leader = wp.ffs(ballot) - 1
                if leader < 0:
                    break
                self.avm.stats.fault_groups += 1
                leader_xpage = int(wp.shfl(xpages, leader)[0])
                same = ((~self.valid) & active
                        & (xpages == leader_xpage))
                refs = wp.popc(wp.ballot(same))
                ctx.charge(cm.fault_setup_count)
                frame_addr, via_tlb = yield from self._resolve(
                    ctx, leader_xpage, refs, write)
                self.frame_addr[same] = frame_addr
                self.linked_xpage[same] = leader_xpage
                self.tlb_backed[same] = via_tlb
                self.linked_write[same] = write
                self.valid |= same
                ctx.charge(cm.fault_link_count)
                self.avm.stats.links += refs
        finally:
            self._summarize()
            ctx.pop_activity()
        if ctx.tracer is not None:
            ctx.trace_span("translation_fault", t0, ctx.now,
                           f"lanes={int(faulting.sum())}")
    finally:
        ctx.end_request()
    if write:
        self._mark_dirty(active)


def argmax_unlink(self, ctx, mask):
    """``APtr._unlink`` as a loop electing the lowest remaining lane."""
    cm = self.cost
    remaining = mask.copy()
    tlb = self.avm.tlb_for(ctx)
    try:
        while remaining.any():
            leader = int(np.argmax(remaining))
            xpage = int(self.linked_xpage[leader])
            via_tlb = bool(self.tlb_backed[leader])
            group = (remaining & (self.linked_xpage == xpage)
                     & (self.tlb_backed == via_tlb))
            refs = int(group.sum())
            ctx.charge(cm.fault_setup_count, tag="translation")
            if via_tlb and tlb is not None:
                # Only ever driven on one warp context against a stub
                # TLB, so no two warps run this line.
                found = yield from tlb.unref(  # aplint: disable=shared-race
                    ctx, self.backend.file_id, xpage, refs)
                if not found:
                    raise RuntimeError(
                        "TLB-backed lane lost its TLB entry")
            else:
                yield from self.backend.release(ctx, xpage, refs)
            self.valid &= ~group
            self.tlb_backed &= ~group
            self.linked_write &= ~group
            self.avm.stats.unlinks += refs
            remaining &= ~group
    finally:
        self._summarize()


class BallotAPtr(APtr):
    _page_fault = ballot_page_fault
    _unlink = argmax_unlink


STUB_PAGES = 4
STUB_FRAME0 = 1 << 20


def stub_frame(xpage):
    return STUB_FRAME0 + xpage * PAGE


class StubBackend:
    """A paging backend that logs every call and issues no request.
    ``fail_fault``/``fail_release``: raise on that (0-based) call."""

    file_id = 7
    page_size = PAGE

    def __init__(self, log, paged=True, fail_fault=None,
                 fail_release=None):
        self.log = log
        self.paged = paged
        self.fail = {"fault": fail_fault, "release": fail_release}
        self.calls = {"fault": 0, "release": 0}

    def _call(self, kind, *args):
        self.log.append((kind, *args))
        n = self.calls[kind]
        self.calls[kind] += 1
        if n == self.fail[kind]:
            raise OSError(f"{kind} #{n} failed")

    def fault(self, ctx, xpage, refs, write):
        self._call("fault", xpage, refs, write)
        return stub_frame(xpage)
        yield  # pragma: no cover - generator marker

    def release(self, ctx, xpage, refs):
        self._call("release", xpage, refs)
        return
        yield  # pragma: no cover - generator marker


class StubTLB:
    """A block TLB that logs every call: ``cached`` pages hit, even
    pages are installed, and installing a multiple of 3 evicts an entry
    holding one reference."""

    def __init__(self, log, cached):
        self.log = log
        self.cached = cached

    def lookup_and_ref(self, ctx, fid, xpage, refs):
        self.log.append(("lookup", xpage, refs))
        return stub_frame(xpage) if xpage in self.cached else None
        yield  # pragma: no cover - generator marker

    def install(self, ctx, fid, xpage, frame, refs):
        self.log.append(("install", xpage, frame, refs))
        evicted = ((fid, xpage + 100), 1) if xpage % 3 == 0 else None
        return xpage % 2 == 0, evicted
        yield  # pragma: no cover - generator marker

    def unref(self, ctx, fid, xpage, refs):
        self.log.append(("unref", xpage, refs))
        return True
        yield  # pragma: no cover - generator marker


def drive(gen):
    """Run a timed operation whose stubs issue no request."""
    for request in gen:
        raise AssertionError(f"unexpected request {request!r}")


def stub_pointer(cls, lanes, backend, tlb=None):
    """A warp context and a ``cls`` pointer whose lane arrays are set
    from ``lanes``, a list of 32 ``(page, valid, linked page,
    tlb_backed, linked_write)`` tuples."""
    ctx = WarpContext(K80_SPEC, None, BlockContext(0, 32, 1, None), 0)
    avm = make_avm()
    avm.tlb_for = lambda ctx: tlb
    ptr = cls(ctx, avm, backend, 0, STUB_PAGES * PAGE, True)
    page, valid, linked, via_tlb, linked_write = map(np.array,
                                                     zip(*lanes))
    ptr.pos = page * PAGE + 4 * ctx.lane
    ptr.valid = valid.astype(bool)
    ptr.linked_xpage = np.where(valid, linked, -1).astype(np.int64)
    ptr.frame_addr = np.where(valid, stub_frame(linked), 0)
    ptr.tlb_backed = via_tlb & valid
    ptr.linked_write = linked_write & valid
    ptr._summarize()
    return ctx, ptr


LANE_ARRAYS = ("valid", "frame_addr", "linked_xpage", "tlb_backed",
               "linked_write")


def snapshot(ctx, ptr, log):
    stats = ptr.avm.stats
    return {
        "calls": list(log),
        "counts": (stats.translation_faults, stats.fault_groups,
                   stats.links, stats.unlinks),
        "pending": (ctx._pending_count, ctx._pending_chain),
        **{name: getattr(ptr, name).tolist() for name in LANE_ARRAYS},
    }


def per_lane(values):
    """32 lane values: one shared value (the one-group fast path) or
    one drawn per lane."""
    return st.one_of(values.map(lambda v: [v] * 32),
                     st.lists(values, min_size=32, max_size=32))


pages = st.integers(0, STUB_PAGES - 1)


class TestListing1AgainstBallotLoop:
    """The fault and unlink groups found in one pass make the same
    backend and TLB calls, in the same order, with the same counters,
    pending charge and lane arrays as the one-round-per-page loops."""

    @settings(max_examples=budget(100), deadline=None)
    @given(page=per_lane(pages), valid=per_lane(st.booleans()),
           linked=per_lane(pages), via_tlb=per_lane(st.booleans()),
           linked_write=per_lane(st.booleans()),
           active=per_lane(st.booleans()), unlink=per_lane(st.booleans()),
           write=st.booleans(), paged=st.booleans(),
           tlb_cached=st.one_of(st.none(), st.sets(pages)))
    # Every lane faults on one page: the fast path, TLB miss + install.
    @example(page=[0] * 32, valid=[False] * 32, linked=[0] * 32,
             via_tlb=[False] * 32, linked_write=[False] * 32,
             active=[True] * 32, unlink=[True] * 32, write=False,
             paged=True, tlb_cached=set())
    # Lowest lanes on the highest pages: leader order is not page order.
    @example(page=[(3 - lane) % 4 for lane in range(32)],
             valid=[lane % 3 == 0 for lane in range(32)],
             linked=[lane % 2 for lane in range(32)],
             via_tlb=[lane % 5 == 0 for lane in range(32)],
             linked_write=[True] * 32, active=[True] * 32,
             unlink=[True] * 32, write=True, paged=True,
             tlb_cached={1})
    def test_same_calls_counts_charges_and_lanes(
            self, page, valid, linked, via_tlb, linked_write, active,
            unlink, write, paged, tlb_cached):
        lanes = list(zip(page, valid, linked, via_tlb, linked_write))
        active = np.array(active)
        unlink = np.array(unlink)
        runs = []
        for cls in (BallotAPtr, APtr):
            log = []
            tlb = None if tlb_cached is None else StubTLB(log, tlb_cached)
            ctx, ptr = stub_pointer(cls, lanes, StubBackend(log, paged),
                                    tlb)
            steps = []
            drive(ptr._page_fault(ctx, active, write))
            steps.append(snapshot(ctx, ptr, log))
            drive(ptr._unlink(ctx, unlink & ptr.valid))
            steps.append(snapshot(ctx, ptr, log))
            drive(ptr.destroy(ctx))
            steps.append(snapshot(ctx, ptr, log))
            check_summary(ptr)
            runs.append(steps)
        reference, one_pass = runs
        assert one_pass == reference


#: Lane ``i`` on page ``(7 i) % 5``: its groups, lowest lane first, are
#: pages 0, 2, 4, 1, 3.
SPREAD = [((7 * lane) % 5, False, 0, False, False) for lane in range(32)]
SPREAD_ORDER = [0, 2, 4, 1, 3]


class TestFailureMidLoop:
    """A backend that raises part-way through the groups leaves exactly
    the groups handled before it linked (or unlinked), with the warp
    summary matching the lane arrays."""

    @staticmethod
    def _pointer(log, **fail):
        return stub_pointer(APtr, SPREAD, StubBackend(log, **fail))

    @staticmethod
    def _lanes_on(ptr, pages):
        return np.isin(ptr.xpage_vec(), pages)

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_fault_raising_on_kth_page(self, k):
        log = []
        ctx, ptr = self._pointer(log, fail_fault=k)
        with pytest.raises(OSError):
            drive(ptr._page_fault(ctx, ctx.active, False))
        done = SPREAD_ORDER[:k]
        assert np.array_equal(ptr.valid, self._lanes_on(ptr, done))
        assert ptr.avm.stats.fault_groups == k + 1
        assert ptr.avm.stats.links == int(ptr.valid.sum())
        check_summary(ptr)
        del log[:]
        drive(ptr.destroy(ctx))
        refs = [int(self._lanes_on(ptr, [p]).sum()) for p in done]
        assert log == [("release", p, r) for p, r in zip(done, refs)]
        assert not ptr.valid.any()

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_release_raising_on_kth_group(self, k):
        log = []
        ctx, ptr = self._pointer(log, fail_release=k)
        drive(ptr._page_fault(ctx, ctx.active, False))
        assert ptr.valid.all()
        del log[:]
        with pytest.raises(OSError):
            drive(ptr.destroy(ctx))
        kept = SPREAD_ORDER[k:]
        assert np.array_equal(ptr.valid, self._lanes_on(ptr, kept))
        assert ptr.avm.stats.unlinks == 32 - int(ptr.valid.sum())
        check_summary(ptr)
        del log[:]
        drive(ptr.destroy(ctx))
        refs = [int(self._lanes_on(ptr, [p]).sum()) for p in kept]
        assert log == [("release", p, r) for p, r in zip(kept, refs)]
        assert not ptr.valid.any()
