"""Tests for the APtr state machine, arithmetic, dereference, and the
reference-counting invariants of §III-B."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AArray, APConfig, APtrState, PtrFormat
from repro.core.apointer import APtr, BoundsError, ProtectionError
from repro.gpu import Device
from repro.gpu.memory import AffineLanes
from repro.host import HostFileSystem
from repro.host.filesys import O_RDWR
from repro.host.ramfs import RamFS
from repro.paging import GPUfs, GPUfsConfig
from tests.core.conftest import PAGE, launch, make_avm


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

    @settings(max_examples=40, deadline=None)
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
