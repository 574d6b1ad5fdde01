"""Integration tests: readahead engine inside the GPUfs fault path."""

import numpy as np

from repro.gpu import Device
from repro.host import HostFileSystem
from repro.host.ramfs import RamFS
from repro.paging import GPUfs, GPUfsConfig

PAGE = 4096
FILE_PAGES = 64


def make_env(num_frames=96, readahead=True, initial_window=None):
    rng = np.random.RandomState(7)
    data = rng.randint(0, 256, FILE_PAGES * PAGE, dtype=np.uint8)
    fs = RamFS()
    fs.create("data", data)
    device = Device(memory_bytes=64 * 1024 * 1024)
    gpufs = GPUfs(device, HostFileSystem(fs),
                  GPUfsConfig(page_size=PAGE, num_frames=num_frames,
                              readahead=readahead))
    if initial_window is not None:
        # Shadows the class constant on this engine's detector only.
        gpufs.readahead.detector.INITIAL_WINDOW = initial_window
    fid = gpufs.open("data")
    return device, gpufs, fid, data


def walk_pages(device, gpufs, fid, pages, block_threads=32):
    def kern(ctx):
        for p in pages:
            yield from gpufs.gmmap(ctx, fid, p * PAGE)
            yield from gpufs.gmunmap(ctx, fid, p * PAGE)

    return device.launch(kern, grid=1, block_threads=block_threads)


class TestOffByDefault:
    def test_default_config_builds_no_engine(self):
        device, gpufs, fid, _ = make_env(readahead=False)
        assert gpufs.readahead is None
        walk_pages(device, gpufs, fid, range(8))
        # Pure demand paging: one major fault per page, no speculation.
        assert gpufs.stats.major_faults == 8
        assert gpufs.batcher.stats.speculative == 0


class TestSequentialPrefetch:
    def test_sequential_walk_converts_majors_to_hits(self):
        device, gpufs, fid, data = make_env()
        walk_pages(device, gpufs, fid, range(16))
        ra = gpufs.readahead.stats
        assert ra.issued > 0
        assert ra.hits > 0
        # The first two faults train the detector; everything after
        # should come from readahead.
        assert gpufs.stats.major_faults < 16
        assert gpufs.stats.major_faults + ra.hits >= 16
        # Prefetched pages carry the right bytes.
        for p in range(16):
            entry = gpufs.cache.table.get(fid, p)
            assert entry is not None and entry.ready
            got = device.memory.read(
                gpufs.cache.frame_addr(entry.frame), PAGE)
            assert np.array_equal(got, data[p * PAGE:(p + 1) * PAGE])

    def test_readahead_is_faster_on_sequential(self):
        device_off, gpufs_off, fid_off, _ = make_env(readahead=False)
        off = walk_pages(device_off, gpufs_off, fid_off, range(16))
        device_on, gpufs_on, fid_on, _ = make_env()
        on = walk_pages(device_on, gpufs_on, fid_on, range(16))
        assert on.cycles < off.cycles

    def test_random_access_stays_quiet(self):
        device, gpufs, fid, _ = make_env()
        # Strictly decreasing: every delta is negative, so no stream
        # ever confirms.
        pages = [63, 50, 40, 30, 20, 10, 5, 0]
        walk_pages(device, gpufs, fid, pages)
        ra = gpufs.readahead.stats
        assert ra.issued == 0
        assert gpufs.stats.major_faults == len(pages)

    def test_window_grows_on_sustained_streaming(self):
        device, gpufs, fid, _ = make_env(initial_window=2)
        walk_pages(device, gpufs, fid, range(32))
        ra = gpufs.readahead.stats
        assert ra.window_grows > 0
        # The histogram saw more than one window size.
        assert len(ra.window_hist) > 1


class TestInflight:
    def test_demand_fault_on_inflight_page_counts_inflight_hit(self):
        device, gpufs, fid, data = make_env()
        got = []

        def kern(ctx):
            if ctx.warp_id == 0:
                # Trains the detector; its second fault issues 2..5.
                for p in range(2):
                    yield from gpufs.gmmap(ctx, fid, p * PAGE)
                    yield from gpufs.gmunmap(ctx, fid, p * PAGE)
            else:
                # Pounces on page 2 the moment it is issued — the
                # speculative transfer is guaranteed still in flight.
                while gpufs.readahead.stats.issued == 0:
                    yield from ctx.sleep(50.0)
                addr = yield from gpufs.gmmap(ctx, fid, 2 * PAGE)
                got.append(ctx.memory.read(addr, PAGE).copy())
                yield from gpufs.gmunmap(ctx, fid, 2 * PAGE)

        device.launch(kern, grid=1, block_threads=64)
        ra = gpufs.readahead.stats
        assert ra.inflight_hits == 1
        assert ra.inflight_hits <= ra.hits
        # The partial wait still yielded the right bytes.
        assert np.array_equal(got[0], data[2 * PAGE:3 * PAGE])

    def test_launch_boundary_completes_inflight(self):
        device, gpufs, fid, _ = make_env()
        walk_pages(device, gpufs, fid, [0, 1])   # issues pages 2..5
        assert gpufs.readahead.inflight_pages > 0
        majors = gpufs.stats.major_faults
        walk_pages(device, gpufs, fid, [2, 3])
        # The daemon finished during the inter-launch gap: the second
        # launch sees ready pages, no new major faults.
        assert gpufs.stats.major_faults == majors
        assert gpufs.readahead.stats.hits >= 2


class TestPoliteness:
    def test_allocate_speculative_never_evicts_demand(self):
        device, gpufs, fid, _ = make_env(num_frames=4, readahead=False)
        walk_pages(device, gpufs, fid, range(4))     # fill with demand
        assert gpufs.cache.allocate_speculative() is None
        # Every demand page is still resident.
        for p in range(4):
            assert gpufs.cache.table.get(fid, p) is not None

    def test_allocate_speculative_reclaims_stale_speculation(self):
        device, gpufs, fid, _ = make_env(num_frames=4, readahead=False)
        walk_pages(device, gpufs, fid, range(4))
        victim = gpufs.cache.table.get(fid, 2)
        victim.speculative = True
        gpufs.cache.mark_speculative(victim.frame)
        wasted = []
        gpufs.cache.spec_listener = type(
            "L", (), {"on_spec_evicted":
                      staticmethod(lambda e: wasted.append(e))})()
        frame = gpufs.cache.allocate_speculative()
        assert frame == victim.frame
        assert gpufs.cache.table.get(fid, 2) is None
        assert wasted == [victim]

    def test_eviction_prefers_speculative_frames(self):
        device, gpufs, fid, _ = make_env(num_frames=4, readahead=False)
        walk_pages(device, gpufs, fid, range(4))
        spec = gpufs.cache.table.get(fid, 2)
        spec.speculative = True
        gpufs.cache.mark_speculative(spec.frame)
        # Demand-fault a fifth page: eviction must pick the marked
        # frame even though the clock hand points at page 0's.
        walk_pages(device, gpufs, fid, [4])
        assert gpufs.cache.table.get(fid, 2) is None
        for p in (0, 1, 3, 4):
            assert gpufs.cache.table.get(fid, p) is not None

    def test_cache_pressure_cancels_and_shrinks(self):
        device, gpufs, fid, _ = make_env(num_frames=6,
                                         initial_window=8)
        # Hold a reference to each mapped page for the whole kernel so
        # frames stay pinned and speculative allocation runs dry.
        npages = 6

        def kern(ctx):
            for p in range(npages):
                yield from gpufs.gmmap(ctx, fid, p * PAGE)
            for p in range(npages):
                yield from gpufs.gmunmap(ctx, fid, p * PAGE)

        device.launch(kern, grid=1, block_threads=32)
        ra = gpufs.readahead.stats
        assert ra.cancelled > 0
        assert ra.window_shrinks > 0
        # Back-off is invisible to correctness: all pages resident.
        assert gpufs.stats.major_faults + ra.hits >= npages


class TestWasteFeedback:
    def test_spec_eviction_counts_wasted_and_shrinks(self):
        device, gpufs, fid, _ = make_env()
        walk_pages(device, gpufs, fid, [0, 1])
        engine = gpufs.readahead
        (file_id, fpn), stream = next(iter(engine._origin.items()))
        before = stream.window
        entry = gpufs.cache.table.get(file_id, fpn)
        engine.on_spec_evicted(entry)
        assert engine.stats.wasted == 1
        assert stream.window <= before
        assert (file_id, fpn) not in engine._origin


class TestTelemetry:
    def test_profile_exports_readahead_section(self):
        from repro.telemetry import capture, validate_profile

        with capture() as prof:
            device, gpufs, fid, _ = make_env()
            walk_pages(device, gpufs, fid, range(16))
        doc = prof.longest().to_dict()
        validate_profile(doc)
        ra = doc["components"]["readahead"]
        assert ra["issued"] > 0
        assert ra["hits"] > 0
        assert 0.0 < ra["hit_rate"] <= 1.0
        assert any(k.startswith("window_hist_") for k in ra)

    def test_profile_readahead_zeroed_when_off(self):
        from repro.telemetry import capture, validate_profile

        with capture() as prof:
            device, gpufs, fid, _ = make_env(readahead=False)
            walk_pages(device, gpufs, fid, range(4))
        doc = prof.longest().to_dict()
        validate_profile(doc)
        ra = doc["components"]["readahead"]
        assert ra["issued"] == 0 and ra["hit_rate"] == 0.0


class TestFaultFilterIntegration:
    """REVIEW (high): readahead-served pages must still pass through
    FaultFilter.page_in — the daemon lands raw file bytes and the GPU
    applies the filter (e.g. decryption) at first touch."""

    XOR = 0xA5

    def make_filtered_env(self, **cfg):
        from repro.paging.gpufs import FaultFilter

        rng = np.random.RandomState(11)
        plain = rng.randint(0, 256, FILE_PAGES * PAGE, dtype=np.uint8)
        fs = RamFS()
        fs.create("data", plain ^ np.uint8(self.XOR))   # "ciphertext"
        device = Device(memory_bytes=64 * 1024 * 1024)
        key = self.XOR

        class XorFilter(FaultFilter):
            instructions_per_byte = 0.5

            def page_in(self, data, fpn):
                return data ^ np.uint8(key)

            def page_out(self, data, fpn):
                return data ^ np.uint8(key)

        gpufs = GPUfs(device, HostFileSystem(fs),
                      GPUfsConfig(page_size=PAGE, num_frames=96,
                                  readahead=True, **cfg),
                      fault_filter=XorFilter())
        fid = gpufs.open("data")
        return device, gpufs, fid, plain

    def test_readahead_hits_see_filtered_bytes(self):
        device, gpufs, fid, plain = self.make_filtered_env()
        got = {}

        def kern(ctx):
            for p in range(16):
                addr = yield from gpufs.gmmap(ctx, fid, p * PAGE)
                got[p] = ctx.memory.read(addr, PAGE).copy()
                yield from gpufs.gmunmap(ctx, fid, p * PAGE)

        device.launch(kern, grid=1, block_threads=32)
        # Readahead actually served most pages...
        assert gpufs.readahead.stats.hits > 0
        assert gpufs.stats.major_faults < 16
        # ...and every page came back decrypted.
        for p in range(16):
            assert np.array_equal(got[p], plain[p * PAGE:(p + 1) * PAGE]), \
                f"page {p} bytes wrong (filter skipped?)"

    def test_filter_applied_exactly_once_per_page(self):
        device, gpufs, fid, plain = self.make_filtered_env()
        got = {}

        def kern(ctx):
            for p in list(range(16)) + list(range(16)):   # touch twice
                addr = yield from gpufs.gmmap(ctx, fid, p * PAGE)
                got[p] = ctx.memory.read(addr, PAGE).copy()
                yield from gpufs.gmunmap(ctx, fid, p * PAGE)

        device.launch(kern, grid=1, block_threads=32)
        # A second touch of a promoted page must not re-apply the XOR
        # (which would re-encrypt it).
        for p in range(16):
            assert np.array_equal(got[p], plain[p * PAGE:(p + 1) * PAGE])

    def test_untouched_speculative_pages_stay_raw_until_touch(self):
        device, gpufs, fid, plain = self.make_filtered_env()
        walk_pages(device, gpufs, fid, range(4))
        # Find a speculative page beyond the walk that already landed.
        gpufs.readahead.poll(float("inf"))
        spec = [e for e in gpufs.cache.table.entries()
                if e.speculative and e.ready]
        assert spec, "expected outstanding speculative pages"
        # Touching it now must produce filtered bytes.
        e = spec[0]
        got = []

        def kern(ctx):
            addr = yield from gpufs.gmmap(ctx, fid, e.fpn * PAGE)
            got.append(ctx.memory.read(addr, PAGE).copy())
            yield from gpufs.gmunmap(ctx, fid, e.fpn * PAGE)

        device.launch(kern, grid=1, block_threads=32)
        assert np.array_equal(
            got[0], plain[e.fpn * PAGE:(e.fpn + 1) * PAGE])


class TestDaemonRaces:
    """REVIEW (medium/low): daemon-vs-warp table and frame races."""

    def test_start_transfer_defers_under_bucket_lock(self):
        import types

        device, gpufs, fid, _ = make_env()
        engine = gpufs.readahead
        table = gpufs.cache.table
        lock = table._lock_for(table._hash(fid, 9))
        lock.holder = object()          # a warp is mid-insert
        free_before = len(gpufs.cache._free)
        frame = gpufs.cache.allocate_speculative()
        out = engine._start_transfer(
            types.SimpleNamespace(now=0.0),
            types.SimpleNamespace(file_id=fid), 9, frame,
            gpufs.handle_for(fid))
        lock.holder = None
        assert out is None
        assert engine.stats.deferred == 1
        assert table.get(fid, 9) is None
        # The frame went back to the free list, not leaked.
        assert len(gpufs.cache._free) == free_before
        assert engine.inflight_pages == 0

    def test_allocate_speculative_spares_protected_pages(self):
        device, gpufs, fid, _ = make_env(num_frames=4, readahead=False)
        walk_pages(device, gpufs, fid, range(4))
        for p in range(4):
            e = gpufs.cache.table.get(fid, p)
            e.speculative = True
            gpufs.cache.mark_speculative(e.frame)
        everything = {(fid, p) for p in range(4)}
        assert gpufs.cache.allocate_speculative(everything) is None
        for p in range(4):
            assert gpufs.cache.table.get(fid, p) is not None
        # Exempting all but page 2 reclaims exactly page 2's frame.
        spared = everything - {(fid, 2)}
        frame = gpufs.cache.allocate_speculative(spared)
        assert frame is not None
        assert gpufs.cache.table.get(fid, 2) is None
        for p in (0, 1, 3):
            assert gpufs.cache.table.get(fid, p) is not None

    def test_poll_drops_promoted_and_landed_entries(self):
        device, gpufs, fid, _ = make_env()
        walk_pages(device, gpufs, fid, [0, 1])   # issues a window
        engine = gpufs.readahead
        assert len(engine._inflight) >= 2
        promoted = engine._inflight[0][0]
        landed = engine._inflight[1][0]
        promoted.speculative = False    # as on_hit would
        landed.ready = True             # as GPUfs._wait_ready would
        pkey, lkey = promoted.key, landed.key
        assert lkey in engine._origin
        engine.poll(0.0)
        live = [e for e, _, _ in engine._inflight]
        assert promoted not in live and landed not in live
        # The promoted entry's origin record is swept defensively; the
        # landed-but-untouched one stays for on_hit's window feedback.
        assert pkey not in engine._origin
        assert lkey in engine._origin
