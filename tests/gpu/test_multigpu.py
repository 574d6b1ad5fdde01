"""Tests for concurrent multi-GPU launches."""

import numpy as np
import pytest

from repro.gpu import Device, K80_SPEC
from repro.gpu.multigpu import ClusterLaunch, launch_cluster
from repro.telemetry import LaunchProfile, capture, validate_profile

#: Synthetic instruction counts — named so the calibration linter can
#: see they are deliberate test loads, not drifted hardware estimates.
LONG_BLOCK = 2000
LONG_CHAIN = 60
SHORT_BLOCK = 100


def make_devices(n=2):
    return [Device(spec=K80_SPEC, memory_bytes=16 * 1024 * 1024)
            for _ in range(n)]


def compute_kernel(ctx, out):
    yield from ctx.compute(LONG_BLOCK, chain=LONG_CHAIN)
    out.append(ctx.warp_id)


class TestClusterLaunch:
    def test_devices_run_concurrently(self):
        """Two equal kernels take ~one kernel's time, not two."""
        d0, d1 = make_devices()
        solo = d0.launch(compute_kernel, grid=26, block_threads=1024,
                         args=([],))
        both = launch_cluster([
            ClusterLaunch(d0, compute_kernel, 26, 1024, args=([],)),
            ClusterLaunch(d1, compute_kernel, 26, 1024, args=([],)),
        ])
        assert both.cycles == pytest.approx(solo.cycles, rel=0.05)

    def test_memories_are_isolated(self):
        d0, d1 = make_devices()
        a0, a1 = d0.alloc(4096), d1.alloc(4096)

        def writer(ctx, base, value):
            yield from ctx.store(base + ctx.lane * 4,
                                 np.full(32, value, np.uint32), "u4")

        launch_cluster([
            ClusterLaunch(d0, writer, 1, 32, args=(a0, 1)),
            ClusterLaunch(d1, writer, 1, 32, args=(a1, 2)),
        ])
        assert np.all(d0.memory.read(a0, 128).view(np.uint32) == 1)
        assert np.all(d1.memory.read(a1, 128).view(np.uint32) == 2)

    def test_dram_bandwidth_not_shared(self):
        """Each device has its own DRAM: two streaming kernels keep
        their throughput."""
        def stream(ctx, base):
            for i in range(16):
                _ = yield from ctx.load_wide(
                    base + ctx.global_tid * 16, "f4", 4)

        d0, _ = make_devices(1)[0], None
        d0b = Device(spec=K80_SPEC, memory_bytes=64 * 1024 * 1024)
        base0 = d0b.alloc(16 * 1024 * 1024)
        solo = d0b.launch(stream, grid=26, block_threads=1024,
                          args=(base0,))

        da = Device(spec=K80_SPEC, memory_bytes=64 * 1024 * 1024)
        db = Device(spec=K80_SPEC, memory_bytes=64 * 1024 * 1024)
        ba, bb = da.alloc(16 * 1024 * 1024), db.alloc(16 * 1024 * 1024)
        both = launch_cluster([
            ClusterLaunch(da, stream, 26, 1024, args=(ba,)),
            ClusterLaunch(db, stream, 26, 1024, args=(bb,)),
        ])
        assert both.cycles == pytest.approx(solo.cycles, rel=0.10)

    def test_host_is_shared(self):
        """Host RPCs from both devices serialise on the one host CPU."""
        def rpc_kernel(ctx):
            yield from ctx.host_compute(2e-6)

        d0, d1 = make_devices()
        solo = d0.launch(rpc_kernel, grid=1, block_threads=1024)
        d2, d3 = make_devices()
        both = launch_cluster([
            ClusterLaunch(d2, rpc_kernel, 1, 1024),
            ClusterLaunch(d3, rpc_kernel, 1, 1024),
        ])
        assert both.cycles > solo.cycles * 1.8

    def test_validation(self):
        d0, d1 = make_devices()
        with pytest.raises(ValueError, match="no launches"):
            launch_cluster([])
        with pytest.raises(ValueError, match="one launch per device"):
            launch_cluster([
                ClusterLaunch(d0, compute_kernel, 1, 32, args=([],)),
                ClusterLaunch(d0, compute_kernel, 1, 32, args=([],)),
            ])
        with pytest.raises(ValueError):
            ClusterLaunch(d0, compute_kernel, 0, 32)

    def test_uneven_workloads_makespan(self):
        d0, d1 = make_devices()

        def short(ctx):
            yield from ctx.compute(SHORT_BLOCK)

        long_solo = d1.launch(compute_kernel, grid=26, block_threads=1024,
                              args=([],))
        d2, d3 = make_devices()
        both = launch_cluster([
            ClusterLaunch(d2, short, 1, 32),
            ClusterLaunch(d3, compute_kernel, 26, 1024, args=([],)),
        ])
        assert both.cycles == pytest.approx(long_solo.cycles, rel=0.05)

    def test_default_cluster_profiled_under_capture(self):
        """The default cluster call is visible to ambient telemetry:
        one merged profile with every device's SMs."""
        launches = [ClusterLaunch(d, compute_kernel, 2, 64, args=([],))
                    for d in make_devices()]
        with capture() as prof:
            launch_cluster(launches)
        (profile,) = prof.profiles
        doc = profile.to_dict()
        validate_profile(doc)
        assert len(doc["sms"]) == K80_SPEC.num_sms * len(launches)

    def test_result_profile_is_the_launch_profile(self):
        """Under one profiler, ``result.profile`` is the recorded
        ``LaunchProfile`` for a device launch and a cluster launch
        alike."""
        d0, d1, d2 = make_devices(3)
        with capture(trace=False) as prof:
            solo = d0.launch(compute_kernel, 2, 64, args=([],))
            both = launch_cluster([
                ClusterLaunch(d1, compute_kernel, 2, 64, args=([],)),
                ClusterLaunch(d2, compute_kernel, 2, 64, args=([],)),
            ])
        assert len(prof.profiles) == 2
        assert prof.profiles[0] is solo.profile
        assert prof.profiles[1] is both.profile
        for result in (solo, both):
            assert isinstance(result.profile, LaunchProfile)
            validate_profile(result.profile.to_dict())
            assert result.profile.cycles == result.cycles
        assert len(both.profile.sms) == 2 * len(solo.profile.sms)
