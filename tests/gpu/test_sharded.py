"""Sharded epoch execution of clusters (repro.gpu.multigpu).

The contract under test: host-free clusters match each device launched
on its own; the merged profile, trace and series cover every shard
(observed through ``capture()``) and a traced cluster reruns bit for
bit; the in-memory merge rebases SM, warp and request ids and keeps
every shard's drop counts; a sanitized device is sanitized in a
cluster too; and a shard kernel's exception reaches the caller as
itself.  The
results themselves are pinned by ``golden_cluster.json``
(``test_cluster_golden.py``).
"""

import json
import tempfile

import numpy as np
import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.gpu import Device, K80_SPEC, Tracer
from repro.gpu.engine import EngineStats
from repro.gpu.multigpu import (
    ClusterLaunch,
    _merge_series,
    _merge_trace,
    _Shard,
    default_epoch_cycles,
    launch_cluster,
)
from repro.telemetry import capture
from repro.telemetry.hooks import EngineProfile
from repro.telemetry.timeseries import TimeseriesSampler


def make_devices(n=2, mem=8 * 1024 * 1024):
    return [Device(spec=K80_SPEC, memory_bytes=mem) for _ in range(n)]


#: Synthetic instruction counts — arbitrary but named so the
#: calibration linter can audit that they are deliberate test loads,
#: not drifted hardware estimates.
COMPUTE_BLOCK = 500
COMPUTE_CHAIN = 20
WRITER_BLOCK = 100
WRITER_CHAIN = 10
RPC_CHAIN = 10
RPC_PROLOGUE = 200
RPC_EPILOGUE = 50


def compute_kernel(ctx):
    yield from ctx.compute(COMPUTE_BLOCK, chain=COMPUTE_CHAIN)


def writer_kernel(ctx, base, value):
    yield from ctx.compute(WRITER_BLOCK, chain=WRITER_CHAIN)
    yield from ctx.store(base + ctx.lane * 4,
                         np.full(32, value, np.uint32), "u4")


def rpc_kernel(ctx, base):
    yield from ctx.compute(RPC_PROLOGUE, chain=RPC_CHAIN)
    yield from ctx.host_compute(1e-6)
    yield from ctx.compute(RPC_EPILOGUE)
    yield from ctx.host_compute(2e-6)
    yield from ctx.store(base + ctx.lane * 4,
                         np.full(32, ctx.warp_id + 1, np.uint32), "u4")


class ShardKernelError(RuntimeError):
    """The failing shard's own exception type."""


def crash_kernel(ctx, base, fail):
    if fail:
        # The same prologue as the healthy shard's, so the healthy
        # shard has parked on its first host request by now.
        yield from ctx.compute(RPC_PROLOGUE, chain=RPC_CHAIN)
        raise ShardKernelError("shard kernel failed")
    yield from rpc_kernel(ctx, base)


def torn_kernel(ctx, base):
    # Every warp stores to the same 32 words with no barrier between.
    yield from ctx.store(base + ctx.lane * 4,
                         np.full(32, ctx.warp_id, np.uint32), "u4")


def _cluster(devices, kernel):
    return [ClusterLaunch(d, kernel, 2, 64) for d in devices]


class TestEpochDefaults:
    def test_default_epoch_is_pcie_latency(self):
        assert default_epoch_cycles(K80_SPEC) \
            == max(1.0, K80_SPEC.pcie_latency_cycles())

    def test_nonpositive_epoch_rejected(self):
        devices = make_devices(2)
        with pytest.raises(ValueError, match="epoch_cycles"):
            launch_cluster(_cluster(devices, compute_kernel),
                           epoch_cycles=0.0)

    def test_tracer_merges_with_sm_rebase(self):
        # Shard traces merge into the profiler's trace with SM ids
        # rebased to each shard's global range.
        devices = make_devices(2)
        with capture() as prof:
            result = launch_cluster(_cluster(devices, compute_kernel))
        assert result.cycles > 0
        (tracer,) = prof.traces
        assert tracer.events
        sms = {e.sm for e in tracer.events if e.sm >= 0}
        assert max(sms) >= K80_SPEC.num_sms  # shard 1 rebased past 0's

    def test_warp_ids_unique_across_shards(self):
        # Two devices x 2 blocks x 2 warps: each shard numbers its
        # warps from 0, so the merge moves shard 1's past shard 0's.
        from repro.telemetry.attribution import attribute_tracer

        with capture() as prof:
            launch_cluster(_cluster(make_devices(2), compute_kernel))
        (tracer,) = prof.traces
        tracks = {(e.sm, e.warp) for e in tracer.events if e.sm >= 0}
        assert len(tracks) == 8
        assert len({warp for _, warp in tracks}) == 8
        report = attribute_tracer(tracer).to_dict()
        assert (report["warps"], report["sms"]) == (8, 4)


class TestHostFreeEquivalence:
    """Host-free clusters never cross a device boundary, so the cluster
    must match each device launched on its own: makespan, merged
    counters and memory."""

    def test_sharded_matches_unsharded_cycles(self):
        refs = [d.launch(compute_kernel, 2, 64) for d in make_devices(3)]
        shard = launch_cluster(_cluster(make_devices(3), compute_kernel))
        assert shard.cycles == max(r.cycles for r in refs)
        assert shard.stats.instructions \
            == sum(r.stats.instructions for r in refs)
        assert shard.stats == EngineStats.merged([r.stats for r in refs])

    def test_memory_effects_match(self):
        ref_devices = make_devices(2)
        for i, d in enumerate(ref_devices):
            d.launch(writer_kernel, 2, 64, args=(d.alloc(4096), i + 1))
        shard_devices = make_devices(2)
        launch_cluster([ClusterLaunch(d, writer_kernel, 2, 64,
                                      args=(d.alloc(4096), i + 1))
                        for i, d in enumerate(shard_devices)])
        for ref, shard in zip(ref_devices, shard_devices):
            assert bytes(ref.memory.data) == bytes(shard.memory.data)
        assert any(bytes(d.memory.data).strip(b"\0")
                   for d in shard_devices)


class TestHostGatedEquivalence:
    """Clusters with host RPCs: the merged profile covers every shard.
    Their cycles and counters are pinned by ``golden_cluster.json``."""

    def test_jobs_1_profile_merges(self):
        devices = make_devices(2)
        bases = [d.alloc(4096) for d in devices]
        launches = [ClusterLaunch(d, rpc_kernel, 2, 64, args=(b,))
                    for d, b in zip(devices, bases)]
        with capture(trace=False) as prof:
            result = launch_cluster(launches)
        assert result.profile is prof.last
        # One sms row per SM per shard, concatenated in shard order.
        assert [row["sm"] for row in result.profile.sms] \
            == list(range(K80_SPEC.num_sms * len(launches)))


def _rpc_launches(devices):
    bases = [d.alloc(4096) for d in devices]
    return [ClusterLaunch(d, rpc_kernel, 2, 64, args=(b,))
            for d, b in zip(devices, bases)]


class TestShardedTracing:
    """Every shard observes itself; the parent merges the observers in
    shard order, so a traced, sampled cluster reruns bit for bit."""

    WINDOW = 500.0

    def _run(self):
        """The merged ``LaunchProfile`` and trace of one cluster."""
        with capture(trace=True, timeseries=True,
                     window_cycles=self.WINDOW) as prof:
            result = launch_cluster(_rpc_launches(make_devices(2)))
        assert result.profile is prof.last
        return result.profile, prof.traces[-1]

    @staticmethod
    def _tuples(tracer):
        return [(e.warp, e.block, e.kind, e.start, e.end, e.detail,
                 e.sm, e.req) for e in tracer.events]

    def test_traced_cluster_reruns_bit_identical(self):
        from repro.telemetry.attribution import attribute_tracer

        first, first_trace = self._run()
        again, again_trace = self._run()
        assert first_trace is not None and first_trace.events
        assert self._tuples(again_trace) == self._tuples(first_trace)
        assert again_trace.dropped == first_trace.dropped
        assert json.dumps(again.components["timeseries"],
                          sort_keys=True) \
            == json.dumps(first.components["timeseries"],
                          sort_keys=True)
        assert any(row["busy_cycles"] for row in first.sms)
        assert again.sms == first.sms
        assert again.stalls == first.stalls
        for key in ("queue_cycles", "queued_accesses"):
            assert again.dram[key] == first.dram[key]
        # Attribution over the merged traces agrees too: identical
        # reports, not merely identical event streams.
        assert attribute_tracer(again_trace).to_dict() \
            == attribute_tracer(first_trace).to_dict()

    def test_series_merges_all_shards(self):
        profile, _ = self._run()
        series = profile.components["timeseries"]
        assert series["enabled"] == 1
        assert series["window_cycles"] == self.WINDOW
        assert series["dropped_windows"] == 0
        assert len(series["series"]) == series["windows"]
        assert {w["shard"] for w in series["series"]} == {0, 1}

    def test_series_windows_stamped(self):
        profile, _ = self._run()
        epoch = default_epoch_cycles(K80_SPEC)
        series = profile.components["timeseries"]["series"]
        for index in range(2):
            windows = [w for w in series if w["shard"] == index]
            assert windows
            for window in windows:
                assert window["device"] == index
                assert window["epoch"] == int(window["t0"] // epoch)


def _sampler(windows, dropped_windows=0):
    """A hand-built windowed shard observer."""
    sampler = TimeseriesSampler(num_sms=K80_SPEC.num_sms,
                                window_cycles=100.0)
    sampler.windows = windows
    sampler.dropped_windows = dropped_windows
    return sampler


def _traced(events=(), dropped=0):
    """A hand-built tracing shard observer."""
    tracer = Tracer()
    for event in events:
        tracer.record(**event)
    tracer.dropped = dropped
    return EngineProfile(tracer=tracer)


class TestSeriesMergeEdgeCases:
    """The in-memory merge must hold up when shards record little or
    nothing."""

    def test_no_shards_yields_empty_sections(self):
        assert _merge_series([], epoch=50.0) == {
            "enabled": 0, "window_cycles": 0.0, "windows": 0,
            "dropped_windows": 0, "series": []}
        tracer = _merge_trace([], K80_SPEC.num_sms, [], max_events=10)
        assert tracer.events == [] and tracer.dropped == 0

    def test_zero_window_shard_merges(self):
        # Shard 0 sampled nothing; shard 1 one window and two drops.
        window = {"window": 0, "t0": 100.0, "t1": 200.0}
        merged = _merge_series([_sampler([]), _sampler([window], 2)],
                               epoch=50.0)
        assert merged["enabled"] == 1
        assert merged["window_cycles"] == 100.0
        assert merged["windows"] == 3
        assert merged["dropped_windows"] == 2
        assert merged["series"] == [{**window, "shard": 1, "device": 1,
                                     "epoch": 2}]

    def test_sm_and_req_rebase_skip_counters(self):
        # An empty shard that still dropped events must surface the
        # loss in the merged tracer; shard 1's warps move past shard
        # 0's four.
        empty = _traced(dropped=2)
        busy = _traced([
            dict(warp=3, block=0, kind="page_in", start=10.0, end=20.0,
                 sm=0, req="0:3:7"),
            dict(warp=0, block=-1, kind="counter", start=5.0, end=5.0,
                 detail="x=1"),
        ])
        tracer = _merge_trace([empty, busy], K80_SPEC.num_sms, [4, 4],
                              max_events=10)
        assert tracer.dropped == 2
        span, counter = tracer.events
        assert span.sm == K80_SPEC.num_sms     # rebased to shard 1
        assert span.warp == 4 + 3
        assert span.req == "1:3:7"             # device prefix rebased
        assert counter.sm == -1                # counters stay global
        assert counter.warp == 0
        assert counter.req == ""

    def test_merge_series_stamps_launch(self):
        from repro.telemetry.timeseries import merge_series

        with capture(trace=False, timeseries=True, window_cycles=500.0):
            result = launch_cluster(_rpc_launches(make_devices(2)))
        doc = result.profile.to_dict()
        merged = merge_series([doc, doc])
        assert merged["enabled"] == 2
        assert merged["windows"] \
            == 2 * doc["components"]["timeseries"]["windows"]
        assert {w["launch"] for w in merged["series"]} == {0, 1}


class TestShardFailure:
    def test_shard_crash_reraises_unwrapped(self, monkeypatch, tmp_path):
        """A shard whose kernel raises while another shard is parked
        on a host request fails the launch with its own exception, and
        records no profile and no spill directory."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        shards = []
        init = _Shard.__init__

        def tracked(self, *args):
            init(self, *args)
            shards.append(self)

        monkeypatch.setattr(_Shard, "__init__", tracked)
        launches = [ClusterLaunch(d, crash_kernel, 2, 64,
                                  args=(d.alloc(4096), i == 1))
                    for i, d in enumerate(make_devices(2))]
        with capture() as prof:
            with pytest.raises(ShardKernelError,
                               match="shard kernel failed") as info:
                launch_cluster(launches)
        assert type(info.value) is ShardKernelError
        assert info.value.__cause__ is None
        assert shards[0].engine.parked
        assert prof.profiles == []
        assert not list(tmp_path.glob("repro-shards-*"))


class TestSanitizedCluster:
    @staticmethod
    def _sanitized(device):
        device.sanitizer = Sanitizer()
        return device

    def test_jobs_1_matches_device_launch(self):
        """A sanitized device reports the same findings in a cluster
        as under ``Device.launch``: the two warps of the block store
        to the same words unsynchronised, one torn write."""
        ref = self._sanitized(make_devices(1)[0])
        ref.launch(torn_kernel, 1, 64, args=(ref.alloc(4096),))
        assert ref.sanitizer.stats.torn_writes == 1
        d0, d1 = make_devices(2)
        self._sanitized(d0)
        launch_cluster([ClusterLaunch(d0, torn_kernel, 1, 64,
                                      args=(d0.alloc(4096),)),
                        ClusterLaunch(d1, compute_kernel, 2, 64)])
        assert d0.sanitizer.stats == ref.sanitizer.stats
        assert d0.sanitizer.stats.warps_watched == 2
        assert [v.invariant for v in d0.sanitizer.violations] \
            == [v.invariant for v in ref.sanitizer.violations]
