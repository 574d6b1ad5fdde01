"""Deterministic sharded epoch execution (repro.gpu.sharded).

The contract under test: ``jobs=1`` and ``jobs=N`` are bit-identical
(stats, profiles, memory, merged traces and series, all observed
through ``capture()``); host-free clusters match each device launched
on its own; a sanitized device is sanitized in a cluster too; and
worker, stall or spill failures surface as errors instead of hangs.
The results themselves are pinned by ``golden_cluster.json``
(``test_cluster_golden.py``).
"""

import json
import multiprocessing
import os
import tempfile
import time

import numpy as np
import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.gpu import Device, K80_SPEC, Tracer
from repro.gpu.engine import EngineStats
from repro.gpu.multigpu import ClusterLaunch, launch_cluster
from repro.gpu.sharded import (
    WORKER_TIMEOUT,
    WORKER_TIMEOUT_ENV,
    _merge_spills,
    _series_spill_path,
    _trace_spill_path,
    default_epoch_cycles,
    worker_timeout,
)
from repro.telemetry import capture


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


def crash_kernel(ctx, base, fail):
    if fail:
        raise RuntimeError("shard kernel failed")
    yield from rpc_kernel(ctx, base)


#: Exit status of a shard worker that dies without reporting.
DEATH_STATUS = 3


def death_kernel(ctx, base, die):
    if die:
        os._exit(DEATH_STATUS)
    yield from rpc_kernel(ctx, base)


#: Host seconds a hung shard kernel sleeps — far past the test's
#: worker timeout.
HANG_SECONDS = 30.0


def hang_kernel(ctx, base, hang):
    if hang:
        time.sleep(HANG_SECONDS)
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

    def test_tracer_with_jobs_merges(self):
        # Per-shard spill files merge back into the profiler's trace
        # with SM ids rebased to each shard's global range.
        devices = make_devices(2)
        with capture() as prof:
            result = launch_cluster(_cluster(devices, compute_kernel),
                                    jobs=2)
        assert result.cycles > 0
        (tracer,) = prof.traces
        assert tracer.events
        sms = {e.sm for e in tracer.events if e.sm >= 0}
        assert max(sms) >= K80_SPEC.num_sms  # shard 1 rebased past 0's


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


class TestCrossProcessDeterminism:
    def test_jobs_1_and_jobs_n_bit_identical(self):
        def run(jobs):
            devices = make_devices(2)
            bases = [d.alloc(4096) for d in devices]
            launches = [ClusterLaunch(d, rpc_kernel, 2, 64, args=(b,))
                        for d, b in zip(devices, bases)]
            with capture(trace=False):
                result = launch_cluster(launches, jobs=jobs)
            return result, [bytes(d.memory.data) for d in devices]

        serial, serial_mem = run(jobs=1)
        parallel, parallel_mem = run(jobs=2)
        assert parallel.cycles == serial.cycles
        assert parallel.stats == serial.stats
        assert parallel.profile.sms == serial.profile.sms
        assert parallel.profile.stalls == serial.profile.stalls
        assert parallel_mem == serial_mem


def _rpc_launches(devices):
    bases = [d.alloc(4096) for d in devices]
    return [ClusterLaunch(d, rpc_kernel, 2, 64, args=(b,))
            for d, b in zip(devices, bases)]


class TestShardedTracing:
    """Per-shard event shipping: traces and series spill per shard and
    merge deterministically, so jobs=1 == jobs=N bit for bit."""

    WINDOW = 500.0

    def _run(self, jobs, spill_dir=None):
        """The merged ``LaunchProfile`` and trace of one cluster."""
        with capture(trace=True, timeseries=True,
                     window_cycles=self.WINDOW) as prof:
            result = launch_cluster(_rpc_launches(make_devices(2)),
                                    jobs=jobs, spill_dir=spill_dir)
        assert result.profile is prof.last
        return result.profile, prof.traces[-1]

    @staticmethod
    def _tuples(tracer):
        return [(e.warp, e.block, e.kind, e.start, e.end, e.detail,
                 e.sm, e.req) for e in tracer.events]

    def test_traced_jobs_1_and_jobs_2_bit_identical(self):
        from repro.telemetry.attribution import attribute_tracer

        serial, serial_trace = self._run(jobs=1)
        parallel, parallel_trace = self._run(jobs=2)
        assert serial_trace is not None and serial_trace.events
        assert self._tuples(parallel_trace) == self._tuples(serial_trace)
        assert parallel_trace.dropped == serial_trace.dropped
        assert json.dumps(parallel.components["timeseries"],
                          sort_keys=True) \
            == json.dumps(serial.components["timeseries"],
                          sort_keys=True)
        # Windowed shard profiles come back from workers as plain
        # totals; they must merge to the in-process result.
        assert any(row["busy_cycles"] for row in serial.sms)
        assert parallel.sms == serial.sms
        assert parallel.stalls == serial.stalls
        for key in ("queue_cycles", "queued_accesses"):
            assert parallel.dram[key] == serial.dram[key]
        # Attribution over the merged traces agrees too (acceptance:
        # identical reports, not merely identical event streams).
        assert attribute_tracer(parallel_trace).to_dict() \
            == attribute_tracer(serial_trace).to_dict()

    def test_series_merges_all_shards(self):
        profile, _ = self._run(jobs=1)
        series = profile.components["timeseries"]
        assert series["enabled"] == 1
        assert series["window_cycles"] == self.WINDOW
        assert series["dropped_windows"] == 0
        assert len(series["series"]) == series["windows"]
        assert {w["shard"] for w in series["series"]} == {0, 1}

    def test_spill_records_stamped(self, tmp_path):
        _, tracer = self._run(jobs=1, spill_dir=str(tmp_path))
        assert tracer is not None
        for index in range(2):
            tlines = open(_trace_spill_path(str(tmp_path), index)) \
                .read().splitlines()
            meta = json.loads(tlines[0])
            assert meta["shard"] == meta["device"] == index
            epoch = meta["epoch_cycles"]
            assert meta["events"] == len(tlines) - 1
            for line in tlines[1:]:
                rec = json.loads(line)
                assert rec["shard"] == rec["device"] == index
                assert rec["epoch"] == int(rec["start"] // epoch)
            slines = open(_series_spill_path(str(tmp_path), index)) \
                .read().splitlines()
            smeta = json.loads(slines[0])
            assert smeta["shard"] == smeta["device"] == index
            assert smeta["windows"] == len(slines) - 1
            for line in slines[1:]:
                rec = json.loads(line)
                assert rec["shard"] == rec["device"] == index
                assert rec["epoch"] == int(rec["t0"] // epoch)


class TestSeriesMergeEdgeCases:
    """The merge must hold up when shards spill little or nothing."""

    def test_no_spill_files_yields_empty_section(self, tmp_path):
        tracer = Tracer()
        merged = _merge_spills(str(tmp_path), 2, K80_SPEC.num_sms,
                               tracer, timeseries=True)
        assert merged == {"enabled": 0, "window_cycles": 0.0,
                          "windows": 0, "dropped_windows": 0,
                          "series": []}
        assert tracer.events == []

    def test_zero_window_shard_merges(self, tmp_path):
        spill_dir = str(tmp_path)
        # Shard 0 sampled nothing (meta line only); shard 1 one window.
        with open(_series_spill_path(spill_dir, 0), "w") as f:
            f.write(json.dumps({"shard": 0, "device": 0,
                                "epoch_cycles": 50.0,
                                "window_cycles": 100.0,
                                "windows": 0,
                                "dropped_windows": 0}) + "\n")
        with open(_series_spill_path(spill_dir, 1), "w") as f:
            f.write(json.dumps({"shard": 1, "device": 1,
                                "epoch_cycles": 50.0,
                                "window_cycles": 100.0,
                                "windows": 1,
                                "dropped_windows": 2}) + "\n")
            f.write(json.dumps({"window": 0, "t0": 0.0, "t1": 100.0,
                                "shard": 1, "device": 1,
                                "epoch": 0}) + "\n")
        merged = _merge_spills(spill_dir, 2, K80_SPEC.num_sms, None,
                               timeseries=True)
        assert merged["enabled"] == 1
        assert merged["windows"] == 1
        assert merged["dropped_windows"] == 2
        assert len(merged["series"]) == 1
        assert merged["series"][0]["shard"] == 1

    def test_sm_and_req_rebase_skip_counters(self, tmp_path):
        spill_dir = str(tmp_path)
        with open(_trace_spill_path(spill_dir, 0), "w") as f:
            # An empty shard that still dropped events must surface
            # the loss in the merged tracer.
            f.write(json.dumps({"shard": 0, "device": 0,
                                "epoch_cycles": 50.0, "events": 0,
                                "dropped": 2}) + "\n")
        with open(_trace_spill_path(spill_dir, 1), "w") as f:
            f.write(json.dumps({"shard": 1, "device": 1,
                                "epoch_cycles": 50.0, "events": 2,
                                "dropped": 0}) + "\n")
            f.write(json.dumps({"warp": 3, "block": 0,
                                "kind": "page_in", "start": 10.0,
                                "end": 20.0, "detail": "", "sm": 0,
                                "req": "0:3:7", "shard": 1,
                                "device": 1, "epoch": 0}) + "\n")
            f.write(json.dumps({"warp": 0, "block": -1,
                                "kind": "counter", "start": 5.0,
                                "end": 5.0, "detail": "x=1",
                                "sm": -1, "req": "", "shard": 1,
                                "device": 1, "epoch": 0}) + "\n")
        tracer = Tracer()
        _merge_spills(spill_dir, 2, K80_SPEC.num_sms, tracer,
                      timeseries=False)
        assert tracer.dropped == 2
        span, counter = tracer.events
        assert span.sm == K80_SPEC.num_sms     # rebased to shard 1
        assert span.req == "1:3:7"             # device prefix rebased
        assert counter.sm == -1                # counters stay global
        assert counter.req == ""

    def test_truncated_spill_names_file_and_line(self, tmp_path):
        spill_dir = str(tmp_path)
        with open(_trace_spill_path(spill_dir, 1), "w") as f:
            f.write(json.dumps({"shard": 1, "device": 1,
                                "epoch_cycles": 50.0, "events": 1,
                                "dropped": 0}) + "\n")
            f.write('{"warp": 3, "block": 0, "kind": "page_in", "sta')
        with pytest.raises(ValueError,
                           match=r"trace-shard001\.jsonl, line 2"):
            _merge_spills(spill_dir, 2, K80_SPEC.num_sms, Tracer(),
                          timeseries=True)

    def test_merge_series_stamps_launch_under_jobs_2(self):
        from repro.telemetry.timeseries import merge_series

        with capture(trace=False, timeseries=True, window_cycles=500.0):
            result = launch_cluster(_rpc_launches(make_devices(2)),
                                    jobs=2)
        doc = result.profile.to_dict()
        merged = merge_series([doc, doc])
        assert merged["enabled"] == 2
        assert merged["windows"] \
            == 2 * doc["components"]["timeseries"]["windows"]
        assert {w["launch"] for w in merged["series"]} == {0, 1}


class TestWorkerCrash:
    def test_shard_crash_reraises_promptly(self, monkeypatch, tmp_path):
        """A shard whose kernel raises surfaces its own exception long
        before the worker timeout, and takes down the surviving shard
        (parked on a host request) and the spill directory with it."""
        monkeypatch.delenv(WORKER_TIMEOUT_ENV, raising=False)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        launches = [ClusterLaunch(d, crash_kernel, 2, 64,
                                  args=(d.alloc(4096), i == 1))
                    for i, d in enumerate(make_devices(2))]
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="shard kernel failed"), \
                capture():
            launch_cluster(launches, jobs=2)
        assert time.monotonic() - started < WORKER_TIMEOUT / 4
        assert not list(tmp_path.glob("repro-shards-*"))
        assert not multiprocessing.active_children()

    def test_silent_worker_death_reported_promptly(self, monkeypatch,
                                                   tmp_path):
        """A worker that dies without reporting (killed, or its error
        would not pickle) fails the launch long before the timeout."""
        monkeypatch.delenv(WORKER_TIMEOUT_ENV, raising=False)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        launches = [ClusterLaunch(d, death_kernel, 2, 64,
                                  args=(d.alloc(4096), i == 1))
                    for i, d in enumerate(make_devices(2))]
        started = time.monotonic()
        with pytest.raises(RuntimeError,
                           match=f"shard 1 worker exited with code "
                                 f"{DEATH_STATUS}"), capture():
            launch_cluster(launches, jobs=2)
        assert time.monotonic() - started < WORKER_TIMEOUT / 4
        assert not list(tmp_path.glob("repro-shards-*"))
        assert not multiprocessing.active_children()


class TestWorkerTimeout:
    def test_hung_shard_times_out_and_is_terminated(self, monkeypatch,
                                                    tmp_path):
        """A shard stuck in its kernel raises ``TimeoutError`` soon
        after the worker timeout — not after the hang — and leaves no
        worker process or spill directory behind."""
        monkeypatch.setenv(WORKER_TIMEOUT_ENV, "1")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        launches = [ClusterLaunch(d, hang_kernel, 2, 64,
                                  args=(d.alloc(4096), i == 1))
                    for i, d in enumerate(make_devices(2))]
        started = time.monotonic()
        with pytest.raises(TimeoutError, match="no progress"), capture():
            launch_cluster(launches, jobs=2)
        assert time.monotonic() - started < 10.0
        assert not multiprocessing.active_children()
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

    def test_jobs_2_rejects_sanitized_device(self):
        d0, d1 = make_devices(2)
        self._sanitized(d1)
        with pytest.raises(ValueError, match="device 1 .*sanitizer"):
            launch_cluster([ClusterLaunch(d0, compute_kernel, 2, 64),
                            ClusterLaunch(d1, compute_kernel, 2, 64)],
                           jobs=2)
        assert not multiprocessing.active_children()


class TestWorkerTimeoutEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(WORKER_TIMEOUT_ENV, raising=False)
        assert worker_timeout() == WORKER_TIMEOUT

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKER_TIMEOUT_ENV, "5.5")
        assert worker_timeout() == 5.5

    @pytest.mark.parametrize("raw", ["soon", ""])
    def test_non_numeric_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(WORKER_TIMEOUT_ENV, raw)
        with pytest.raises(ValueError, match="number of seconds"):
            worker_timeout()

    @pytest.mark.parametrize("raw", ["0", "-3", "nan"])
    def test_nonpositive_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(WORKER_TIMEOUT_ENV, raw)
        with pytest.raises(ValueError, match="positive"):
            worker_timeout()
