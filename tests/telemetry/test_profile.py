"""Telemetry layer: LaunchProfile schema, invariants, and hooks."""

import json

import pytest

from repro.core import APConfig, AVM
from repro.gpu import Device
from repro.telemetry import (
    LaunchProfile,
    MetricsRegistry,
    Profiler,
    capture,
    hooks,
    validate_profile,
)
from repro.workloads import run_memcpy
from repro.workloads.filebench import make_file_env

PAGE = 4096


@pytest.fixture
def memcpy_profile():
    """Profile a tiny apointer memcpy launch (the golden-file case)."""
    with capture() as prof:
        device = Device(memory_bytes=32 * 1024 * 1024)
        r = run_memcpy(device, use_apointers=True, width=4, nblocks=2,
                       warps_per_block=4, iters_per_thread=4)
    assert r.verified
    return prof


class TestLaunchProfileSchema:
    def test_memcpy_profile_is_schema_valid(self, memcpy_profile):
        assert memcpy_profile.profiles
        for profile in memcpy_profile.profiles:
            validate_profile(profile.to_dict())

    def test_profile_survives_json_round_trip(self, memcpy_profile):
        doc = memcpy_profile.profiles[0].to_dict()
        validate_profile(json.loads(json.dumps(doc)))

    def test_headline_counters_present(self, memcpy_profile):
        doc = memcpy_profile.longest().to_dict()
        # The acceptance counters: TLB hit rate, fault counts, per-SM
        # utilisation, DRAM bandwidth-server occupancy.
        assert "tlb_hit_rate" in doc["components"]["translation"]
        assert "minor_faults" in doc["components"]["paging"]
        assert "major_faults" in doc["components"]["paging"]
        assert doc["sms"] and all(
            0.0 <= sm["utilization"] <= 1.0 for sm in doc["sms"])
        assert 0.0 <= doc["dram"]["occupancy"] <= 1.0
        assert doc["dram"]["bandwidth_gbs"] > 0

    def test_translation_counters_counted(self, memcpy_profile):
        doc = memcpy_profile.longest().to_dict()
        tr = doc["components"]["translation"]
        assert tr["derefs"] > 0
        assert tr["links"] > 0

    def test_validate_rejects_corrupt_documents(self, memcpy_profile):
        doc = memcpy_profile.profiles[0].to_dict()
        for mutate in (
            lambda d: d.pop("dram"),
            lambda d: d["dram"].pop("occupancy"),
            lambda d: d.update(schema="something/else"),
            lambda d: d.update(version=99),
            lambda d: d["launch"].update(cycles="fast"),
            lambda d: d["components"].pop("paging"),
            lambda d: d["components"].pop("readahead"),
            lambda d: d["components"]["readahead"].pop("hit_rate"),
            lambda d: d["components"]["translation"].pop("tlb_hit_rate"),
            lambda d: d["sms"][0].pop("busy_cycles"),
        ):
            broken = json.loads(json.dumps(doc))
            mutate(broken)
            with pytest.raises(ValueError):
                validate_profile(broken)


class TestSchemaVersioning:
    def test_live_profiles_are_current_version(self, memcpy_profile):
        from repro.telemetry.profile import SCHEMA_VERSION
        doc = memcpy_profile.profiles[0].to_dict()
        assert doc["version"] == SCHEMA_VERSION == 8

    def test_v3_requires_sanitizer_component(self, memcpy_profile):
        doc = memcpy_profile.profiles[0].to_dict()
        san = doc["components"]["sanitizer"]
        for key in ("warps_watched", "lockstep_violations",
                    "torn_writes", "pin_leaks"):
            assert key in san
        broken = json.loads(json.dumps(doc))
        broken["components"].pop("sanitizer")
        with pytest.raises(ValueError, match="sanitizer"):
            validate_profile(broken)

    def test_v5_requires_attribution_component(self, memcpy_profile):
        doc = memcpy_profile.profiles[0].to_dict()
        attr = doc["components"]["attribution"]
        for key in ("translation_cycles", "translation_hidden",
                    "translation_exposed", "hidden_fraction",
                    "critical_path_cycles", "attributed"):
            assert key in attr
        broken = json.loads(json.dumps(doc))
        broken["components"].pop("attribution")
        with pytest.raises(ValueError, match="attribution"):
            validate_profile(broken)

    def test_v6_requires_timeseries_component(self, memcpy_profile):
        doc = memcpy_profile.profiles[0].to_dict()
        series = doc["components"]["timeseries"]
        for key in ("enabled", "window_cycles", "windows"):
            assert key in series
        broken = json.loads(json.dumps(doc))
        broken["components"].pop("timeseries")
        with pytest.raises(ValueError, match="timeseries"):
            validate_profile(broken)

    def test_v7_requires_syscalls_component(self, memcpy_profile):
        doc = memcpy_profile.profiles[0].to_dict()
        sc = doc["components"]["syscalls"]
        for key in ("pread", "pwrite", "msync", "madvise", "ftruncate",
                    "blocked_cycles", "writeback_bytes"):
            assert key in sc
        broken = json.loads(json.dumps(doc))
        broken["components"].pop("syscalls")
        with pytest.raises(ValueError, match="syscalls"):
            validate_profile(broken)

    def test_v8_requires_spans_component(self, memcpy_profile):
        doc = memcpy_profile.profiles[0].to_dict()
        spans = doc["components"]["spans"]
        for key in ("requests", "spans", "span_cycles"):
            assert key in spans
        broken = json.loads(json.dumps(doc))
        broken["components"].pop("spans")
        with pytest.raises(ValueError, match="spans"):
            validate_profile(broken)

    @pytest.mark.parametrize(
        "version", [1, 2, 3, 4, 5, 6, 7, 9, "8", None], ids=repr)
    def test_only_current_version_validates(self, memcpy_profile,
                                            version):
        # Only the version the code writes validates: an otherwise
        # complete v8 document restamped with any other version is
        # rejected for its version.
        doc = json.loads(json.dumps(memcpy_profile.profiles[0].to_dict()))
        validate_profile(doc)
        doc["version"] = version
        with pytest.raises(ValueError, match="unsupported version"):
            validate_profile(doc)


class TestEngineInvariants:
    def test_per_sm_busy_plus_idle_sums_to_span(self, memcpy_profile):
        for profile in memcpy_profile.profiles:
            doc = profile.to_dict()
            cycles = doc["launch"]["cycles"]
            assert doc["sms"], "profiled launch must report SMs"
            for sm in doc["sms"]:
                assert sm["busy_cycles"] >= 0
                assert sm["idle_cycles"] >= 0
                assert sm["busy_cycles"] + sm["idle_cycles"] == \
                    pytest.approx(cycles)

    def test_issue_slot_utilization_bounded(self, memcpy_profile):
        for profile in memcpy_profile.profiles:
            util = profile.to_dict()["issue"]["slot_utilization"]
            assert 0.0 <= util <= 1.0

    def test_stall_reasons_nonnegative(self, memcpy_profile):
        doc = memcpy_profile.longest().to_dict()
        assert doc["stalls"], "apointer memcpy must report stalls"
        assert all(v >= 0 for v in doc["stalls"].values())
        assert "memory" in doc["stalls"]


class TestPagingProfile:
    def test_fault_counts_flow_into_profile(self):
        npages = 8
        with capture() as prof:
            device, gpufs, fid, _ = make_file_env(
                npages * PAGE, num_frames=npages + 4,
                memory_bytes=npages * PAGE + 32 * 1024 * 1024)

            def kern(ctx):
                for p in range(npages):
                    yield from gpufs.gmmap(ctx, fid, p * PAGE)
                    yield from gpufs.gmunmap(ctx, fid, p * PAGE)

            device.launch(kern, grid=1, block_threads=32)

        doc = prof.longest().to_dict()
        validate_profile(doc)
        paging = doc["components"]["paging"]
        assert paging["major_faults"] == npages
        assert doc["pcie"]["bytes"] >= npages * PAGE

    def test_deltas_are_per_launch_not_cumulative(self):
        npages = 4
        with capture() as prof:
            device, gpufs, fid, _ = make_file_env(
                npages * PAGE, num_frames=npages + 4,
                memory_bytes=npages * PAGE + 32 * 1024 * 1024)

            def kern(ctx):
                for p in range(npages):
                    yield from gpufs.gmmap(ctx, fid, p * PAGE)
                    yield from gpufs.gmunmap(ctx, fid, p * PAGE)

            device.launch(kern, grid=1, block_threads=32)
            device.launch(kern, grid=1, block_threads=32)

        first, second = prof.profiles
        # First launch takes every major fault; the second sees the
        # warm cache — the registry must report deltas, not totals.
        assert first.components["paging"]["major_faults"] == npages
        assert second.components["paging"]["major_faults"] == 0
        assert second.components["paging"]["minor_faults"] == npages


class TestRegistry:
    def test_register_is_idempotent(self):
        reg = MetricsRegistry()
        avm = AVM(APConfig())
        reg.register("translation", avm.stats)
        reg.register("translation", avm.stats)
        avm.stats.derefs += 3
        assert reg.collect()["translation"]["derefs"] == 3

    def test_multiple_instances_aggregate(self):
        reg = MetricsRegistry()
        a, b = AVM(APConfig()), AVM(APConfig())
        reg.register("translation", a.stats)
        reg.register("translation", b.stats)
        a.stats.derefs += 2
        b.stats.derefs += 5
        assert reg.collect()["translation"]["derefs"] == 7

    def test_tlb_hit_rate_derived(self):
        reg = MetricsRegistry()
        avm = AVM(APConfig())
        reg.register("translation", avm.stats)
        avm.stats.tlb_hits += 3
        avm.stats.tlb_misses += 1
        assert reg.collect()["translation"]["tlb_hit_rate"] == 0.75


class TestHooks:
    def test_no_ambient_profiler_by_default(self):
        assert hooks.current() is None

    def test_capture_nests(self):
        with capture() as outer:
            assert hooks.current() is outer
            with capture() as inner:
                assert hooks.current() is inner
            assert hooks.current() is outer
        assert hooks.current() is None

    def test_unprofiled_launch_has_no_profile(self):
        device = Device(memory_bytes=8 * 1024 * 1024)

        def kern(ctx):
            yield from ctx.compute(5)

        result = device.launch(kern, grid=1, block_threads=32)
        assert result.profile is None

    def test_explicit_profiler_without_capture(self):
        prof = Profiler(trace=False)
        device = Device(memory_bytes=8 * 1024 * 1024)

        def kern(ctx):
            yield from ctx.compute(5)

        result = device.launch(kern, grid=1, block_threads=32,
                               profiler=prof)
        assert isinstance(result.profile, LaunchProfile)
        assert prof.traces == [None]
        validate_profile(result.profile.to_dict())


class TestWrite:
    def test_write_emits_profiles_and_traces(self, memcpy_profile,
                                             tmp_path):
        written = memcpy_profile.write(tmp_path)
        profiles = [p for p in written if "profile-" in p]
        traces = [p for p in written if "trace-" in p]
        assert len(profiles) == len(memcpy_profile.profiles)
        assert traces, "traced launches must emit Chrome traces"
        for path in profiles:
            with open(path) as f:
                validate_profile(json.load(f))
