"""Cycle-window sampling: the zero-perturbation invariant, exact
integration of sampled series, and the shared series writer/reader."""

import json

import pytest

from repro.gpu import Device
from repro.telemetry.hooks import EngineProfile
from repro.gpu.trace import COUNTER_KIND, Tracer, events_from_chrome_trace
from repro.telemetry import capture, validate_profile
from repro.telemetry.timeseries import (
    SpillWriter,
    TimeseriesSampler,
    merge_series,
    read_jsonl,
)
from repro.workloads import run_memcpy
from repro.workloads.filebench import make_file_env

PAGE = 4096


def _memcpy_doc(**capture_kwargs):
    with capture(trace=False, **capture_kwargs) as prof:
        device = Device(memory_bytes=32 * 1024 * 1024)
        r = run_memcpy(device, use_apointers=True, width=4, nblocks=2,
                       warps_per_block=4, iters_per_thread=4)
    assert r.verified
    return prof.profiles[0].to_dict()


class TestZeroPerturbation:
    """The tentpole invariant: sampling never moves simulated time."""

    def test_sampled_cycles_bit_identical_to_unsampled(self):
        baseline = _memcpy_doc()
        for window in (500.0, 2000.0, 1e9):
            sampled = _memcpy_doc(timeseries=True,
                                  window_cycles=window)
            assert sampled["launch"]["cycles"] \
                == baseline["launch"]["cycles"]
            assert sampled["engine"] == baseline["engine"]
            assert sampled["stalls"] == baseline["stalls"]
            assert sampled["sms"] == baseline["sms"]

    def test_sampling_marks_profile_component(self):
        doc = _memcpy_doc(timeseries=True, window_cycles=2000.0)
        series = doc["components"]["timeseries"]
        assert series["enabled"] == 1
        assert series["window_cycles"] == 2000.0
        assert series["windows"] == len(series["series"]) > 1
        validate_profile(doc)

    def test_unsampled_profile_has_zeroed_component(self):
        doc = _memcpy_doc()
        series = doc["components"]["timeseries"]
        assert series["enabled"] == 0
        assert series["series"] == []
        validate_profile(doc)


class TestSeriesIntegration:
    """Window series must integrate exactly to the profile totals."""

    @pytest.fixture(scope="class")
    def sampled(self):
        return _memcpy_doc(timeseries=True, window_cycles=1000.0)

    def test_dram_bytes_integrate_exactly(self, sampled):
        series = sampled["components"]["timeseries"]["series"]
        assert sum(w["dram_bytes"] for w in series) \
            == sampled["dram"]["bytes"]
        assert sum(w["dram_transactions"] for w in series) \
            == sampled["dram"]["transactions"]

    def test_sm_busy_integrates_exactly(self, sampled):
        series = sampled["components"]["timeseries"]["series"]
        for sm_doc in sampled["sms"]:
            sm = sm_doc["sm"]
            total = sum(w["sm_busy"][sm] for w in series)
            assert total == pytest.approx(sm_doc["busy_cycles"])

    def test_stalls_integrate_exactly(self, sampled):
        series = sampled["components"]["timeseries"]["series"]
        by_reason: dict = {}
        for w in series:
            for reason, cycles in w["stalls"].items():
                by_reason[reason] = by_reason.get(reason, 0.0) + cycles
        for reason, cycles in sampled["stalls"].items():
            assert by_reason.get(reason, 0.0) == pytest.approx(cycles)

    def test_windows_tile_the_launch(self, sampled):
        series = sampled["components"]["timeseries"]["series"]
        cycles = sampled["launch"]["cycles"]
        assert [w["window"] for w in series] \
            == list(range(len(series)))
        assert series[-1]["t1"] >= cycles
        for w in series:
            assert w["t1"] - w["t0"] == pytest.approx(1000.0)


class TestPagingCountersAndGauges:
    def test_fault_deltas_and_gauges_land_in_windows(self):
        npages = 8
        with capture(trace=False, timeseries=True,
                     window_cycles=5000.0) as prof:
            device, gpufs, fid, _ = make_file_env(
                npages * PAGE, num_frames=npages + 4,
                memory_bytes=npages * PAGE + 32 * 1024 * 1024)

            def kern(ctx):
                for p in range(npages):
                    yield from gpufs.gmmap(ctx, fid, p * PAGE)
                    yield from gpufs.gmunmap(ctx, fid, p * PAGE)

            device.launch(kern, grid=1, block_threads=32)

        doc = prof.longest().to_dict()
        series = doc["components"]["timeseries"]["series"]
        faults = sum(w["counters"].get("paging.major_faults", 0)
                     for w in series)
        assert faults == doc["components"]["paging"]["major_faults"] \
            == npages
        assert sum(w["pcie_bytes"] for w in series) \
            == doc["pcie"]["bytes"]
        gauge_names = set()
        for w in series:
            gauge_names.update(w["gauges"])
        assert "page_cache.occupancy" in gauge_names
        assert "staging.ring_utilization" in gauge_names


class TestSamplerUnit:
    def test_issue_spread_conserves_cycles_and_instructions(self):
        s = TimeseriesSampler(num_sms=1, window_cycles=100.0)
        s.issue(None, 0, 50.0, 50.0, 175.0, 8.0)  # windows 0, 1, 2
        s.finish(300.0)
        busy = [w["sm_busy"][0] for w in s.windows]
        assert busy == [50.0, 100.0, 25.0]
        assert sum(w["instructions"] for w in s.windows) \
            == pytest.approx(8.0)

    def test_stall_attributed_to_end_window(self):
        s = TimeseriesSampler(num_sms=1, window_cycles=100.0)
        s.advance(250.0)                   # windows 0 and 1 closed
        s.stall(None, None, "barrier", 10.0, 250.0, 240.0)  # window 0 on
        s.finish(300.0)
        stalls = [w["stalls"].get("barrier", 0.0) for w in s.windows]
        assert stalls == [0.0, 0.0, 240.0]

    def test_closed_windows_are_immutable(self):
        hits = []
        s = TimeseriesSampler(num_sms=1, window_cycles=100.0,
                              sink=hits.append)
        s.issue(None, 0, 10.0, 10.0, 10.0, 1.0)
        s.advance(150.0)
        assert len(hits) == 1
        flushed = json.loads(json.dumps(hits[0]))
        s.issue(None, 0, 150.0, 150.0, 10.0, 1.0)  # open window 1
        s.stall(None, None, "memory", 40.0, 160.0, 500.0)
        s.finish(200.0)
        assert hits[0] == flushed          # window 0 never touched

    def test_max_windows_drops_and_counts(self):
        s = TimeseriesSampler(num_sms=1, window_cycles=10.0,
                              max_windows=3)
        s.finish(100.0)                    # 10 windows, cap 3
        assert len(s.windows) == 3
        assert s.dropped_windows == 7
        comp = s.to_component()
        assert comp["windows"] == 10
        assert comp["dropped_windows"] == 7

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            TimeseriesSampler(num_sms=1, window_cycles=0.0)

    def test_totals_match_plain_profile(self):
        # The sampler is the launch's EngineProfile: the same engine
        # calls must leave the same launch totals as the plain class,
        # whatever the windows do (splits, late stalls, zero cycles).
        plain = EngineProfile.for_sms(2)
        sampler = TimeseriesSampler(num_sms=2, window_cycles=100.0)
        for prof in (plain, sampler):
            prof.issue(None, 0, 0.0, 50.0, 175.0, 8.0)
            prof.issue(None, 1, 0.0, 0.0, 0.0, 0.0)
            prof.stall(None, None, "memory", 239.9, 240.0, 0.1)
            prof.stall(None, None, "memory", 259.8, 260.0, 0.2)
            prof.stall(None, None, "barrier", 30.0, 30.0, 0.0)
            prof.dram(120.0, 256, 2, 30.5, 12.25)
            prof.dram(199.0, 128, 1, 15.0, 0.0)
            prof.pcie(90.0, 4096, 400.0)
            if prof.advance is not None:
                prof.advance(300.0)
            prof.grant(None, "", 60.0, 310.0, 5.0)
            prof.grant(None, "", 315.0, 315.0, 5.0)   # uncontended
            prof.finish(320.0)
        assert plain.advance is None and sampler.advance is not None
        assert sampler.sm_busy == plain.sm_busy == [175.0, 0.0]
        assert sampler.stalls == plain.stalls
        assert list(sampler.stalls) == list(plain.stalls)
        assert list(sampler.stalls) == ["issue_queue", "memory", "lock"]
        assert sampler.stalls["issue_queue"] == 50.0
        assert sampler.stalls["memory"] == 0.1 + 0.2
        assert sampler.stalls["lock"] == 250.0   # queueing only
        assert "barrier" not in sampler.stalls
        assert sampler.dram_queue_cycles == plain.dram_queue_cycles
        assert sampler.dram_queued_accesses \
            == plain.dram_queued_accesses == 2
        # ... and the windows split those same totals.
        assert [sum(w["sm_busy"][sm] for w in sampler.windows)
                for sm in range(2)] == sampler.sm_busy
        assert sum(w["stalls"].get("lock", 0.0)
                   for w in sampler.windows) == sampler.stalls["lock"]
        assert sum(w["dram_queued_accesses"] for w in sampler.windows) \
            == sampler.dram_queued_accesses


class TestSpillWriterReader:
    """The one series format: a header line, then records stamped
    after their own keys, read back incrementally by byte offset."""

    def test_records_stamped_and_appended(self, tmp_path):
        path = str(tmp_path / "series.jsonl")
        stamp = {"experiment": "x", "point": 3}
        writer = SpillWriter(path, dict(stamp, window_cycles=10.0), stamp)
        assert read_jsonl(path)[0] == [
            {"experiment": "x", "point": 3, "window_cycles": 10.0}]
        writer({"window": 0, "dram_bytes": 5})     # flushed per call
        records, offset = read_jsonl(path)
        assert list(records[1]) == ["window", "dram_bytes",
                                    "experiment", "point"]
        writer.write({"window": 1, "dram_bytes": 7}, epoch=2)
        writer.close()
        tail, end = read_jsonl(path, offset, line=len(records))
        assert tail == [{"window": 1, "dram_bytes": 7, "experiment": "x",
                         "point": 3, "epoch": 2}]
        assert end == len(open(path, "rb").read())

    def test_unterminated_tail_waits(self, tmp_path):
        path = tmp_path / "series.jsonl"
        path.write_bytes(b'{"a": 1}\n{"a": ')
        records, offset = read_jsonl(str(path))
        assert records == [{"a": 1}] and offset == 9
        with open(path, "ab") as f:
            f.write(b'2}\n')
        assert read_jsonl(str(path), offset, line=1) == ([{"a": 2}], 18)

    def test_corrupt_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "series.jsonl"
        path.write_bytes(b'{"a": 1}\n{"a": \n{"a": 3}\n')
        with pytest.raises(ValueError, match=r"series\.jsonl, line 2"):
            read_jsonl(str(path))
        with pytest.raises(ValueError, match=r"series\.jsonl, line 6"):
            read_jsonl(str(path), 9, line=5)

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_jsonl(str(tmp_path / "absent.jsonl"), 7) == ([], 7)


class TestMergeSeries:
    def test_concatenates_with_launch_keys(self):
        docs = [
            {"components": {"timeseries": {
                "enabled": 1, "window_cycles": 100.0, "windows": 2,
                "dropped_windows": 0,
                "series": [{"window": 0}, {"window": 1}]}}},
            {"components": {"timeseries": {"enabled": 0,
                                           "series": []}}},
            {"components": {"timeseries": {
                "enabled": 1, "window_cycles": 50.0, "windows": 1,
                "dropped_windows": 1, "series": [{"window": 0}]}}},
        ]
        merged = merge_series(docs)
        assert merged["enabled"] == 2
        assert merged["windows"] == 3
        assert merged["dropped_windows"] == 1
        assert merged["window_cycles"] == 100.0
        assert [(w["launch"], w["window"]) for w in merged["series"]] \
            == [(0, 0), (0, 1), (2, 0)]


class TestChromeCounterRoundTrip:
    def test_counter_events_survive_export_import(self):
        tracer = Tracer()
        tracer.record_counter("timeseries.sm_busy_frac", 1000.0, 0.375)
        tracer.record_counter("gauge.page_cache.occupancy", 2000.0, 0.5)
        trace = tracer.to_chrome_trace()
        counters = [e for e in trace["traceEvents"]
                    if e.get("ph") == "C"]
        assert len(counters) == 2
        assert counters[0]["cat"] == "timeseries"
        events, dropped = events_from_chrome_trace(trace)
        assert dropped == 0
        assert [e for e in events if e.kind == COUNTER_KIND] \
            == tracer.events

    def test_sampled_traced_launch_exports_counter_tracks(self):
        with capture(trace=True, max_traces=1, timeseries=True,
                     window_cycles=1000.0) as prof:
            device = Device(memory_bytes=32 * 1024 * 1024)
            run_memcpy(device, use_apointers=True, width=4, nblocks=1,
                       warps_per_block=2, iters_per_thread=2)
        tracer = prof.traces[0]
        trace = tracer.to_chrome_trace()
        names = {e["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "C"}
        assert "timeseries.sm_busy_frac" in names
        assert "timeseries.dram_bytes" in names
