"""merge_profiles: suite profiles from per-launch documents.

Covers the schema ``run`` section: counter summing, rate
recomputation, and validation of the ``run.workers`` block.
"""

import json

import pytest

from repro.gpu import Device
from repro.telemetry import capture, merge_profiles, validate_profile


@pytest.fixture
def launch_docs():
    """Two real launch profiles from tiny distinct kernels."""
    from repro.workloads import run_memcpy
    with capture(trace=False) as prof:
        device = Device(memory_bytes=32 * 1024 * 1024)
        r = run_memcpy(device, use_apointers=True, width=4, nblocks=2,
                       warps_per_block=4, iters_per_thread=4)
        assert r.verified
        r = run_memcpy(device, use_apointers=True, width=8, nblocks=1,
                       warps_per_block=2, iters_per_thread=2)
        assert r.verified
    docs = [p.to_dict() for p in prof.profiles]
    assert len(docs) >= 2
    return docs


class TestMerge:
    def test_merged_doc_is_current_schema(self, launch_docs):
        merged = merge_profiles(launch_docs, name="memcpy suite")
        validate_profile(merged)
        assert merged["version"] == 8
        assert merged["name"] == "memcpy suite"

    def test_attribution_hidden_fraction_recomputed(self, launch_docs):
        # Give the two launches unequal hidden fractions; the merged
        # fraction must be the ratio of the summed cycles, not a sum
        # (or mean) of the per-launch ratios.
        docs = [json.loads(json.dumps(d)) for d in launch_docs]
        docs[0]["components"]["attribution"].update(
            translation_cycles=100.0, translation_hidden=90.0,
            translation_exposed=10.0, hidden_fraction=0.9, attributed=1)
        docs[1]["components"]["attribution"].update(
            translation_cycles=300.0, translation_hidden=150.0,
            translation_exposed=150.0, hidden_fraction=0.5, attributed=1)
        merged = merge_profiles(docs)
        attr = merged["components"]["attribution"]
        assert attr["translation_cycles"] == 400.0
        assert attr["hidden_fraction"] == pytest.approx(240.0 / 400.0)
        assert attr["attributed"] == 2

    def test_counters_sum(self, launch_docs):
        merged = merge_profiles(launch_docs)
        assert merged["launch"]["cycles"] == sum(
            d["launch"]["cycles"] for d in launch_docs)
        assert merged["dram"]["bytes"] == sum(
            d["dram"]["bytes"] for d in launch_docs)
        assert merged["engine"]["instructions"] == sum(
            d["engine"]["instructions"] for d in launch_docs)
        for key in merged["stalls"]:
            assert merged["stalls"][key] == sum(
                d["stalls"].get(key, 0) for d in launch_docs)

    def test_rates_recomputed_not_summed(self, launch_docs):
        merged = merge_profiles(launch_docs)
        tr = merged["components"]["translation"]
        lookups = tr["tlb_hits"] + tr["tlb_misses"]
        expected = tr["tlb_hits"] / lookups if lookups else 0.0
        assert tr["tlb_hit_rate"] == pytest.approx(expected)
        # A suite's occupancy can never exceed 100% no matter how many
        # launches are merged — it's a weighted mean, not a sum.
        assert 0.0 <= merged["dram"]["occupancy"] <= 1.0
        assert 0.0 <= merged["issue"]["slot_utilization"] <= 1.0

    def test_workers_section_round_trips(self, launch_docs):
        merged = merge_profiles(launch_docs, workers={
            "count": 3, "jobs": 4, "points": 7, "errors": 1})
        workers = merged["run"]["workers"]
        assert workers == {"count": 3, "jobs": 4, "points": 7,
                           "launches": len(launch_docs), "errors": 1}
        validate_profile(json.loads(json.dumps(merged)))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_profiles([])

    def test_invalid_input_rejected(self, launch_docs):
        broken = json.loads(json.dumps(launch_docs[0]))
        broken.pop("dram")
        with pytest.raises(ValueError):
            merge_profiles([launch_docs[0], broken])


class TestRunSectionValidation:
    def test_missing_worker_keys_rejected(self, launch_docs):
        merged = merge_profiles(launch_docs)
        broken = json.loads(json.dumps(merged))
        broken["run"]["workers"].pop("jobs")
        with pytest.raises(ValueError, match="jobs"):
            validate_profile(broken)

    def test_per_launch_profiles_omit_run(self, launch_docs):
        for doc in launch_docs:
            assert "run" not in doc
