"""The per-launch profile: schema, registry, and validation.

A :class:`LaunchProfile` is one kernel launch reduced to a stable,
JSON-serialisable document: launch geometry, engine counters, per-SM
utilisation, DRAM/PCIe server occupancy, a warp-stall-reason breakdown,
and the per-launch deltas of every registered component counter
(translation-layer :class:`~repro.core.metrics.APStats`, paging-layer
``PagingStats``, transfer-batcher stats, ...).

The document format is versioned (``schema`` / ``version`` keys) and
checked by :func:`validate_profile`, which is what the telemetry tests
assert against — downstream tooling can rely on the shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

SCHEMA_NAME = "repro.telemetry/launch-profile"
#: The one version ``validate_profile`` accepts.  What each version
#: added is recorded in ``docs/observability.md``.
SCHEMA_VERSION = 8

#: Required integer counters of ``run.workers`` when a ``run`` section
#: is present (merged suite profiles only).
_RUN_WORKER_KEYS = ("count", "jobs", "points", "launches", "errors")

#: Required numeric keys of each components.* section.
_COMPONENT_KEYS = {
    "translation": ("tlb_hit_rate", "tlb_hits", "tlb_misses",
                    "translation_faults"),
    "paging": ("minor_faults", "major_faults"),
    "readahead": ("issued", "hits", "wasted", "cancelled", "hit_rate"),
    "sanitizer": ("warps_watched", "lockstep_violations", "torn_writes",
                  "pin_leaks"),
    "attribution": ("translation_cycles", "translation_hidden",
                    "translation_exposed", "hidden_fraction",
                    "critical_path_cycles", "attributed"),
    "timeseries": ("enabled", "window_cycles", "windows"),
    "syscalls": ("pread", "pwrite", "msync", "madvise", "ftruncate",
                 "blocked_cycles", "writeback_bytes"),
    "spans": ("requests", "spans", "span_cycles"),
}


def _numeric_fields(obj) -> dict:
    """Numeric attributes of a stats object (dataclass or plain).

    A ``dict``-valued attribute holding numeric values (a histogram,
    e.g. ``ReadaheadStats.window_hist``) is flattened to
    ``<attr>_<bucket>`` keys so registries can delta and export it like
    any scalar counter.
    """
    out = {}
    for key, value in vars(obj).items():
        if isinstance(value, bool) or key.startswith("_"):
            continue
        if isinstance(value, (int, float)):
            out[key] = value
        elif isinstance(value, dict):
            for bucket, count in value.items():
                if isinstance(count, (int, float)) \
                        and not isinstance(count, bool):
                    out[f"{key}_{bucket}"] = count
    return out


class MetricsRegistry:
    """Aggregates component stats objects into per-launch deltas.

    Components register once (``register("translation", avm.stats)``);
    the registry snapshots each object's numeric fields as a baseline.
    :meth:`collect` returns, per kind, the *sum of deltas* since the
    last collection — so stats objects that accumulate across launches
    (one ``AVM`` reused by several kernels) still yield per-launch
    numbers, and several instances of the same kind (one ``AVM`` per
    warp) aggregate naturally.
    """

    def __init__(self):
        self._components: list[tuple[str, Any, dict]] = []
        self._ids: set[int] = set()

    def register(self, kind: str, stats: Any) -> None:
        if id(stats) in self._ids:
            return
        self._ids.add(id(stats))
        self._components.append((kind, stats, _numeric_fields(stats)))

    def components(self) -> list:
        """Live ``(kind, stats_obj)`` pairs — what the time-series
        sampler probes by snapshot at window boundaries (with its own
        baselines, so probing never disturbs :meth:`collect`)."""
        return [(kind, stats) for kind, stats, _ in self._components]

    def collect(self) -> dict:
        """Summed per-kind deltas since the last collect; rebaselines."""
        out: dict[str, dict] = {}
        for i, (kind, stats, baseline) in enumerate(self._components):
            now = _numeric_fields(stats)
            agg = out.setdefault(kind, {})
            for key, value in now.items():
                delta = value - baseline.get(key, 0)
                agg[key] = agg.get(key, 0) + delta
            self._components[i] = (kind, stats, now)
        # Derived metrics the paper reports directly.
        tr = out.get("translation")
        if tr is not None:
            lookups = tr.get("tlb_hits", 0) + tr.get("tlb_misses", 0)
            tr["tlb_hit_rate"] = (tr.get("tlb_hits", 0) / lookups
                                  if lookups else 0.0)
        ra = out.get("readahead")
        if ra is not None:
            issued = ra.get("issued", 0)
            ra["hit_rate"] = (ra.get("hits", 0) / issued
                              if issued else 0.0)
        return out


@dataclass
class LaunchProfile:
    """One launch, fully accounted.  See module docstring."""

    index: int
    name: str
    spec: dict
    launch: dict
    engine: dict
    issue: dict
    sms: list = field(default_factory=list)
    dram: dict = field(default_factory=dict)
    pcie: dict = field(default_factory=dict)
    stalls: dict = field(default_factory=dict)
    components: dict = field(default_factory=dict)
    trace: dict | None = None

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "index": self.index,
            "name": self.name,
            "spec": self.spec,
            "launch": self.launch,
            "engine": self.engine,
            "issue": self.issue,
            "sms": self.sms,
            "dram": self.dram,
            "pcie": self.pcie,
            "stalls": self.stalls,
            "components": self.components,
            "trace": self.trace,
        }

    @property
    def cycles(self) -> float:
        return self.launch["cycles"]


#: Required keys and their value types, per section of the document.
#: ``validate_profile`` walks this — it doubles as the schema reference
#: quoted in ``docs/observability.md``.
PROFILE_SCHEMA = {
    "spec": {"name": str, "num_sms": int, "clock_hz": (int, float),
             "warp_size": int},
    "launch": {"grid": int, "block_threads": int, "blocks_per_sm": int,
               "cycles": (int, float), "seconds": (int, float)},
    "issue": {"slot_utilization": (int, float),
              "instructions_per_cycle": (int, float)},
    "dram": {"bytes": int, "transactions": int,
             "bandwidth_gbs": (int, float), "occupancy": (int, float),
             "queue_cycles": (int, float), "queued_accesses": int},
    "pcie": {"bytes": int, "transactions": int,
             "busy_cycles": (int, float), "occupancy": (int, float)},
}

_SM_SCHEMA = {"sm": int, "busy_cycles": (int, float),
              "idle_cycles": (int, float), "utilization": (int, float)}


def validate_profile(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid profile document."""
    if not isinstance(doc, dict):
        raise ValueError("profile must be a JSON object")
    if doc.get("schema") != SCHEMA_NAME:
        raise ValueError(f"bad schema marker: {doc.get('schema')!r}")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported version: {version!r}")
    for section, fields in PROFILE_SCHEMA.items():
        sub = doc.get(section)
        if not isinstance(sub, dict):
            raise ValueError(f"missing section {section!r}")
        for key, types in fields.items():
            if key not in sub:
                raise ValueError(f"{section}.{key} missing")
            if not isinstance(sub[key], types) or isinstance(
                    sub[key], bool):
                raise ValueError(
                    f"{section}.{key} has type "
                    f"{type(sub[key]).__name__}, wanted {types}")
    sms = doc.get("sms")
    if not isinstance(sms, list):
        raise ValueError("sms must be a list")
    for entry in sms:
        for key, types in _SM_SCHEMA.items():
            if key not in entry or isinstance(entry[key], bool) \
                    or not isinstance(entry[key], types):
                raise ValueError(f"sms[].{key} missing or mistyped")
    for section in ("engine", "stalls", "components"):
        if not isinstance(doc.get(section), dict):
            raise ValueError(f"{section} must be an object")
    components = doc["components"]
    for kind, keys in _COMPONENT_KEYS.items():
        sub = components.get(kind)
        if not isinstance(sub, dict):
            raise ValueError(f"components.{kind} missing")
        for key in keys:
            if not isinstance(sub.get(key), (int, float)) \
                    or isinstance(sub.get(key), bool):
                raise ValueError(
                    f"components.{kind}.{key} missing or mistyped")
    # timeseries carries the one non-scalar component payload: the
    # per-window series list (possibly empty when sampling is off).
    series = components["timeseries"].get("series")
    if not isinstance(series, list):
        raise ValueError("components.timeseries.series must be a list")
    for record in series:
        if not isinstance(record, dict) \
                or not isinstance(record.get("window"), int) \
                or not isinstance(record.get("sm_busy"), list):
            raise ValueError(
                "components.timeseries.series[] records need "
                "integer 'window' and list 'sm_busy' keys")
    for key, value in doc["stalls"].items():
        if not isinstance(value, (int, float)):
            raise ValueError(f"stalls.{key} must be numeric")
    trace = doc.get("trace")
    if trace is not None and not isinstance(trace, dict):
        raise ValueError("trace must be an object or null")
    run = doc.get("run")
    if run is not None:
        if not isinstance(run, dict) \
                or not isinstance(run.get("workers"), dict):
            raise ValueError("run.workers must be an object")
        workers = run["workers"]
        for key in _RUN_WORKER_KEYS:
            if not isinstance(workers.get(key), int) \
                    or isinstance(workers.get(key), bool):
                raise ValueError(f"run.workers.{key} missing or "
                                 f"mistyped")


def merge_profiles(docs: list, *, name: str = "suite",
                   workers: dict | None = None) -> dict:
    """Merge per-launch profile documents into one *suite profile*.

    This is how the parallel experiment runner folds the profiles its
    workers captured back into a single document: counters (engine,
    DRAM/PCIe traffic, stalls, component deltas) are summed; rates and
    occupancies are recomputed from the summed totals (occupancies are
    weighted by launch cycles, so a long launch counts for more than a
    short one); per-SM busy cycles are accumulated by SM id.  The
    result is a valid current-schema profile whose ``run.workers``
    section records the fan-out (worker/point/launch/error counts).
    """
    if not docs:
        raise ValueError("merge_profiles needs at least one profile")
    for doc in docs:
        validate_profile(doc)

    total_cycles = sum(d["launch"]["cycles"] for d in docs)
    total_seconds = sum(d["launch"]["seconds"] for d in docs)

    def wmean(getter) -> float:
        """Launch-cycle-weighted mean of a per-launch ratio."""
        if not total_cycles:
            return 0.0
        return sum(getter(d) * d["launch"]["cycles"]
                   for d in docs) / total_cycles

    engine: dict = {}
    stalls: dict = {}
    components: dict = {}
    sm_busy: dict = {}
    for doc in docs:
        for key, value in doc["engine"].items():
            engine[key] = engine.get(key, 0) + value
        for key, value in doc["stalls"].items():
            stalls[key] = stalls.get(key, 0) + value
        for kind, counters in doc["components"].items():
            if kind == "timeseries":
                continue      # concatenated below, not summed
            agg = components.setdefault(kind, {})
            for key, value in counters.items():
                agg[key] = agg.get(key, 0) + value
        for sm in doc["sms"]:
            sm_busy[sm["sm"]] = (sm_busy.get(sm["sm"], 0.0)
                                 + sm["busy_cycles"])

    # Worker time-series streams concatenate (each window keeps its
    # per-launch index and gains a ``launch`` source key) — summing
    # windows across launches would be meaningless.
    from repro.telemetry.timeseries import merge_series
    components["timeseries"] = merge_series(docs)

    # Recompute the derived rates from the summed raw counters.
    tr = components["translation"]
    lookups = tr["tlb_hits"] + tr["tlb_misses"]
    tr["tlb_hit_rate"] = tr["tlb_hits"] / lookups if lookups else 0.0
    ra = components["readahead"]
    ra["hit_rate"] = ra["hits"] / ra["issued"] if ra["issued"] else 0.0
    attr = components["attribution"]
    attr["hidden_fraction"] = (
        attr["translation_hidden"] / attr["translation_cycles"]
        if attr["translation_cycles"] else 0.0)

    dram_bytes = sum(d["dram"]["bytes"] for d in docs)
    dram_queue = sum(d["dram"]["queue_cycles"] for d in docs)
    dram_accesses = sum(d["dram"]["queued_accesses"] for d in docs)
    pcie_busy = sum(d["pcie"]["busy_cycles"] for d in docs)
    total_instr = sum(d["issue"]["instructions_per_cycle"]
                      * d["launch"]["cycles"] for d in docs)

    merged = {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "index": 0,
        "name": name,
        "spec": dict(docs[0]["spec"]),
        "launch": {
            "grid": sum(d["launch"]["grid"] for d in docs),
            "block_threads": max(d["launch"]["block_threads"]
                                 for d in docs),
            "blocks_per_sm": max(d["launch"]["blocks_per_sm"]
                                 for d in docs),
            "cycles": total_cycles,
            "seconds": total_seconds,
        },
        "engine": engine,
        "issue": {
            "slot_utilization": wmean(
                lambda d: d["issue"]["slot_utilization"]),
            "instructions_per_cycle": (total_instr / total_cycles
                                       if total_cycles else 0.0),
        },
        "sms": [{
            "sm": sm,
            "busy_cycles": busy,
            "idle_cycles": max(total_cycles - busy, 0.0),
            "utilization": busy / total_cycles if total_cycles else 0.0,
        } for sm, busy in sorted(sm_busy.items())],
        "dram": {
            "bytes": dram_bytes,
            "transactions": sum(d["dram"]["transactions"]
                                for d in docs),
            "bandwidth_gbs": (dram_bytes / total_seconds / 1e9
                              if total_seconds else 0.0),
            "occupancy": wmean(lambda d: d["dram"]["occupancy"]),
            "queue_cycles": dram_queue,
            "queued_accesses": dram_accesses,
            "mean_queue_cycles": (dram_queue / dram_accesses
                                  if dram_accesses else 0.0),
        },
        "pcie": {
            "bytes": sum(d["pcie"]["bytes"] for d in docs),
            "transactions": sum(d["pcie"]["transactions"]
                                for d in docs),
            "busy_cycles": pcie_busy,
            "occupancy": (pcie_busy / total_cycles
                          if total_cycles else 0.0),
        },
        "stalls": stalls,
        "components": components,
        "trace": None,
        "run": {
            "workers": dict({"count": 1, "jobs": 1, "points": 0,
                             "launches": len(docs), "errors": 0},
                            **(workers or {})),
        },
    }
    validate_profile(merged)
    return merged
