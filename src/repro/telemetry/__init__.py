"""Unified telemetry for the simulated stack.

Every layer of the reproduction keeps counters — ``APStats`` in the
translation layer, ``PagingStats`` in GPUfs, ``EngineStats`` in the
scheduler, the :class:`~repro.gpu.trace.Tracer` event log.  This package
turns them into one structured, exportable view of a launch:

* :class:`Profiler` / :func:`capture` — observe launches and reduce each
  to a :class:`LaunchProfile` (per-SM utilisation, DRAM/PCIe occupancy,
  stall-reason breakdown, component counter deltas).
* :class:`MetricsRegistry` — aggregates component stats objects and
  snapshots per-launch deltas.
* ``Tracer.to_chrome_trace()`` — Chrome ``trace_event`` export, loadable
  in Perfetto, with paging spans (page-in, fault filters, warp fault
  handling) on the timeline next to the engine's macro-ops.
* :func:`validate_profile` — schema check for the profile JSON.
* :func:`attribute_tracer` / :func:`attribute_events` — the cycle
  attribution analyzer (:mod:`repro.telemetry.attribution`): per-warp
  stall accounting, the launch critical path, and the hidden-vs-exposed
  decomposition of translation cycles (``repro-obs attr``).
* :class:`SpillWriter` / :func:`read_jsonl` — the one on-disk series
  format (a header line, then stamped records) of live series files.
* :mod:`repro.telemetry.trend` — the append-only ``BENCH_trend.json``
  performance record and the ``repro-obs trend`` regression gate.

See ``docs/observability.md`` for the counter glossary and a worked
diagnosis example.
"""

from repro.telemetry import hooks
from repro.telemetry.attribution import (
    AttributionReport,
    TruncatedTraceError,
    attribute_chrome_trace,
    attribute_events,
    attribute_tracer,
)
from repro.telemetry.profile import (
    PROFILE_SCHEMA,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    LaunchProfile,
    MetricsRegistry,
    merge_profiles,
    validate_profile,
)
from repro.telemetry.profiler import Profiler, capture, write_profile_docs
from repro.telemetry.timeseries import (
    DEFAULT_WINDOW_CYCLES,
    SpillWriter,
    TimeseriesSampler,
    merge_series,
    read_jsonl,
)
from repro.telemetry.trend import append_run, compare, load_trend

__all__ = [
    "AttributionReport",
    "DEFAULT_WINDOW_CYCLES",
    "LaunchProfile",
    "MetricsRegistry",
    "Profiler",
    "PROFILE_SCHEMA",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SpillWriter",
    "TimeseriesSampler",
    "TruncatedTraceError",
    "append_run",
    "attribute_chrome_trace",
    "attribute_events",
    "attribute_tracer",
    "capture",
    "compare",
    "hooks",
    "load_trend",
    "merge_profiles",
    "merge_series",
    "read_jsonl",
    "validate_profile",
    "write_profile_docs",
]
