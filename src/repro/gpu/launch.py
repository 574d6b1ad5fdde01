"""Engine launch hooks: :class:`EngineHooks`.

:class:`EngineHooks` bundles the two instrumentation hooks a launch can
carry — the Chrome-trace tracer and the
:class:`~repro.gpu.engine.EngineProfile` observer, which may window its
counters into a time series — into one object passed as
``Engine(..., hooks=...)``.  Instrumented and uninstrumented launches
are cycle-bit-identical; the engine only ever tests each hook against
``None``.

The module does not import the engine, so the bundle is cheap to build
in caller modules without circular imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass
class EngineHooks:
    """Every instrumentation hook one launch can carry, in one bundle.

    Both fields default to ``None`` (= off); a launch with the null
    bundle pays one pointer test per hook per event and nothing else.

    * ``tracer`` — Chrome-trace event recorder
      (:class:`repro.gpu.trace.Tracer`); also drives the attribution
      overlay of :mod:`repro.telemetry.attribution`.
    * ``profile`` — :class:`repro.gpu.engine.EngineProfile` deep
      per-launch counters (per-SM busy, stall mix, DRAM queueing); a
      :class:`repro.telemetry.timeseries.TimeseriesSampler` also
      buckets them into cycle windows.
    """

    tracer: Any = None
    profile: Any = None


__all__ = ["EngineHooks"]
