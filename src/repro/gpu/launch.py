"""Consolidated engine launch API: :class:`LaunchPlan` + :class:`EngineHooks`.

These two small value objects replace the keyword-argument sprawl that
the engine's constructor and entry points accumulated PR over PR:

* :class:`EngineHooks` bundles the two instrumentation hooks a launch
  can carry — the Chrome-trace tracer and the
  :class:`~repro.gpu.engine.EngineProfile` observer, which may window
  its counters into a time series — into one object passed as
  ``Engine(..., hooks=...)``.  Instrumented and uninstrumented
  launches are cycle-bit-identical; the engine only ever tests each
  hook against ``None``.
* :class:`LaunchPlan` describes *what* to run: one list of block
  factories per device.  ``Engine.launch(plan)`` is the single entry
  point.

Neither class imports the engine, so they are cheap to construct and
safe to build in caller modules without circular imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence


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


@dataclass
class LaunchPlan:
    """What one engine launch executes.

    ``groups`` holds one list of block factories per device (device *d*
    runs ``groups[d]`` on its own SMs and DRAM); a single-device launch
    uses :meth:`LaunchPlan.single`.  Each factory is a zero-argument
    callable returning ``(BlockContext, [warp generators])``.
    """

    groups: Sequence[Sequence[Callable]]

    def __post_init__(self):
        if callable(self.groups):
            raise TypeError(
                "LaunchPlan.groups must be a per-device list of block "
                "factory lists, not a callable")
        for group in self.groups:
            if callable(group):
                raise TypeError(
                    "LaunchPlan.groups is nested — one factory list "
                    "per device; for a single device use "
                    "LaunchPlan.single(factories)")

    @classmethod
    def single(cls, factories: Sequence[Callable]) -> "LaunchPlan":
        """Plan a one-device launch from a flat factory list."""
        return cls(groups=[list(factories)])

    @property
    def num_groups(self) -> int:
        return len(self.groups)


__all__ = ["EngineHooks", "LaunchPlan"]
