"""Experiment harness: regenerate every table and figure of the paper.

The harness is a declarative registry (:mod:`repro.harness.registry`)
of :class:`Experiment` descriptors — each one a parameter grid plus a
module-level point function — executed by the parallel runner
(:mod:`repro.harness.runner`, ``repro-experiments --jobs N``).
``repro-experiments`` (:mod:`repro.harness.cli`) runs them and renders
text tables next to the paper's published values.

Run an experiment with ``run_experiment(REGISTRY[name])``; it is the
only entry point.
"""

import repro.harness.experiments  # noqa: F401  (populates REGISTRY)
from repro.harness.registry import (
    REGISTRY,
    Column,
    Experiment,
    ExperimentResult,
    experiment,
)
from repro.harness.reporting import format_result
from repro.harness.runner import (
    ExperimentPointError,
    Instrumentation,
    RunReport,
    point_seed,
    run_experiment,
)

__all__ = [
    "Column",
    "Experiment",
    "ExperimentPointError",
    "ExperimentResult",
    "Instrumentation",
    "REGISTRY",
    "RunReport",
    "experiment",
    "point_seed",
    "run_experiment",
    "format_result",
]
