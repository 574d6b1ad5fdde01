"""Shared helpers for the benchmark suite.

Each ``bench_*`` module regenerates one of the paper's tables or
figures at ``quick`` scale, attaches the reproduced rows (paper value
vs. measured value) to ``benchmark.extra_info``, and asserts the shape
properties the paper reports.  Run with::

    pytest benchmarks/ --benchmark-only
    pytest benchmarks/ --benchmark-only --jobs 4   # parallel points

``--jobs N`` fans each experiment's parameter grid out over N worker
processes (:mod:`repro.harness.runner`); rows are identical to a
serial run (deterministic per-point seeding), only the wall time
changes.

The timed quantity is the wall time of the simulation itself; the
scientific payload is in ``extra_info`` and in the assertions.
"""

import json

import repro.harness.experiments  # noqa: F401  (populates REGISTRY)
from repro.harness.registry import REGISTRY, Experiment
from repro.harness.runner import ExperimentPointError
from repro.harness.runner import run_experiment as _run_points

_JOBS = 1


def pytest_addoption(parser):
    parser.addoption(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per experiment grid "
             "(default: 1 = serial; 0 = one per core)")


def pytest_configure(config):
    global _JOBS
    _JOBS = config.getoption("--jobs")


def run_experiment(benchmark, experiment, **kwargs):
    """Time one experiment run and attach its rows to the report.

    ``experiment`` is a registry id (``"table1"``) or an
    :class:`Experiment`.  Runs honour the suite-wide ``--jobs``
    option; a crashed grid point raises (a benchmark must not silently
    bless partial results).
    """
    exp = (experiment if isinstance(experiment, Experiment)
           else REGISTRY[experiment])
    scale = kwargs.pop("scale", "quick")
    options = kwargs or None

    def run():
        report = _run_points(exp, scale=scale, jobs=_JOBS,
                             options=options, progress=False)
        if report.result.errors:
            raise ExperimentPointError(exp.name, report.result.errors)
        return report.result

    result = benchmark.pedantic(run, rounds=1, iterations=1,
                                warmup_rounds=0)
    benchmark.extra_info["jobs"] = _JOBS
    benchmark.extra_info["experiment"] = result.exp_id
    benchmark.extra_info["rows"] = json.loads(json.dumps(result.rows))
    return result
