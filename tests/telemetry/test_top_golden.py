"""Golden ``repro-obs top --once`` render: the live dashboard pinned
across changes to the live-directory file format.

``golden_top.txt`` (next to this file) is the text one
:class:`~repro.telemetry.top.Dashboard` renders after a single
``poll()`` of a live directory that a real run just wrote:
``ablation_readahead`` at quick scale, serial, sampled every 20 000
cycles, every window heartbeat kept.  The render covers the per-SM
bars, the page-cache and readahead hit bars, DRAM and PCIe throughput
and the component gauges.  The worker pid, the only host-dependent
field, is replaced by ``<pid>``.

The golden is produced by *running* the experiment, not from recorded
files, so it holds however the live files are laid out on disk.

Regenerate with ``PYTHONPATH=src:. python
tests/telemetry/test_top_golden.py`` — only in a change that says why
the dashboard text moved.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import repro.harness.experiments  # noqa: F401  (populates REGISTRY)
from repro.harness.registry import REGISTRY
from repro.harness.runner import Instrumentation, LiveOptions, run_experiment
from repro.telemetry.top import Dashboard

GOLDEN = Path(__file__).with_name("golden_top.txt")

WINDOW_CYCLES = 20_000.0


def render_top() -> str:
    """Run ``ablation_readahead`` live into a fresh directory and
    return the dashboard's first frame, pid masked."""
    with tempfile.TemporaryDirectory() as live_dir:
        live = LiveOptions(live_dir=live_dir, window_cycles=WINDOW_CYCLES,
                           heartbeat_interval=0.0)
        report = run_experiment(REGISTRY["ablation_readahead"], jobs=1,
                                progress=False,
                                instrument=Instrumentation(live=live))
        assert report.ok
        dash = Dashboard(live_dir)
        dash.poll()
        text = dash.render()
    return text.replace(f"pid {os.getpid()}", "pid <pid>") + "\n"


def test_top_render_matches_golden():
    assert render_top() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render_top())
    print(f"wrote {GOLDEN}")
