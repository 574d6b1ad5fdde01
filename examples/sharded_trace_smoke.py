"""Cross-shard tracing smoke: jobs=1 == jobs=2, spans end to end.

Runs one apointer-reading cluster on two devices twice — all shards
in-process, then one spawn worker per device — under a tracing,
sampling ``capture()``, and asserts the merged observability surfaces
are bit-identical: trace events (including causal request ids),
cycle-window series, stats, and cycles.  Then validates the merged
schema-v8 profile and drives ``repro-obs spans`` / ``repro-obs attr``
over the written trace.

CI runs this as the sharded-tracing gate.  It is a real file (not a
heredoc) because the ``jobs=2`` leg spawns workers, and spawn
re-imports ``__main__`` — which must therefore be importable.
"""

from __future__ import annotations

import json
import sys
import tempfile

import numpy as np

from repro.core import APConfig, AVM
from repro.gpu import Device, K80_SPEC
from repro.gpu.multigpu import ClusterLaunch, launch_cluster
from repro.telemetry import capture

ITERS = 64          # reads per thread
STRIDE = 128        # bytes between reads: crosses a page every 32
NBYTES = 64 * 1024
WINDOW = 2000.0


def kernel(ctx, avm, src, nbytes):
    ap = avm.gvmmap_device(ctx, src, nbytes)
    yield from ap.seek(ctx, ctx.lane * 4)
    for _ in range(ITERS):
        yield from ap.read(ctx, "f4")
        yield from ap.add(ctx, STRIDE)
    yield from ap.destroy(ctx)


def build():
    launches = []
    for _ in range(2):
        device = Device(spec=K80_SPEC, memory_bytes=8 * 1024 * 1024)
        src = device.alloc(NBYTES)
        device.memory.write(
            src, np.arange(NBYTES // 4, dtype=np.float32))
        avm = AVM(APConfig())
        launches.append(ClusterLaunch(device, kernel, grid=2,
                                      block_threads=64,
                                      args=(avm, src, NBYTES)))
    return launches


def run(jobs):
    """One cluster observed through the ambient profiler: the merged
    launch profile and its merged trace."""
    with capture(trace=True, timeseries=True,
                 window_cycles=WINDOW) as prof:
        result = launch_cluster(build(), jobs=jobs)
    assert result.profile is prof.last
    return result, prof


def event_tuples(tracer):
    return [(e.warp, e.block, e.kind, e.start, e.end, e.detail,
             e.sm, e.req) for e in tracer.events]


def main() -> int:
    serial, serial_prof = run(jobs=1)
    parallel, parallel_prof = run(jobs=2)
    (serial_trace,), (parallel_trace,) = (serial_prof.traces,
                                          parallel_prof.traces)
    serial_series = serial.profile.components["timeseries"]
    assert parallel.cycles == serial.cycles
    assert parallel.stats == serial.stats
    assert event_tuples(parallel_trace) == event_tuples(serial_trace)
    assert parallel_trace.dropped == serial_trace.dropped == 0
    assert json.dumps(parallel.profile.components["timeseries"],
                      sort_keys=True) \
        == json.dumps(serial_series, sort_keys=True)

    reqs = {e.req for e in serial_trace.events if e.req}
    assert reqs, "no request-stamped spans in the merged trace"
    # Request ids rebase to each shard's device prefix.
    assert {r.split(":")[0] for r in reqs} == {"0", "1"}
    print(f"bit-identical at {serial.cycles:.0f} cycles: "
          f"{len(serial_trace.events)} events, "
          f"{len(serial_series['series'])} windows, "
          f"{len(reqs)} causal requests")

    # The merged cluster is one schema-v8 profile whose spans
    # component repro-obs spans / attr can read.
    from repro.telemetry import validate_profile
    from repro.telemetry.cli import main as obs_main

    doc = parallel.profile.to_dict()
    validate_profile(doc)
    assert doc["version"] == 8, doc["version"]
    assert doc["components"]["spans"]["requests"] == len(reqs), \
        doc["components"]["spans"]
    out = tempfile.mkdtemp(prefix="sharded-smoke-")
    parallel_prof.write(out)
    assert obs_main(["spans", out]) == 0
    assert obs_main(["attr", out, "--validate"]) == 0
    print(f"v8 profile validated; repro-obs spans and attr ok ({out})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
