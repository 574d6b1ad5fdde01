"""Cross-shard tracing smoke: one merged cluster trace, spans end to end.

Runs one apointer-reading cluster on two devices under a tracing,
sampling ``capture()`` and checks the merged observability surfaces:
causal request ids rebased to both device prefixes, warp ids unique
across devices, no dropped trace events, and cycle-window series from
both shards.  Then validates the
merged schema-v8 profile and drives ``repro-obs spans`` /
``repro-obs attr`` over the written trace.

CI runs this as the sharded-tracing gate::

    PYTHONPATH=src python examples/sharded_trace_smoke.py
"""

from __future__ import annotations

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


def main() -> int:
    # One cluster observed through the ambient profiler: the merged
    # launch profile and its merged trace.
    with capture(trace=True, timeseries=True,
                 window_cycles=WINDOW) as prof:
        result = launch_cluster(build())
    assert result.profile is prof.last
    (trace,) = prof.traces
    series = result.profile.components["timeseries"]
    assert trace.dropped == 0
    assert {w["shard"] for w in series["series"]} == {0, 1}

    # Each device numbers its warps from 0; the merge keeps the
    # cluster's 8 warps (2 devices x 2 blocks x 2 warps) apart.
    from repro.telemetry.attribution import attribute_tracer

    tracks = {(e.sm, e.warp) for e in trace.events if e.sm >= 0}
    report = attribute_tracer(trace).to_dict()
    assert (len(tracks), report["warps"], report["sms"]) == (8, 8, 4), \
        (len(tracks), report["warps"], report["sms"])

    reqs = {e.req for e in trace.events if e.req}
    assert reqs, "no request-stamped spans in the merged trace"
    # Request ids rebase to each shard's device prefix.
    assert {r.split(":")[0] for r in reqs} == {"0", "1"}
    print(f"merged at {result.cycles:.0f} cycles: "
          f"{len(trace.events)} events, "
          f"{len(series['series'])} windows, "
          f"{len(reqs)} causal requests")

    # The merged cluster is one schema-v8 profile whose spans
    # component repro-obs spans / attr can read.
    from repro.telemetry import validate_profile
    from repro.telemetry.cli import main as obs_main

    doc = result.profile.to_dict()
    validate_profile(doc)
    assert doc["version"] == 8, doc["version"]
    assert doc["components"]["spans"]["requests"] == len(reqs), \
        doc["components"]["spans"]
    with tempfile.TemporaryDirectory(prefix="sharded-smoke-") as out:
        prof.write(out)
        assert obs_main(["spans", out]) == 0
        assert obs_main(["attr", out, "--validate"]) == 0
    print("v8 profile validated; repro-obs spans and attr ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
