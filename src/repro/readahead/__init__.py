"""Asynchronous page readahead for the GPUfs paging stack.

The paper's file-backed workloads (§V–§VI) pay a host RPC plus a PCIe
DMA for every cold page; fault-time batching
(:class:`~repro.paging.staging.TransferBatcher`) amortises the fixed
cost but the latency still lands on the faulting warp.  This package
adds the mechanism real GPUfs-style systems (and every data pipeline)
use to hide it: **speculative page-granularity readahead** —
application-invisible, off by default, and wired behind
``GPUfsConfig(readahead=True)``.

* :class:`~repro.readahead.stream.StreamDetector` — recognises
  sequential and strided access streams from the fault address
  sequence, one stream per (file, warp) with LRU recycling;
* :class:`~repro.readahead.engine.ReadaheadEngine` — the host-side
  daemon: issues background page-ins through the shared transfer
  batching window, with adaptive per-stream windows and polite
  page-cache integration (non-blocking allocation, low-priority
  frames, promotion on first touch);
* :class:`~repro.readahead.engine.ReadaheadStats` — issued / hits /
  wasted / cancelled counters plus a window histogram, exported
  through ``repro.telemetry`` LaunchProfiles.

See ``docs/paging.md`` for the full paging-stack walkthrough and the
counter glossary.
"""

from repro.readahead.engine import ReadaheadEngine, ReadaheadStats
from repro.readahead.stream import Stream, StreamDetector

__all__ = [
    "ReadaheadEngine",
    "ReadaheadStats",
    "Stream",
    "StreamDetector",
]
