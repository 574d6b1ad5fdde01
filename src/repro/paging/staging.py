"""Host-to-GPU transfer staging and batching.

With small 4 KB pages, the fixed per-transaction cost of a PCIe DMA
dominates the transfer itself.  GPUfs therefore batches: "upon every
request to read from a file, the system aggregates several host-to-GPU
transfers on the host, and then issues a single call to copy data into
the GPU staging area" (§V).  GPU threads then move the bytes from the
staging area into their page-cache frames.

The batcher models that aggregation window: a fetch that arrives while a
batch window is open joins it and pays only its share of PCIe bandwidth;
the first fetch of a window pays the fixed transaction cost too.  The
copy from staging to the frame is a real device-to-device move — the
fetched bytes land in a staging slot and a warp-wide timed copy
(:meth:`~repro.gpu.kernel.WarpContext.copy`) carries them into the page
frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.kernel import WarpContext


@dataclass
class BatcherStats:
    transfers: int = 0
    batches: int = 0
    bytes_moved: int = 0
    #: Of ``transfers``, how many were speculative (readahead daemon).
    speculative: int = 0
    #: Times a fetch had to wait for a staging slot to free up.
    slot_waits: int = 0

    def mean_batch_size(self) -> float:
        return self.transfers / self.batches if self.batches else 0.0


class TransferBatcher:
    """Aggregates concurrent host->GPU page transfers into DMA batches."""

    #: Most transfers one DMA batch aggregates.
    MAX_BATCH = 64
    #: The host daemon keeps collecting requests for this long after a
    #: batch opens before issuing the DMA (§V batching).
    AGGREGATION_CYCLES = 4000.0

    def __init__(self, device, page_size: int, enabled: bool = True):
        self._device = device
        self.page_size = page_size
        self.enabled = enabled
        self.stats = BatcherStats()
        # Staging ring: sized so slot reuse is rare, with per-slot
        # busy tracking so an in-flight copy is never clobbered even
        # when concurrent fetches outnumber the slots.
        self.num_slots = self.MAX_BATCH * 4
        self.staging_base = device.alloc(self.num_slots * page_size)
        self._next_slot = 0
        self._slot_busy = [False] * self.num_slots
        self._window_end = -1.0
        self._window_count = 0

    #: Spin interval while every staging slot holds an in-flight copy.
    SLOT_RETRY_CYCLES = 400.0

    @property
    def spec(self):
        """The device's current spec (respects later overrides)."""
        return self._device.spec

    def ring_utilization(self) -> float:
        """Fraction of staging-ring slots holding an in-flight copy."""
        return sum(self._slot_busy) / self.num_slots

    def gauges(self) -> dict:
        """Instantaneous-level probes for the time-series sampler."""
        return {
            "staging.ring_utilization": self.ring_utilization,
            "staging.busy_slots":
                lambda: float(sum(self._slot_busy)),
        }

    def fetch(self, ctx: WarpContext, handle, file_offset: int,
              nbytes: int, dst_addr: int):
        """Timed: read ``nbytes`` at ``file_offset`` of ``handle`` into
        device memory at ``dst_addr``, via the staging area."""
        if nbytes > self.page_size:
            raise ValueError("fetch larger than a page")
        data = handle.pread(file_offset, nbytes)
        self.stats.transfers += 1
        self.stats.bytes_moved += nbytes
        t0 = ctx.now
        joined = (self.enabled
                  and ctx.now <= self._window_end
                  and self._window_count < self.MAX_BATCH)
        if joined:
            # Ride the batch the host daemon is already assembling: no
            # host RPC handling cost, just DMA latency and bandwidth.
            self._window_count += 1
            self._window_end += nbytes / self.spec.pcie_bytes_per_cycle()
            yield from ctx.pcie(nbytes, to_device=True, latency_free=True)
            yield from ctx.sleep(self.spec.pcie_latency_cycles(),
                                 io_wait=True)
        else:
            # Open a new batch: pay the host daemon's per-RPC handling
            # (serialises on the host CPU — the Figure 1 bottleneck),
            # then the DMA itself.
            self.stats.batches += 1
            self._window_count = 1
            self._window_end = (ctx.now + self.AGGREGATION_CYCLES
                                + self.spec.pcie_latency_cycles()
                                + nbytes / self.spec.pcie_bytes_per_cycle())
            yield from ctx.host_compute(self.spec.host_rpc_s)
            yield from ctx.pcie(nbytes, to_device=True)
        slot = yield from self._claim_slot(ctx, data, nbytes)
        try:
            # Exact as one run: nothing reads the busy slot or the
            # not-ready frame between the copy's steps.
            yield from ctx.copy(self._slot_addr(slot), dst_addr, nbytes)
        finally:
            self._slot_busy[slot] = False
        if ctx.tracer is not None:
            ctx.trace_span("pcie_staging", t0, ctx.now,
                           f"bytes={nbytes} "
                           f"{'joined' if joined else 'batch'}")

    def fetch_async(self, now: float, handle, file_offset: int,
                    nbytes: int, dst_addr: int) -> float:
        """Speculative daemon-side fetch; returns its completion time.

        Called by the readahead engine: no warp is charged — the cost
        lives entirely in the returned ``done_at`` timestamp.  The
        request shares the demand path's batching window, so
        speculative and demand transfers coalesce into the same DMA
        batches (a speculative fetch landing inside an open window
        rides it; one landing outside opens a window that subsequent
        demand fetches can join).  The daemon's staging-to-frame copy
        is folded into the completion time rather than claiming a ring
        slot, since no warp performs it.
        """
        if nbytes > self.page_size:
            raise ValueError("fetch larger than a page")
        data = handle.pread(file_offset, nbytes)
        self.stats.transfers += 1
        self.stats.speculative += 1
        self.stats.bytes_moved += nbytes
        spec = self.spec
        dma_cycles = nbytes / spec.pcie_bytes_per_cycle()
        if (self.enabled and now <= self._window_end
                and self._window_count < self.MAX_BATCH):
            self._window_count += 1
            self._window_end += dma_cycles
            done_at = now + spec.pcie_latency_cycles() + dma_cycles
        else:
            self.stats.batches += 1
            self._window_count = 1
            self._window_end = (now + self.AGGREGATION_CYCLES
                                + spec.pcie_latency_cycles()
                                + dma_cycles)
            done_at = (now + spec.host_rpc_s * spec.clock_hz
                       + spec.pcie_latency_cycles() + dma_cycles)
        if data.size < nbytes:
            padded = np.zeros(nbytes, dtype=np.uint8)
            padded[:data.size] = data
            data = padded
        self._device.memory.write(dst_addr, data)
        return done_at

    def writeback(self, ctx: WarpContext, handle, file_offset: int,
                  src_addr: int, nbytes: int, data=None):
        """Timed: flush a dirty page back to the host file.

        ``data`` overrides the frame contents — used when a page-out
        filter transformed the bytes without touching the resident copy.
        """
        if data is None:
            data = ctx.memory.read(src_addr, nbytes).copy()
        handle.pwrite(file_offset, data)
        self.stats.transfers += 1
        self.stats.bytes_moved += nbytes
        yield from ctx.pcie(nbytes, to_device=False)

    # ------------------------------------------------------------------
    def _slot_addr(self, slot: int) -> int:
        return self.staging_base + slot * self.page_size

    def _claim_slot(self, ctx: WarpContext, data: np.ndarray,
                    nbytes: int):
        """Timed: claim a free staging slot and land the DMA bytes.

        The slot stays busy until the claimant's staging-to-frame copy
        completes, so a burst of concurrent fetches larger than the
        ring can never clobber an in-flight slot — late arrivals wait
        for a slot to free instead.
        """
        while True:
            for i in range(self.num_slots):
                slot = (self._next_slot + i) % self.num_slots
                if self._slot_busy[slot]:
                    continue
                self._next_slot = (slot + 1) % self.num_slots
                self._slot_busy[slot] = True
                if data.size < nbytes:
                    padded = np.zeros(nbytes, dtype=np.uint8)
                    padded[:data.size] = data
                    data = padded
                # The DMA landing in staging.
                ctx.memory.write(self._slot_addr(slot), data)
                return slot
            self.stats.slot_waits += 1
            yield from ctx.sleep(self.SLOT_RETRY_CYCLES, io_wait=True)
