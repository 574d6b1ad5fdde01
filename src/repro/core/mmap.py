"""Virtual memory management: gvmmap() and mapping backends.

:class:`AVM` (*active virtual memory*) is the management layer a GPU
program talks to: ``gvmmap`` maps a file region (through GPUfs) or a raw
device-memory region and returns an :class:`~repro.core.apointer.APtr`.

Two backends implement the paging side of a mapping:

* :class:`GPUfsBackend` — the real thing: faults go to the GPUfs page
  cache, pages are transferred from the host on major faults, and
  reference counts protect active pages (§V).
* :class:`DirectBackend` — a linear mapping over GPU global memory with
  no page cache.  Faults only re-derive the aphysical address.  This is
  the configuration of the paper's §VI-A/§VI-B microbenchmarks, which
  measure pure translation overhead "with apointers initialized to map a
  region in the GPU global memory" and GPUfs excluded.
"""

from __future__ import annotations

from typing import Optional

from repro.core.apointer import APtr
from repro.core.config import APConfig
from repro.core.metrics import APStats
from repro.core.tlb import SoftwareTLB
from repro.gpu.kernel import WarpContext
from repro.paging.gpufs import GPUfs, PROT_READ, PROT_WRITE
from repro.telemetry import hooks as telemetry_hooks

#: Instructions a direct-backend "fault" costs: recompute base + offset.
DIRECT_FAULT_INSTRS = 8


class DirectBackend:
    """Linear mapping over raw device memory (no page cache)."""

    def __init__(self, base: int, size: int, page_size: int = 4096):
        self.base = base
        self.size = size
        self.page_size = page_size
        self.file_id = -1            # no file behind this mapping
        self.paged = False           # no page cache: faults are address math
        self.minor_faults = 0

    def fault(self, ctx: WarpContext, xpage: int, refs: int, write: bool):
        """Timed: trivially resolve a page — address arithmetic only."""
        self.minor_faults += 1
        ctx.charge(DIRECT_FAULT_INSTRS)
        addr = self.base + xpage * self.page_size
        if addr >= self.base + self.size:
            raise ValueError(
                f"page {xpage} outside mapped region of {self.size} bytes")
        return addr
        yield  # pragma: no cover - generator marker

    def release(self, ctx: WarpContext, xpage: int, refs: int):
        """No reference counting for unpaged device memory."""
        return
        yield  # pragma: no cover - generator marker


class GPUfsBackend:
    """File mapping backed by the GPUfs page cache."""

    def __init__(self, gpufs: GPUfs, file_id: int, write: bool = False):
        self.gpufs = gpufs
        self.file_id = file_id
        self.page_size = gpufs.page_size
        self.paged = True
        self.writable = write

    def fault(self, ctx: WarpContext, xpage: int, refs: int, write: bool):
        """Timed: resolve through the page cache (minor or major)."""
        return (yield from self.gpufs.handle_fault(
            ctx, self.file_id, xpage, refs=refs, write=write))

    def release(self, ctx: WarpContext, xpage: int, refs: int):
        yield from self.gpufs.release_page(ctx, self.file_id, xpage,
                                           refs=refs)


class AVM:
    """Active virtual memory manager: creates and destroys apointers."""

    def __init__(self, config: APConfig = APConfig(),
                 gpufs: Optional[GPUfs] = None):
        self.config = config
        self.gpufs = gpufs
        self.stats = APStats()
        profiler = telemetry_hooks.current()
        if profiler is not None:
            profiler.register("translation", self.stats)

    # ------------------------------------------------------------------
    def gvmmap(self, ctx: WarpContext, size: int, fid: int,
               foffset: int = 0, write: bool = False,
               prot: Optional[int] = None) -> APtr:
        """Map ``size`` bytes of file ``fid`` at ``foffset``.

        Mirrors the paper's Figure 3: returns an initialized, *unlinked*
        apointer — the first dereference will fault.  Not timed beyond
        pointer construction: the mapping itself only records metadata.

        ``prot`` is a ``PROT_READ`` / ``PROT_WRITE`` bitmask; when
        omitted it is derived from the legacy ``write`` boolean.  A
        ``PROT_WRITE`` mapping requires the fd to be writable — checked
        here, at map time, not when write-back finally fails.
        """
        if self.gpufs is None:
            raise RuntimeError("this AVM has no GPUfs layer for files")
        if foffset % self.gpufs.page_size:
            raise ValueError("gvmmap offset must be page-aligned")
        if prot is None:
            prot = PROT_READ | (PROT_WRITE if write else 0)
        writable = bool(prot & PROT_WRITE)
        if writable and not self.gpufs.handle_for(fid).writable:
            raise ValueError(
                f"PROT_WRITE gvmmap of read-only fd {fid}")
        backend = GPUfsBackend(self.gpufs, fid, write=writable)
        return APtr(ctx, self, backend, base_offset=foffset, size=size,
                    write=writable)

    def gvmmap_device(self, ctx: WarpContext, base: int, size: int,
                      page_size: int = 4096, write: bool = True) -> APtr:
        """Map a raw device-memory region (microbenchmark backend)."""
        backend = DirectBackend(base, size, page_size)
        return APtr(ctx, self, backend, base_offset=0, size=size,
                    write=write)

    def gvmunmap(self, ctx: WarpContext, aptr: APtr):
        """Timed: unlink the pointer and drop its references."""
        yield from aptr.destroy(ctx)

    # ------------------------------------------------------------------
    # TLB management (per threadblock)
    # ------------------------------------------------------------------
    def tlb_for(self, ctx: WarpContext) -> Optional[SoftwareTLB]:
        """The calling block's TLB (created on first use), or ``None``."""
        if not self.config.use_tlb:
            return None
        shared = ctx.block.shared
        if "ap_tlb" not in shared:
            shared["ap_tlb"] = SoftwareTLB(
                self.config.tlb_entries,
                self.config.tlb_entry_bytes(),
                ctx.block.scratchpad,
                stats=self.stats,
            )
        return shared["ap_tlb"]

    def drain_tlb(self, ctx: WarpContext, backend):
        """Timed: release the block TLB's cached global pins.

        Models the threadblock-teardown flush; benchmark kernels call it
        once per block before exiting.
        """
        tlb = ctx.block.shared.get("ap_tlb")
        if tlb is None:
            return
        released = yield from tlb.drain(ctx)
        for (file_id, xpage), held in released:
            if held:
                yield from backend.release(ctx, xpage, held)
