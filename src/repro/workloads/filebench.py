"""Page-cache benchmarks: workloads over memory-mapped files.

These drive the experiments of §VI-C and §VI-D:

* :func:`run_workload_file` — the §VI-D compute workloads reading their
  input through the GPUfs page cache, either via the original
  ``gmmap()`` page-granularity API (baseline) or via apointers over a
  ``gvmmap``-ed file.  Each warp reads one coalesced 128-byte line per
  iteration, so a page fault occurs once per 32 accesses, as in the
  paper.
* :func:`run_pagefault_bench` — the §VI-C page-fault microbenchmark:
  each warp walks many distinct pages; run once on a cold cache (major
  faults) and again warm (minor faults).
* :func:`run_tlb_sweep_point` — the Figure 7 kernel: one threadblock of
  32 warps reading with a controlled page-reuse rate, for a given TLB
  configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import APConfig, AVM
from repro.gpu import Device
from repro.gpu.kernel import WarpContext
from repro.host import HostFileSystem
from repro.host.filesys import O_RDONLY
from repro.host.ramfs import RamFS
from repro.paging import GPUfs, GPUfsConfig
from repro.workloads.base import LOOP_INSTRS, Workload, WorkloadRun


def make_file_env(total_bytes: int, *, page_size: int = 4096,
                  num_frames: int = 1024,
                  memory_bytes: int = 256 * 1024 * 1024,
                  batching: bool = True,
                  eviction_policy: str = "clock",
                  readahead: bool = False,
                  sanitize: bool = False,
                  flags: int = O_RDONLY,
                  data: Optional[np.ndarray] = None,
                  seed: int = 7) -> tuple[Device, GPUfs, int, np.ndarray]:
    """Create a device + GPUfs + RAMfs file filled with random floats.

    ``data`` overrides the default random-float fill (it is viewed as
    bytes, so any dtype works); ``flags`` is passed to the GPUfs open —
    the write-capable workloads open with ``O_RDWR``.
    """
    if data is None:
        rng = np.random.RandomState(seed)
        data = rng.uniform(0.25, 4.0, total_bytes // 4).astype(np.float32)
    fs = RamFS()
    fs.create("bench", data.reshape(-1).view(np.uint8))
    device = Device(memory_bytes=memory_bytes)
    gpufs = GPUfs(device, HostFileSystem(fs),
                  GPUfsConfig(page_size=page_size, num_frames=num_frames,
                              batching=batching,
                              eviction_policy=eviction_policy,
                              readahead=readahead,
                              sanitize=sanitize))
    fid = gpufs.open("bench", flags)
    return device, gpufs, fid, data


def warm_page_cache(device: Device, gpufs: GPUfs, fid: int,
                    npages: int) -> None:
    """Fault every page in, so a following run sees only minor faults."""

    nwarps = 32

    def kern(ctx: WarpContext):
        for p in range(ctx.warp_id, npages, nwarps):
            yield from gpufs.gmmap(ctx, fid, p * gpufs.page_size)
            yield from gpufs.gmunmap(ctx, fid, p * gpufs.page_size)

    device.launch(kern, grid=1, block_threads=nwarps * 32)


def run_workload_file(workload: Workload, *, use_apointers: bool,
                      nblocks: int, warps_per_block: int = 32,
                      iters_per_thread: int = 32,
                      config: Optional[APConfig] = None,
                      num_frames: Optional[int] = None,
                      warm: bool = True,
                      seed: int = 7) -> WorkloadRun:
    """§VI-D: a compute workload reading a memory-mapped file.

    With ``warm=True`` the page cache is pre-populated so all faults are
    minor; otherwise the first touch of each page is a major fault.
    """
    threads = nblocks * warps_per_block * 32
    total_floats = threads * iters_per_thread
    total_bytes = total_floats * 4
    npages = -(-total_bytes // 4096)
    frames = num_frames if num_frames is not None else npages + 64
    device, gpufs, fid, data = make_file_env(
        total_bytes, num_frames=frames, seed=seed)
    if warm:
        warm_page_cache(device, gpufs, fid, npages)
        gpufs.stats.minor_faults = 0
        gpufs.stats.major_faults = 0
    out = device.alloc(threads * 4)
    cfg = config if config is not None else APConfig()
    avm = AVM(cfg, gpufs=gpufs)
    stride = 32 * 4
    chunk = iters_per_thread * stride
    page = gpufs.page_size

    def kernel(ctx: WarpContext):
        acc = np.zeros(ctx.warp_size, dtype=np.float64)
        base = ctx.warp_id * chunk
        if use_apointers:
            ptr = avm.gvmmap(ctx, total_bytes, fid)
            yield from ptr.seek(ctx, base + ctx.lane * 4)
            for i in range(iters_per_thread):
                vals = yield from ptr.read(ctx, "f4")
                ctx.charge(LOOP_INSTRS)
                acc = workload.consume(
                    ctx, vals.astype(np.float64), acc)
                if use_apointers and workload.apointer_artifact_instrs:
                    ctx.charge(workload.apointer_artifact_instrs,
                               chain=workload.apointer_artifact_instrs)
                yield from ptr.add(ctx, stride)
            yield from ptr.destroy(ctx)
            if cfg.use_tlb:
                yield from ctx.syncthreads()
                if ctx.warp_in_block == 0:
                    yield from avm.drain_tlb(ctx, ptr.backend)
        else:
            mapped_page = -1
            addr = 0
            for i in range(iters_per_thread):
                pos = base + i * stride
                p = pos // page
                if p != mapped_page:
                    if mapped_page >= 0:
                        yield from gpufs.gmunmap(ctx, fid,
                                                 mapped_page * page)
                    addr = yield from gpufs.gmmap(ctx, fid, p * page)
                    mapped_page = p
                ctx.charge(2, chain=2)
                vals = yield from ctx.load(
                    addr + (pos % page) + ctx.lane * 4, "f4")
                ctx.charge(LOOP_INSTRS)
                acc = workload.consume(
                    ctx, vals.astype(np.float64), acc)
            if mapped_page >= 0:
                yield from gpufs.gmunmap(ctx, fid, mapped_page * page)
        yield from ctx.store(out + ctx.global_tid * 4,
                             acc.astype(np.float32), "f4")

    result = device.launch(kernel, grid=nblocks,
                           block_threads=warps_per_block * 32,
                           scratchpad_bytes=cfg.tlb_bytes())
    got = device.memory.read(out, threads * 4).view(np.float32)
    warps = threads // 32
    arr = data.reshape(warps, iters_per_thread, 32, 1)
    per_thread = arr.transpose(1, 0, 2, 3).reshape(
        iters_per_thread, threads, 1)
    expect = workload.expected(per_thread)
    verified = bool(np.allclose(got, expect.astype(np.float32),
                                rtol=1e-4, atol=1e-4))
    return WorkloadRun(
        workload=workload.name,
        use_apointers=use_apointers,
        cycles=result.cycles,
        seconds=result.seconds,
        verified=verified,
        dram_bytes=result.stats.dram_bytes,
        instructions=result.stats.instructions,
    )


# ----------------------------------------------------------------------
# Sequential streaming read (readahead ablation workload)
# ----------------------------------------------------------------------
@dataclass
class SequentialReadResult:
    """One cold-cache sequential read, with readahead counters."""

    readahead: bool
    cycles: float
    seconds: float
    verified: bool
    major_faults: int
    minor_faults: int
    ra_issued: int = 0
    ra_hits: int = 0
    ra_inflight_hits: int = 0
    ra_wasted: int = 0
    ra_cancelled: int = 0
    batches: int = 0
    transfers: int = 0


def run_sequential_file_read(*, npages: int, warps: int = 32,
                             copy_pages: bool = False,
                             readahead: bool = False,
                             eviction_policy: str = "clock",
                             num_frames: Optional[int] = None,
                             seed: int = 13) -> SequentialReadResult:
    """Cold-cache sequential file read — the readahead ablation workload.

    Each warp streams a contiguous chunk of ``npages // warps`` pages in
    file order through ``gmmap()``, the filebench "sequential read"
    pattern the readahead stream detector is built for.  With
    ``copy_pages`` each warp copies every page to an output buffer
    (file-memcpy); otherwise it reads one coalesced 128-byte line per
    page.  Either way the output is verified against the file contents,
    so a readahead bug that serves stale or wrong bytes fails loudly.
    """
    if npages % warps:
        raise ValueError("npages must divide evenly among warps")
    if warps > 32 and warps % 32:
        raise ValueError("warps beyond one block must fill blocks of 32")
    total_bytes = npages * 4096
    frames = num_frames if num_frames is not None else npages + 32
    device, gpufs, fid, data = make_file_env(
        total_bytes, num_frames=frames,
        memory_bytes=(frames + npages + 64) * 4096 + 64 * 1024 * 1024,
        eviction_policy=eviction_policy, readahead=readahead, seed=seed)
    page = gpufs.page_size
    line = 32 * 4
    out_bytes = npages * (page if copy_pages else line)
    out = device.alloc(out_bytes)
    ppw = npages // warps

    def kernel(ctx: WarpContext):
        base = ctx.warp_id * ppw
        for i in range(ppw):
            p = base + i
            addr = yield from gpufs.gmmap(ctx, fid, p * page)
            if copy_pages:
                step = 8 * ctx.warp_size
                for off in range(0, page, step):
                    lane = off + ctx.lane * 8
                    ctx.charge(4)
                    vals = yield from ctx.load(addr + lane, "u8")
                    yield from ctx.store(out + p * page + lane,
                                         vals, "u8")
            else:
                ctx.charge(2, chain=2)
                vals = yield from ctx.load(addr + ctx.lane * 4, "f4")
                yield from ctx.store(out + p * line + ctx.lane * 4,
                                     vals, "f4")
            yield from gpufs.gmunmap(ctx, fid, p * page)

    res = device.launch(kernel, grid=max(warps // 32, 1),
                        block_threads=min(warps, 32) * 32)
    got = device.memory.read(out, out_bytes)
    if copy_pages:
        verified = bool(np.array_equal(got, data.view(np.uint8)))
    else:
        floats = got.view(np.float32).reshape(npages, 32)
        expect = data.reshape(npages, page // 4)[:, :32]
        verified = bool(np.array_equal(floats, expect))
    ra = gpufs.readahead.stats if gpufs.readahead is not None else None
    return SequentialReadResult(
        readahead=readahead,
        cycles=res.cycles,
        seconds=res.seconds,
        verified=verified,
        major_faults=gpufs.stats.major_faults,
        minor_faults=gpufs.stats.minor_faults,
        ra_issued=ra.issued if ra else 0,
        ra_hits=ra.hits if ra else 0,
        ra_inflight_hits=ra.inflight_hits if ra else 0,
        ra_wasted=ra.wasted if ra else 0,
        ra_cancelled=ra.cancelled if ra else 0,
        batches=gpufs.batcher.stats.batches,
        transfers=gpufs.batcher.stats.transfers,
    )


# ----------------------------------------------------------------------
# §VI-C page-fault overhead benchmark (Table III)
# ----------------------------------------------------------------------
@dataclass
class PageFaultBenchResult:
    use_apointers: bool
    config: Optional[APConfig]
    cold_cycles: float          # major-fault run
    warm_cycles: float          # minor-fault run
    major_faults: int
    minor_faults: int


def run_pagefault_bench(*, use_apointers: bool,
                        nblocks: int = 13, warps_per_block: int = 8,
                        pages_per_warp: int = 32,
                        config: Optional[APConfig] = None,
                        seed: int = 11) -> PageFaultBenchResult:
    """§VI-C: every warp touches ``pages_per_warp`` distinct pages.

    The kernel runs twice on the same GPUfs instance: the first
    execution measures major faults (cold cache), the second minor
    faults (warm cache).  All threads of a warp access the same page.
    """
    nwarps = nblocks * warps_per_block
    npages = nwarps * pages_per_warp
    total_bytes = npages * 4096
    device, gpufs, fid, _ = make_file_env(
        total_bytes, num_frames=npages + 16,
        memory_bytes=total_bytes + 128 * 1024 * 1024, seed=seed)
    cfg = config if config is not None else APConfig()
    avm = AVM(cfg, gpufs=gpufs)
    page = gpufs.page_size

    def kernel(ctx: WarpContext):
        base = ctx.warp_id * pages_per_warp * page
        if use_apointers:
            ptr = avm.gvmmap(ctx, total_bytes, fid)
            yield from ptr.seek(ctx, base + ctx.lane * 4)
            for p in range(pages_per_warp):
                yield from ptr.read(ctx, "f4")
                yield from ptr.add(ctx, page)
            yield from ptr.destroy(ctx)
            if cfg.use_tlb:
                yield from ctx.syncthreads()
                if ctx.warp_in_block == 0:
                    yield from avm.drain_tlb(ctx, ptr.backend)
        else:
            for p in range(pages_per_warp):
                offset = base + p * page
                addr = yield from gpufs.gmmap(ctx, fid, offset)
                ctx.charge(2, chain=2)
                yield from ctx.load(addr + ctx.lane * 4, "f4")
                yield from gpufs.gmunmap(ctx, fid, offset)

    block_threads = warps_per_block * 32
    cold = device.launch(kernel, grid=nblocks, block_threads=block_threads,
                         scratchpad_bytes=cfg.tlb_bytes())
    major = gpufs.stats.major_faults
    warm = device.launch(kernel, grid=nblocks, block_threads=block_threads,
                         scratchpad_bytes=cfg.tlb_bytes())
    return PageFaultBenchResult(
        use_apointers=use_apointers,
        config=config,
        cold_cycles=cold.cycles,
        warm_cycles=warm.cycles,
        major_faults=major,
        minor_faults=gpufs.stats.minor_faults,
    )


# ----------------------------------------------------------------------
# Figure 7: TLB size vs page reuse
# ----------------------------------------------------------------------
def run_tlb_sweep_point(*, unique_pages: int, tlb_entries: Optional[int],
                        warps: int = 32, reads_per_warp: int = 32,
                        seed: int = 23) -> float:
    """Figure 7: cycles per page for one TLB configuration.

    One threadblock of ``warps`` warps; the block collectively touches
    ``unique_pages`` distinct pages, each warp reading 4 KB in 4-byte
    per-lane accesses at a warp-unique offset.  All pages are resident
    (minor faults only).  ``tlb_entries=None`` selects the TLB-less
    design.  Returns average cycles per page access.
    """
    npages = max(unique_pages, 1)
    total_bytes = npages * 4096
    device, gpufs, fid, _ = make_file_env(
        total_bytes, num_frames=npages + 8,
        memory_bytes=total_bytes + 64 * 1024 * 1024, seed=seed)
    warm_page_cache(device, gpufs, fid, npages)
    cfg = APConfig(use_tlb=tlb_entries is not None,
                   tlb_entries=tlb_entries or 32)
    avm = AVM(cfg, gpufs=gpufs)
    page = gpufs.page_size

    def kernel(ctx: WarpContext):
        ptr = avm.gvmmap(ctx, total_bytes, fid)
        # Warp-unique intra-page offset, no data reuse across warps.
        offset = (ctx.warp_in_block * 128) % page
        for i in range(reads_per_warp):
            # Walk a new page every read; the block's working set is
            # exactly ``unique_pages`` distinct pages.
            p = (ctx.warp_in_block + i) % npages
            yield from ptr.seek(ctx, p * page + offset + ctx.lane * 4)
            yield from ptr.read(ctx, "f4")
        yield from ptr.destroy(ctx)
        yield from ctx.syncthreads()
        if cfg.use_tlb and ctx.warp_in_block == 0:
            yield from avm.drain_tlb(ctx, ptr.backend)

    res = device.launch(kernel, grid=1, block_threads=warps * 32,
                        scratchpad_bytes=cfg.tlb_bytes())
    return res.cycles / reads_per_warp
