"""The GPUfs layer: files, page faults, and the gmmap() baseline API.

This module ties the page table, page cache, and transfer batcher into
the paging system of §V.  Two interfaces are exposed to GPU code:

* :meth:`GPUfs.gmmap` / :meth:`GPUfs.gmunmap` — the *original* GPUfs
  page-granularity interface used as the baseline in §VI-C: it pins one
  page in the cache (minor fault), transferring it from the host first if
  needed (major fault), and returns its device address.
* :meth:`GPUfs.handle_fault` / :meth:`GPUfs.release_page` — the entry
  points the ActivePointers translation layer calls from its warp-level
  fault handler.

Custom fault filters (:class:`FaultFilter`) may transform page contents
on their way in and out of the cache — this is the hook the paper's
introduction proposes for a CryptFS-style encrypted GPU file system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from repro.gpu.kernel import WarpContext
from repro.host.filesys import FileHandle, HostFileSystem, O_RDONLY
from repro.host.ramfs import FileSystemError
from repro.paging.page_cache import PageCache
from repro.paging.page_table import PageTableEntry
from repro.paging.staging import TransferBatcher
from repro.telemetry import hooks as telemetry_hooks

SPIN_WAIT_CYCLES = 200.0

#: ``gmmap`` / ``gvmmap`` protection flags (mmap-style).  A mapping
#: without ``PROT_WRITE`` can never dirty a shared frame: write faults
#: through it fail fast instead of corrupting the page cache and only
#: surfacing at write-back.
PROT_READ = 0x1
PROT_WRITE = 0x2

#: Instruction cost of the paging layer's fault-handler bookkeeping
#: beyond the structural work modelled explicitly (argument marshalling,
#: state checks, fences, swap accounting).  Calibrated so that the
#: §VI-C minor-fault experiment reproduces Table III's relative
#: overheads; the companion GPUfs analysis (SYSTOR'16, cited as [17])
#: describes this heavyweight handler.
MINOR_FAULT_INSTRS = 150.0
MAJOR_FAULT_EXTRA_INSTRS = 250.0


@dataclass(frozen=True, kw_only=True)
class GPUfsConfig:
    """Configuration of the paging stack: the one place its settable
    values live.  Keyword arguments only.

    * ``page_size`` — bytes per page; a power of two (§V uses 4 KB).
    * ``num_frames`` — page-cache frames in device memory; positive.
    * ``batching`` — aggregate concurrent host-to-GPU transfers into
      one DMA (§V); off, every fetch pays the host RPC alone.
    * ``eviction_policy`` — ``clock``, ``fifo``, ``lru`` or ``random``.
    * ``readahead`` — run the asynchronous readahead daemon
      (:mod:`repro.readahead`); off, the paging layer does only
      demand paging.
    * ``sanitize`` — watch every warp on the device with the runtime
      sanitizer (:mod:`repro.analysis.sanitizer`) for lockstep,
      torn-write and pin-balance violations; off, launches are
      unchanged.

    The fixed parameters of the stack are constants on the classes
    that use them (``docs/paging.md``, "Fixed parameters").
    """

    page_size: int = 4096
    num_frames: int = 512
    batching: bool = True
    eviction_policy: str = "clock"
    readahead: bool = False
    sanitize: bool = False

    def __post_init__(self):
        if self.page_size & (self.page_size - 1):
            raise ValueError("page_size must be a power of two")
        if self.num_frames <= 0:
            raise ValueError("num_frames must be positive")


@dataclass
class PagingStats:
    """Fault and concurrency counters for one GPUfs instance."""

    minor_faults: int = 0
    major_faults: int = 0
    lost_insert_races: int = 0
    busy_waits: int = 0
    gmmap_calls: int = 0


class FaultFilter:
    """Transforms page contents on page-in / page-out.

    ``instructions_per_byte`` is charged to the faulting warp, modelling
    the GPU threads doing the transformation (e.g. decryption) in the
    fault handler.
    """

    instructions_per_byte: float = 0.0

    def page_in(self, data: np.ndarray, fpn: int) -> np.ndarray:
        return data

    def page_out(self, data: np.ndarray, fpn: int) -> np.ndarray:
        return data


class GPUfs:
    """One mounted GPU file system instance."""

    def __init__(self, device, host_fs: Optional[HostFileSystem] = None,
                 config: GPUfsConfig = GPUfsConfig(),
                 fault_filter: Optional[FaultFilter] = None):
        self.device = device
        self.host_fs = host_fs if host_fs is not None else HostFileSystem()
        self.config = config
        self.cache = PageCache(device, config)
        self.batcher = TransferBatcher(device, config.page_size,
                                       enabled=config.batching)
        self.fault_filter = fault_filter
        self.stats = PagingStats()
        self._handles: dict[int, FileHandle] = {}
        if config.readahead:
            from repro.readahead import ReadaheadEngine
            self.readahead = ReadaheadEngine(
                self.cache, self.batcher, self.handle_for,
                config.page_size)
            self.cache.spec_listener = self.readahead
        else:
            self.readahead = None
        if config.sanitize:
            from repro.analysis.sanitizer import Sanitizer
            self.sanitizer = Sanitizer()
            device.sanitizer = self.sanitizer
        else:
            self.sanitizer = None
        # The generic warp-level syscall layer (repro.syscalls) rides
        # this instance's cache/batcher; imported lazily because the
        # syscalls package imports paging modules.
        from repro.syscalls.layer import SyscallLayer
        self.syscalls = SyscallLayer(self)
        if self.readahead is None:
            # madvise(WILLNEED) prefetches need the same completion
            # polling the readahead daemon gets from the cache.
            self.cache.spec_listener = self.syscalls
        profiler = telemetry_hooks.current()
        if profiler is not None:
            profiler.register("paging", self.stats)
            profiler.register("staging", self.batcher.stats)
            profiler.register("syscalls", self.syscalls.stats)
            if self.readahead is not None:
                profiler.register("readahead", self.readahead.stats)
            if self.sanitizer is not None:
                profiler.register("sanitizer", self.sanitizer.stats)
            # Level gauges for the time-series sampler: cache fill and
            # pinning, staging-ring pressure, readahead in flight.
            for component in (self.cache, self.batcher, self.readahead):
                if component is None:
                    continue
                for name, fn in component.gauges().items():
                    telemetry_hooks.gauge(name, fn)

    # ------------------------------------------------------------------
    # Host-side file management
    # ------------------------------------------------------------------
    def open(self, name: str, flags: int = O_RDONLY) -> int:
        """Open a host file for GPU access; returns its file id."""
        handle = self.host_fs.open(name, flags)
        self._handles[handle.fd] = handle
        return handle.fd

    def close(self, file_id: int) -> None:
        self._handles.pop(file_id)
        self.host_fs.close(file_id)

    def handle_for(self, file_id: int) -> FileHandle:
        return self._handles[file_id]

    @property
    def page_size(self) -> int:
        return self.config.page_size

    # ------------------------------------------------------------------
    # Page fault handling (timed, called with the whole warp converged)
    # ------------------------------------------------------------------
    def handle_fault(self, ctx: WarpContext, file_id: int, fpn: int,
                     refs: int = 1, write: bool = False):
        """Timed: make page ``(file_id, fpn)`` resident and pinned.

        Adds ``refs`` to its reference count (the warp-aggregated count
        from the translation layer) and returns the frame's device
        address.  Minor faults are table hits; major faults transfer the
        page from the host.
        """
        ctx.begin_request()
        ctx.push_activity("fault_wait")
        try:
            return (yield from self._handle_fault(ctx, file_id, fpn,
                                                  refs, write))
        finally:
            ctx.pop_activity()
            ctx.end_request()

    def _handle_fault(self, ctx: WarpContext, file_id: int, fpn: int,
                      refs: int, write: bool):
        t0 = ctx.now
        if write and not self.handle_for(file_id).writable:
            # Fail at fault time: dirtying a shared frame through a
            # read-only fd would corrupt it for every other reader and
            # only surface when write-back finally throws.
            raise FileSystemError(
                f"write fault on read-only fd {file_id} "
                f"(page {fpn})")
        if self.readahead is not None:
            # Feed the stream detector and let the daemon issue
            # speculative page-ins for the pages ahead of this one.
            self.readahead.on_demand_access(ctx, file_id, fpn)
        while True:
            ctx.charge(MINOR_FAULT_INSTRS)
            entry = yield from self.cache.table.lookup(ctx, file_id, fpn)
            if entry is not None:
                was_inflight = entry.speculative and not entry.ready
                yield from self._wait_ready(ctx, entry)
                yield from self.cache.table.add_refs(ctx, entry, refs)
                if entry.removed:
                    # Eviction won the race for this page: undo and
                    # refault from scratch.
                    yield from self.cache.table.add_refs(ctx, entry, -refs)
                    continue
                self.stats.minor_faults += 1
                if entry.speculative:
                    if self.readahead is not None:
                        self.readahead.on_hit(ctx, entry,
                                              waited=was_inflight)
                    else:
                        # madvise(WILLNEED) prefetch with no engine:
                        # first demand touch promotes the frame.
                        entry.speculative = False
                        self.cache.promote_frame(entry.frame)
                    # The daemon lands raw file bytes; the page-in
                    # filter (e.g. decryption) runs on the GPU at first
                    # touch, charged to the touching warp.
                    yield from self._apply_filter_in(
                        ctx, self.cache.frame_addr(entry.frame), fpn)
                self.cache.touch(entry.frame)
                if write:
                    entry.dirty = True
                self._span(ctx, "minor_fault", t0, fpn)
                return self.cache.frame_addr(entry.frame)

            # Publish a busy entry first, then allocate the frame: this
            # way a page being faulted by many warps claims only one
            # frame, and the losers of the insert race simply wait for
            # the winner's transfer.
            fresh = PageTableEntry(file_id, fpn, frame=-1, ready=False)
            winner = yield from self.cache.table.insert(ctx, fresh)
            if winner is not fresh:
                was_inflight = winner.speculative and not winner.ready
                yield from self._wait_ready(ctx, winner)
                yield from self.cache.table.add_refs(ctx, winner, refs)
                if winner.removed:
                    yield from self.cache.table.add_refs(
                        ctx, winner, -refs)
                    continue
                self.stats.lost_insert_races += 1
                self.stats.minor_faults += 1
                if winner.speculative:
                    if self.readahead is not None:
                        self.readahead.on_hit(ctx, winner,
                                              waited=was_inflight)
                    else:
                        winner.speculative = False
                        self.cache.promote_frame(winner.frame)
                    yield from self._apply_filter_in(
                        ctx, self.cache.frame_addr(winner.frame), fpn)
                if write:
                    winner.dirty = True
                self._span(ctx, "minor_fault", t0, fpn)
                return self.cache.frame_addr(winner.frame)
            break

        self.stats.major_faults += 1
        ctx.charge(MAJOR_FAULT_EXTRA_INSTRS)
        frame = yield from self.cache.allocate_frame(ctx, self._writeback)
        fresh.frame = frame
        self.cache.bind(fresh)
        frame_addr = self.cache.frame_addr(frame)
        handle = self.handle_for(file_id)
        t_fetch = ctx.now
        yield from self.batcher.fetch(
            ctx, handle, fpn * self.page_size, self.page_size, frame_addr)
        self._span(ctx, "page_in", t_fetch, fpn)
        yield from self._apply_filter_in(ctx, frame_addr, fpn)
        fresh.ready = True
        if ctx.sanitizer is not None:
            ctx.sanitizer.note_page_ready(ctx, frame_addr, self.page_size)
        yield from self.cache.table.add_refs(ctx, fresh, refs)
        if write:
            fresh.dirty = True
        self._span(ctx, "major_fault", t0, fpn)
        return frame_addr

    def release_page(self, ctx: WarpContext, file_id: int, fpn: int,
                     refs: int = 1, dirty: bool = False):
        """Timed: drop ``refs`` references from a resident page.

        ``dirty`` re-marks the page dirty *after* the caller's stores
        completed.  The fault path marks dirty at fault time — before
        the data lands — so a concurrent ``msync`` can flush the page
        and clear the bit mid-write; without the re-mark here the
        writer's bytes would silently never reach the host.
        """
        ctx.charge(MINOR_FAULT_INSTRS / 2)
        entry = yield from self.cache.table.lookup(ctx, file_id, fpn)
        if entry is None:
            raise RuntimeError(
                f"release of non-resident page ({file_id}, {fpn})")
        if dirty:
            entry.dirty = True
        yield from self.cache.table.add_refs(ctx, entry, -refs)

    # ------------------------------------------------------------------
    # gmmap: the original GPUfs page-granularity interface (§VI-C)
    # ------------------------------------------------------------------
    def gmmap(self, ctx: WarpContext, file_id: int, offset: int,
              prot: int = PROT_READ):
        """Timed: pin the page containing ``offset``; returns its device
        address adjusted for the intra-page offset.

        ``prot`` is a ``PROT_READ`` / ``PROT_WRITE`` bitmask: a
        ``PROT_WRITE`` mapping dirties the page (write-back on eviction
        or flush) and requires the fd to be writable."""
        if not prot & (PROT_READ | PROT_WRITE):
            raise ValueError(f"gmmap without PROT_READ/PROT_WRITE: "
                             f"{prot:#x}")
        self.stats.gmmap_calls += 1
        fpn, in_page = divmod(offset, self.page_size)
        frame_addr = yield from self.handle_fault(
            ctx, file_id, fpn, refs=1, write=bool(prot & PROT_WRITE))
        if ctx.sanitizer is not None:
            ctx.sanitizer.note_pin(ctx, file_id, fpn)
        return frame_addr + in_page

    def gmunmap(self, ctx: WarpContext, file_id: int, offset: int):
        """Timed: release the pin taken by :meth:`gmmap`."""
        fpn = offset // self.page_size
        yield from self.release_page(ctx, file_id, fpn, refs=1)
        if ctx.sanitizer is not None:
            ctx.sanitizer.note_unpin(ctx, file_id, fpn)

    # ------------------------------------------------------------------
    # Shutdown / maintenance
    # ------------------------------------------------------------------
    def flush(self, ctx: WarpContext):
        """Timed: write every dirty resident page back to the host —
        a whole-cache ``msync`` through the syscall layer."""
        return (yield from self.syscalls.msync(ctx))

    # ------------------------------------------------------------------
    def _span(self, ctx: WarpContext, kind: str, start: float,
              fpn: int) -> None:
        """Telemetry: one timeline span per paging event.  The guard
        keeps untraced launches from paying for the detail string."""
        if ctx.tracer is not None:
            ctx.trace_span(kind, start, ctx.now, f"fpn={fpn}")

    def _wait_ready(self, ctx: WarpContext, entry: PageTableEntry):
        if not entry.ready and entry.ready_at is not None:
            # In-flight readahead transfer: wait only for the remaining
            # time on the daemon timeline, not a whole page-in.
            t0 = ctx.now
            remaining = entry.ready_at - ctx.now
            if remaining > 0:
                yield from ctx.sleep(remaining, io_wait=True)
            entry.ready = True
            entry.ready_at = None
            self._span(ctx, "readahead_wait", t0, entry.fpn)
            return
        if not self._poll_ready(entry):
            # Spin on the page-in another warp is running; the engine
            # makes the polls after this first one.
            yield from ctx.sleep(SPIN_WAIT_CYCLES, io_wait=True,
                                 until=partial(self._poll_ready, entry))

    def _poll_ready(self, entry: PageTableEntry) -> bool:
        """One page-ready spin poll; a miss counts one busy wait."""
        if entry.ready:
            return True
        self.stats.busy_waits += 1
        return False

    def _writeback(self, ctx: WarpContext, entry: PageTableEntry,
                   frame_addr: int):
        handle = self.handle_for(entry.file_id)
        data = yield from self._apply_filter_out(ctx, frame_addr, entry.fpn)
        t0 = ctx.now
        yield from self.batcher.writeback(
            ctx, handle, entry.fpn * self.page_size, frame_addr,
            self.page_size, data=data)
        self.syscalls.stats.writeback_bytes += self.page_size
        self._span(ctx, "page_out", t0, entry.fpn)

    def _apply_filter_in(self, ctx: WarpContext, frame_addr: int, fpn: int):
        if self.fault_filter is None:
            return
        t0 = ctx.now
        raw = ctx.memory.read(frame_addr, self.page_size).copy()
        ctx.memory.write(frame_addr,
                         self.fault_filter.page_in(raw, fpn))
        cost = self.fault_filter.instructions_per_byte * self.page_size
        if cost:
            yield from ctx.compute(cost / ctx.warp_size)
        self._span(ctx, "filter_in", t0, fpn)

    def _apply_filter_out(self, ctx: WarpContext, frame_addr: int, fpn: int):
        """Returns the bytes to write to the host (None = frame as-is)."""
        if self.fault_filter is None:
            return None
        t0 = ctx.now
        raw = ctx.memory.read(frame_addr, self.page_size).copy()
        transformed = self.fault_filter.page_out(raw, fpn)
        cost = self.fault_filter.instructions_per_byte * self.page_size
        if cost:
            yield from ctx.compute(cost / ctx.warp_size)
        self._span(ctx, "filter_out", t0, fpn)
        return transformed
