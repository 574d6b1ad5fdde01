"""Generic warp-level GPU syscall layer.

ActivePointers' fault path is, in effect, one hard-coded GPU syscall:
a warp traps on a missing page and GPUfs services a ``read``.  "GPU
System Calls" (Vesely et al., arXiv 1705.06965) generalises the pattern
into a warp-granularity syscall interface whose calls are classified
along two axes (their §3 taxonomy):

* **ordering** — *strong-ordered* calls fence the warp's prior memory
  operations before the call proceeds and fence again before control
  returns, so the call is a two-sided memory barrier; *relaxed* calls
  impose no ordering beyond their own data movement.
* **blocking** — *blocking* calls return only once their effect is
  complete (the warp's wait shows up in ``blocked_cycles``);
  *non-blocking* calls return immediately, either fire-and-forget
  (``madvise``) or with a :class:`SyscallTicket` the warp can
  :meth:`~SyscallLayer.wait` on later (``pread_async`` /
  ``pwrite_async``).

The dispatch table (:data:`SYSCALLS`) classifies every call:

========== ========= ============
 call       ordering  blocking
========== ========= ============
pread       relaxed   blocking
pwrite      relaxed   blocking
msync       strong    blocking
madvise     relaxed   non-blocking
ftruncate   strong    blocking
pread_async relaxed   non-blocking
pwrite_async relaxed  non-blocking
========== ========= ============

All calls are serviced by the *existing* GPUfs plumbing — page faults
via :meth:`~repro.paging.gpufs.GPUfs.handle_fault`, transfers via the
shared :class:`~repro.paging.staging.TransferBatcher` windows, write
back through the PCIe model — so the syscall layer adds semantics, not
a second staging path.  ``pread``/``pwrite`` move bytes through the
coherent page cache (a ``pwrite`` dirties the spanned pages; eviction
or ``msync`` writes them back); the ``*_async`` variants model the
paper's direct-I/O flavour that bypasses the cache entirely, so mixing
them with resident dirty pages of the same range requires an ``msync``
first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.gpu.kernel import WarpContext
from repro.gpu.memory import AffineLanes
from repro.host.ramfs import FileSystemError
from repro.paging.page_table import PageTableEntry

#: Per-call bookkeeping (argument marshalling, dispatch-table lookup).
SYSCALL_INSTRS = 20

ORDER_STRONG = "strong"
ORDER_RELAXED = "relaxed"

#: ``madvise`` advice values (the two the page cache can act on).
MADV_WILLNEED = 3
MADV_DONTNEED = 4


@dataclass(frozen=True)
class SyscallSpec:
    """One syscall's classification in the §3 taxonomy."""

    name: str
    ordering: str            # ORDER_STRONG | ORDER_RELAXED
    blocking: bool


#: The dispatch table: every warp-level syscall the layer services,
#: keyed by name.  :meth:`SyscallLayer.invoke` resolves calls through
#: it; the specs drive the fencing and blocked-cycle accounting.
SYSCALLS: dict[str, SyscallSpec] = {
    spec.name: spec for spec in (
        SyscallSpec("pread", ORDER_RELAXED, blocking=True),
        SyscallSpec("pwrite", ORDER_RELAXED, blocking=True),
        SyscallSpec("msync", ORDER_STRONG, blocking=True),
        SyscallSpec("madvise", ORDER_RELAXED, blocking=False),
        SyscallSpec("ftruncate", ORDER_STRONG, blocking=True),
        SyscallSpec("pread_async", ORDER_RELAXED, blocking=False),
        SyscallSpec("pwrite_async", ORDER_RELAXED, blocking=False),
    )
}


@dataclass
class SyscallStats:
    """Per-layer syscall counters (telemetry ``components.syscalls``)."""

    pread: int = 0
    pwrite: int = 0
    msync: int = 0
    madvise: int = 0
    ftruncate: int = 0
    pread_async: int = 0
    pwrite_async: int = 0
    #: Warp-cycles spent inside blocking calls (and ticket waits).
    blocked_cycles: float = 0.0
    #: Bytes written back to the host through the PCIe model — by
    #: ``msync``, dirty-page eviction, and ``flush`` alike.
    writeback_bytes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    tickets_issued: int = 0
    tickets_waited: int = 0
    #: madvise(WILLNEED) pages prefetched / skipped under pressure.
    advise_prefetched: int = 0
    advise_deferred: int = 0
    #: madvise(DONTNEED) pages dropped from the cache.
    advise_dropped: int = 0
    #: WILLNEED frames evicted before any touch (wasted prefetch).
    advise_wasted: int = 0


@dataclass
class SyscallTicket:
    """Completion handle of a non-blocking ``*_async`` call."""

    name: str
    nbytes: int
    done_at: float
    waited: bool = False


class SyscallLayer:
    """Warp-level syscall dispatch over one GPUfs instance.

    Every public method is a timed kernel-coroutine generator invoked
    with ``yield from`` and the warp converged, mirroring
    :meth:`~repro.paging.gpufs.GPUfs.handle_fault`.
    """

    def __init__(self, gpufs):
        self.gpufs = gpufs
        self.stats = SyscallStats()
        #: In-flight madvise(WILLNEED) transfers when no readahead
        #: engine is attached: (entry, done_at, launch_no), polled with
        #: the same semantics as ``ReadaheadEngine.poll``.
        self._inflight: list[tuple[PageTableEntry, float, int]] = []

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def invoke(self, ctx: WarpContext, name: str, *args, **kwargs):
        """Timed: dispatch a syscall by name through :data:`SYSCALLS`."""
        if name not in SYSCALLS:
            raise ValueError(f"unknown GPU syscall {name!r}")
        return (yield from getattr(self, name)(ctx, *args, **kwargs))

    # ------------------------------------------------------------------
    # pread / pwrite: byte ranges through the coherent page cache
    # ------------------------------------------------------------------
    def pread(self, ctx: WarpContext, file_id: int, offset: int,
              nbytes: int, dst_addr: int):
        """Timed: read ``nbytes`` at ``offset`` into device memory at
        ``dst_addr``.  Relaxed, blocking: returns once the bytes have
        landed, with no fence on the warp's other traffic."""
        if nbytes <= 0:
            raise ValueError("pread of non-positive size")
        spec = SYSCALLS["pread"]
        t0 = yield from self._enter(ctx, spec)
        try:
            self.stats.bytes_read += nbytes
            yield from self._for_each_page(ctx, file_id, offset, nbytes,
                                           dst_addr, write=False)
        finally:
            yield from self._exit(ctx, spec, t0)
        return nbytes

    def pwrite(self, ctx: WarpContext, file_id: int, offset: int,
               nbytes: int, src_addr: int):
        """Timed: write ``nbytes`` from device memory at ``src_addr``
        into the file at ``offset``.  Completes into the page cache
        (the spanned pages are dirtied); durability comes from
        :meth:`msync`, dirty eviction, or ``GPUfs.flush``."""
        if nbytes <= 0:
            raise ValueError("pwrite of non-positive size")
        self._require_writable(file_id, "pwrite")
        spec = SYSCALLS["pwrite"]
        t0 = yield from self._enter(ctx, spec)
        try:
            self.stats.bytes_written += nbytes
            yield from self._for_each_page(ctx, file_id, offset, nbytes,
                                           src_addr, write=True)
        finally:
            yield from self._exit(ctx, spec, t0)
        return nbytes

    # ------------------------------------------------------------------
    # msync: strong-ordered write-back of dirty resident pages
    # ------------------------------------------------------------------
    def msync(self, ctx: WarpContext, file_id: Optional[int] = None,
              offset: int = 0, nbytes: Optional[int] = None):
        """Timed: write every dirty resident page of ``file_id`` in
        ``[offset, offset + nbytes)`` back to the host (``file_id=None``
        flushes all files, ``nbytes=None`` the whole file).  Strong
        ordered: prior stores are fenced before the flush begins and
        the flush completes before control returns."""
        spec = SYSCALLS["msync"]
        t0 = yield from self._enter(ctx, spec)
        flushed = 0
        try:
            gpufs = self.gpufs
            page = gpufs.page_size
            lo = offset // page
            hi = None if nbytes is None else -(-(offset + nbytes) // page)
            for entry in list(gpufs.cache.table.entries()):
                if not entry.dirty or not entry.ready:
                    continue
                if file_id is not None and entry.file_id != file_id:
                    continue
                if entry.fpn < lo or (hi is not None and entry.fpn >= hi):
                    continue
                # Clear dirty *before* the write-back: the host write
                # lands at initiation, so a store arriving during the
                # PCIe sleep re-marks the entry and a later msync
                # flushes it.  Clearing after the sleep would wipe
                # that re-mark and lose the write.
                entry.dirty = False
                yield from gpufs._writeback(
                    ctx, entry, gpufs.cache.frame_addr(entry.frame))
                flushed += 1
        finally:
            yield from self._exit(ctx, spec, t0)
        return flushed

    # ------------------------------------------------------------------
    # madvise: non-blocking page-cache hints
    # ------------------------------------------------------------------
    def madvise(self, ctx: WarpContext, file_id: int, offset: int,
                nbytes: int, advice: int):
        """Timed: advise the cache about ``[offset, offset + nbytes)``.

        Relaxed, non-blocking — the warp never waits on a transfer:

        * ``MADV_WILLNEED`` starts daemon-side prefetches of absent
          pages into *free* frames (never evicting for a hint; backs
          off under pressure);
        * ``MADV_DONTNEED`` drops resident pages that are clean,
          ready, and unreferenced (advice never discards data).
        """
        spec = SYSCALLS["madvise"]
        t0 = yield from self._enter(ctx, spec)
        try:
            page = self.gpufs.page_size
            lo = offset // page
            hi = -(-(offset + max(nbytes, 0)) // page)
            if advice == MADV_WILLNEED:
                acted = self._advise_willneed(ctx, file_id, lo, hi)
            elif advice == MADV_DONTNEED:
                acted = self._advise_dontneed(file_id, lo, hi)
            else:
                raise ValueError(f"unknown madvise advice {advice}")
        finally:
            yield from self._exit(ctx, spec, t0)
        return acted

    def _advise_willneed(self, ctx: WarpContext, file_id: int,
                         lo: int, hi: int) -> int:
        gpufs = self.gpufs
        cache = gpufs.cache
        handle = gpufs.handle_for(file_id)
        npages = -(-handle.size() // gpufs.page_size)
        issued = 0
        for fpn in range(lo, min(hi, npages)):
            if cache.table.get(file_id, fpn) is not None:
                continue
            if cache.frames_in_use >= cache.config.num_frames:
                # A hint never evicts: only free frames are used.
                break
            frame = cache.allocate_speculative()
            if frame is None:
                break
            entry = PageTableEntry(file_id, fpn, frame=frame,
                                   ready=False, speculative=True)
            if cache.table.host_insert(entry) is not entry:
                # Bucket lock held (a warp is mid-fault on this page)
                # or the key just became resident: skip the hint.
                cache.release_frame(frame)
                self.stats.advise_deferred += 1
                continue
            cache.bind(entry)
            cache.mark_speculative(frame)
            done_at = gpufs.batcher.fetch_async(
                ctx.now, handle, fpn * gpufs.page_size,
                gpufs.page_size, cache.frame_addr(frame))
            entry.ready_at = done_at
            record = (entry, done_at, gpufs.device.launches)
            if gpufs.readahead is not None:
                # The engine's poll already completes in-flight
                # transfers at the right times; ride its list rather
                # than running a second one.
                gpufs.readahead._inflight.append(record)
            else:
                self._inflight.append(record)
            self.stats.advise_prefetched += 1
            issued += 1
        return issued

    def _advise_dontneed(self, file_id: int, lo: int, hi: int) -> int:
        gpufs = self.gpufs
        dropped = 0
        for entry in list(gpufs.cache.table.entries()):
            if entry.file_id != file_id or not lo <= entry.fpn < hi:
                continue
            if entry.refcount > 0 or not entry.ready:
                continue
            if entry.dirty:
                # Dropping would lose the write; the caller must msync
                # first (counted so the hint's failure is observable).
                self.stats.advise_deferred += 1
                continue
            if not gpufs.cache.table.host_remove(entry):
                self.stats.advise_deferred += 1
                continue
            gpufs.cache.discard_frame(entry)
            dropped += 1
        self.stats.advise_dropped += dropped
        return dropped

    # ------------------------------------------------------------------
    # Speculative-frame listener (when no readahead engine is attached)
    # ------------------------------------------------------------------
    def poll(self, now: float) -> None:
        """Complete madvise(WILLNEED) transfers whose time has passed.

        Same contract as ``ReadaheadEngine.poll``: a launch boundary
        completes everything outstanding, since simulated time restarts
        at zero each launch while the daemon keeps running.
        """
        if not self._inflight:
            return
        launch_no = self.gpufs.device.launches
        still: list[tuple[PageTableEntry, float, int]] = []
        for entry, done_at, launch in self._inflight:
            if entry.removed or not entry.speculative or entry.ready:
                continue
            if launch != launch_no or done_at <= now:
                entry.ready = True
                entry.ready_at = None
            else:
                still.append((entry, done_at, launch))
        self._inflight = still

    def on_spec_evicted(self, entry: PageTableEntry) -> None:
        """Cache listener: a prefetched frame was evicted untouched."""
        self.stats.advise_wasted += 1

    # ------------------------------------------------------------------
    # ftruncate: strong-ordered file resize
    # ------------------------------------------------------------------
    def ftruncate(self, ctx: WarpContext, file_id: int, new_size: int):
        """Timed: resize the file to ``new_size`` bytes.

        Resident pages wholly beyond the new EOF are dropped (their
        dirty data is legitimately discarded — that is what truncation
        means); a pinned page beyond EOF raises, since a linked
        apointer still holds its mapping.  The resident page straddling
        EOF has its tail zeroed, so a later write-back regrows the file
        with zeros, as POSIX reads after extension would see.
        """
        if new_size < 0:
            raise ValueError("negative ftruncate size")
        self._require_writable(file_id, "ftruncate")
        spec = SYSCALLS["ftruncate"]
        t0 = yield from self._enter(ctx, spec)
        try:
            gpufs = self.gpufs
            page = gpufs.page_size
            keep = -(-new_size // page)
            for entry in list(gpufs.cache.table.entries()):
                if entry.file_id != file_id or entry.fpn < keep:
                    continue
                if entry.refcount > 0:
                    raise RuntimeError(
                        f"ftruncate({new_size}) of file {file_id}: page "
                        f"{entry.fpn} is pinned (refcount "
                        f"{entry.refcount})")
                yield from gpufs._wait_ready(ctx, entry)
                entry.dirty = False
                removed = yield from gpufs.cache.table \
                    .remove_if_unreferenced(ctx, entry)
                if removed:
                    gpufs.cache.discard_frame(entry)
            # The resize itself is a host-daemon metadata RPC.
            yield from ctx.host_compute(gpufs.batcher.spec.host_rpc_s)
            gpufs.handle_for(file_id).truncate(new_size)
            tail = new_size % page
            if tail:
                entry = gpufs.cache.table.get(file_id, new_size // page)
                if entry is not None and entry.ready:
                    addr = gpufs.cache.frame_addr(entry.frame) + tail
                    ctx.memory.write(
                        addr, np.zeros(page - tail, dtype=np.uint8))
        finally:
            yield from self._exit(ctx, spec, t0)
        return new_size

    # ------------------------------------------------------------------
    # Non-blocking direct I/O: pread_async / pwrite_async + wait
    # ------------------------------------------------------------------
    def pread_async(self, ctx: WarpContext, file_id: int, offset: int,
                    nbytes: int, dst_addr: int):
        """Timed: start a direct-I/O read that bypasses the page cache;
        returns a :class:`SyscallTicket` to :meth:`wait` on.  The
        transfer rides the batcher's DMA windows on the daemon
        timeline, charging no warp until the wait."""
        if nbytes <= 0:
            raise ValueError("pread_async of non-positive size")
        spec = SYSCALLS["pread_async"]
        t0 = yield from self._enter(ctx, spec)
        try:
            gpufs = self.gpufs
            handle = gpufs.handle_for(file_id)
            page = gpufs.page_size
            done_at = ctx.now
            pos, end, dst = offset, offset + nbytes, dst_addr
            while pos < end:
                chunk = min(end - pos, page - pos % page)
                done_at = max(done_at, gpufs.batcher.fetch_async(
                    ctx.now, handle, pos, chunk, dst))
                pos += chunk
                dst += chunk
            self.stats.bytes_read += nbytes
            self.stats.tickets_issued += 1
            ticket = SyscallTicket("pread", nbytes, done_at)
        finally:
            yield from self._exit(ctx, spec, t0)
        return ticket

    def pwrite_async(self, ctx: WarpContext, file_id: int, offset: int,
                     nbytes: int, src_addr: int):
        """Timed: start a direct-I/O write that bypasses the page
        cache; returns a :class:`SyscallTicket`.  Resident dirty pages
        of the range are *not* consulted — ``msync`` first when
        mixing cached writes with direct I/O."""
        if nbytes <= 0:
            raise ValueError("pwrite_async of non-positive size")
        self._require_writable(file_id, "pwrite_async")
        spec = SYSCALLS["pwrite_async"]
        t0 = yield from self._enter(ctx, spec)
        try:
            gpufs = self.gpufs
            handle = gpufs.handle_for(file_id)
            data = ctx.memory.read(src_addr, nbytes).copy()
            handle.pwrite(offset, data)
            dev = gpufs.batcher.spec
            done_at = (ctx.now + dev.host_rpc_s * dev.clock_hz
                       + dev.pcie_latency_cycles()
                       + nbytes / dev.pcie_bytes_per_cycle())
            gpufs.batcher.stats.transfers += 1
            gpufs.batcher.stats.bytes_moved += nbytes
            self.stats.bytes_written += nbytes
            self.stats.tickets_issued += 1
            ticket = SyscallTicket("pwrite", nbytes, done_at)
        finally:
            yield from self._exit(ctx, spec, t0)
        return ticket

    def wait(self, ctx: WarpContext, ticket: SyscallTicket):
        """Timed: block until a non-blocking call's ticket completes;
        returns the call's byte count.  Idempotent."""
        if ticket.waited:
            return ticket.nbytes
        t0 = ctx.now
        ctx.push_activity("syscall")
        try:
            remaining = ticket.done_at - ctx.now
            if remaining > 0:
                yield from ctx.sleep(remaining, io_wait=True)
            ticket.waited = True
            self.stats.tickets_waited += 1
            self.stats.blocked_cycles += ctx.now - t0
        finally:
            ctx.pop_activity()
        return ticket.nbytes

    # ------------------------------------------------------------------
    # Shared mechanics
    # ------------------------------------------------------------------
    def _require_writable(self, file_id: int, call: str) -> None:
        handle = self.gpufs.handle_for(file_id)
        if not handle.writable:
            raise FileSystemError(
                f"{call} on fd {file_id} ({handle.name!r}) "
                f"opened read-only")

    def _enter(self, ctx: WarpContext, spec: SyscallSpec):
        """Timed: common call prologue — count, charge, maybe fence."""
        setattr(self.stats, spec.name,
                getattr(self.stats, spec.name) + 1)
        ctx.begin_request()
        ctx.push_activity("syscall")
        ctx.charge(SYSCALL_INSTRS)
        if spec.ordering == ORDER_STRONG:
            yield from ctx.fence()
        return ctx.now

    def _exit(self, ctx: WarpContext, spec: SyscallSpec, t0: float):
        """Timed: common call epilogue — maybe fence, account, trace."""
        if spec.ordering == ORDER_STRONG:
            yield from ctx.fence()
        if spec.blocking:
            self.stats.blocked_cycles += ctx.now - t0
        if ctx.tracer is not None:
            ctx.trace_span("syscall", t0, ctx.now, spec.name)
        ctx.pop_activity()
        ctx.end_request()

    def _for_each_page(self, ctx: WarpContext, file_id: int, offset: int,
                       nbytes: int, buf_addr: int, write: bool):
        """Timed: fault, copy, and release each page of a byte range —
        the Listing-1 loop generalised to both directions."""
        gpufs = self.gpufs
        page = gpufs.page_size
        pos = offset
        end = offset + nbytes
        while pos < end:
            fpn = pos // page
            in_page = pos % page
            chunk = min(end - pos, page - in_page)
            frame_addr = yield from gpufs.handle_fault(
                ctx, file_id, fpn, refs=1, write=write)
            if write:
                yield from self._warp_copy(ctx, buf_addr + (pos - offset),
                                           frame_addr + in_page, chunk)
            else:
                yield from self._warp_copy(ctx, frame_addr + in_page,
                                           buf_addr + (pos - offset),
                                           chunk)
            # Re-mark dirty at release: a concurrent msync may have
            # flushed (and cleaned) the page mid-copy.
            yield from gpufs.release_page(ctx, file_id, fpn, refs=1,
                                          dirty=write)
            pos += chunk

    def _warp_copy(self, ctx: WarpContext, src: int, dst: int,
                   nbytes: int):
        """Warp-cooperative copy between a frame and a warp buffer.

        Each 512-byte step is one 16-byte load and store per lane over
        one contiguous span, carried to memory as :class:`AffineLanes`
        (either end may sit at any in-page offset).  The last
        ``nbytes % 512`` bytes move as one untimed
        :meth:`~repro.gpu.kernel.WarpContext.copy_bytes`, charged as
        ``4 + tail / 8`` instructions."""
        lanes = ctx.warp_size
        step = 16 * lanes
        for off in range(0, nbytes - nbytes % step, step):
            ctx.charge(4)
            vals = yield from ctx.load_wide(AffineLanes(src + off, 16, lanes),
                                            "f4", 4, nonblocking=True)
            yield from ctx.store_wide(AffineLanes(dst + off, 16, lanes),
                                      vals, "f4")
        yield from ctx.fence()
        tail = nbytes % step
        if tail:
            base = nbytes - tail
            ctx.charge(4)
            ctx.copy_bytes(src + base, dst + base, tail)
            yield from ctx.compute(tail / 8)
