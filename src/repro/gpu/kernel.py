"""Kernel authoring interface: warp and threadblock contexts.

A *kernel* is a Python generator function ``kernel(ctx, *args)`` that the
engine instantiates **once per warp**.  Inside, the 32 lanes are
represented by numpy vectors (``ctx.lane``, ``ctx.global_tid`` ...), and
every timed operation is invoked with ``yield from``:

    def copy_kernel(ctx, src, dst, n):
        idx = ctx.global_tid
        vals = yield from ctx.load(src + idx * 4, "f4")
        yield from ctx.store(dst + idx * 4, vals, "f4")

Pure per-lane arithmetic does not need to yield; its cost is recorded via
:meth:`WarpContext.charge` and folded into the next timed operation, the
same way real instructions fill issue slots between memory accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from repro.gpu import warp_primitives as wp
from repro.gpu.instructions import (
    AcquireLock,
    AtomicOp,
    Barrier,
    Compute,
    HostCompute,
    LoadFence,
    MemAccess,
    PcieTransfer,
    ReleaseLock,
    Request,
    ScratchAccess,
    Sleep,
    TimedLock,
)
from repro.gpu.memory import DTYPES, AffineLanes, GlobalMemory, Scratchpad
from repro.gpu.specs import GPUSpec


@dataclass
class BlockContext:
    """State shared by all warps of one threadblock."""

    block_id: int
    threads: int
    warps: int
    scratchpad: Scratchpad
    shared: dict = field(default_factory=dict)

    # Engine-internal barrier bookkeeping.
    barrier_waiting: list = field(default_factory=list)
    live_warps: int = 0
    done_warps: int = 0
    sm_index: int = -1
    # I/O preemption bookkeeping (§VII what-if).
    io_stalled: int = 0
    preempted: bool = False

    def warp_id(self, warp_in_block: int) -> int:
        """Global id of this block's warp ``warp_in_block`` — the one
        rule shared by warp contexts and the engine's warp runners."""
        return self.block_id * self.warps + warp_in_block


class WarpContext:
    """Per-warp execution context handed to kernels.

    Exposes lane identity, global memory access, scratchpad access, warp
    intrinsics, locks, barriers, and the raw ``charge``/``compute`` cost
    hooks used by the ActivePointers layer.
    """

    #: Runtime sanitizer (``repro.analysis.sanitizer``) observing this
    #: warp, or ``None``.  A class attribute so instrumentation sites
    #: (``APtr.__init__``, ``GPUfs.gmmap``, :meth:`copy`) pay one
    #: attribute test when sanitization is off, mirroring the ``tracer
    #: is None`` guard.
    sanitizer = None

    def __init__(self, spec: GPUSpec, memory: GlobalMemory,
                 block: BlockContext, warp_in_block: int, tracer=None):
        self.spec = spec
        self.memory = memory
        self.block = block
        self.tracer = tracer
        self.warp_in_block = warp_in_block
        self.warp_size = spec.warp_size
        self.lane = wp.lane_ids(spec.warp_size)
        self.active = np.ones(spec.warp_size, dtype=bool)
        tid0 = block.block_id * block.threads + warp_in_block * spec.warp_size
        self.global_tid = tid0 + self.lane
        self.block_tid = warp_in_block * spec.warp_size + self.lane
        self._pending_count = 0.0
        self._pending_chain = 0.0
        # Attribution state, only maintained while a tracer is attached
        # (the stall-interval recording of ``repro.telemetry.attribution``):
        # ``_activity`` is a stack of activity tags ("translation",
        # "fault_wait", ...), ``activity`` its innermost tag ('' when
        # empty), and ``_pending_translation`` the ``[count, chain]``
        # share of the pending charge tagged "translation" (``None``
        # until some is charged), which the observer decomposes.
        self._activity: list[str] = []
        self.activity = ""
        self._pending_translation: Optional[list] = None
        # Causal request spans: ``begin_request`` mints a deterministic
        # id at warp fault / syscall entry; every span recorded until
        # the matching ``end_request`` carries it, linking translation,
        # fault handling, readahead and staging for one logical request.
        self._request_depth = 0
        self._request_seq = 0
        self._request_id = ""
        self.now = 0.0

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    @property
    def block_id(self) -> int:
        return self.block.block_id

    @property
    def warp_id(self) -> int:
        return self.block.warp_id(self.warp_in_block)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def trace_span(self, kind: str, start: float, end: float,
                   detail: str = "") -> None:
        """Record a layer-level span (fault handling, page-in, ...).

        No-op without an attached tracer; call sites on hot paths should
        still guard with ``if ctx.tracer is not None`` so they do not
        pay for building ``detail`` strings when tracing is off.
        """
        if self.tracer is None:
            return
        self.tracer.record(self.warp_id, self.block_id, kind, start, end,
                           detail, sm=self.block.sm_index,
                           req=self._request_id)

    def begin_request(self) -> None:
        """Open a causal request scope (pair with :meth:`end_request`,
        ideally via ``try/finally``).

        At the outermost entry a request id ``"<device>:<warp>:<seq>"``
        is minted from simulated state only — deterministic across
        reruns.  Nested begins (a syscall whose page loop faults, a
        fault whose handler issues readahead) reuse the outer id, so
        every span a warp records until the matching end shares one
        request.  No-op without a tracer — zero-cost when tracing is
        off.
        """
        if self.tracer is None:
            return
        if self._request_depth == 0:
            # One engine runs one device, so the device prefix is 0;
            # a cluster merge rebases it to the shard's device index.
            self._request_id = f"0:{self.warp_id}:{self._request_seq}"
            self._request_seq += 1
        self._request_depth += 1

    def end_request(self) -> None:
        """Close the innermost causal request scope."""
        if self.tracer is None:
            return
        if self._request_depth > 0:
            self._request_depth -= 1
            if self._request_depth == 0:
                self._request_id = ""

    def push_activity(self, tag: str) -> None:
        """Enter an attribution activity (pair with :meth:`pop_activity`,
        ideally via ``try/finally``).  While active, charged work and
        yielded requests are tagged ``tag`` so the stall-interval
        recorder can name the reason a warp was not issuing.  No-op
        without a tracer — attribution is zero-cost when off."""
        if self.tracer is not None:
            self._activity.append(tag)
            self.activity = tag

    def pop_activity(self) -> None:
        stack = self._activity
        if self.tracer is not None and stack:
            stack.pop()
            self.activity = stack[-1] if stack else ""

    # ------------------------------------------------------------------
    # Instruction cost accounting
    # ------------------------------------------------------------------
    def charge(self, count: float, chain: Optional[float] = None,
               tag: str = "") -> None:
        """Record ``count`` warp-instructions of un-yielded work.

        The cost is folded into the next timed request the warp issues,
        exactly as real ALU instructions occupy issue slots between
        memory operations.  ``tag`` attributes the work to an activity
        ("translation", ...) for the stall recorder; it defaults to the
        innermost :meth:`push_activity` tag.  Only while a tracer is
        attached is work tagged "translation" summed into the pair the
        next request carries (``Request.translation_charge``) — timing
        is identical either way.
        """
        chain = count if chain is None else chain
        self._pending_count += count
        self._pending_chain += chain
        if self.tracer is not None and (tag or self.activity) \
                == "translation":
            pair = self._pending_translation
            if pair is None:
                self._pending_translation = [count, chain]
            else:
                pair[0] += count
                pair[1] += chain

    def _take_pending(self) -> tuple[float, float, Optional[list]]:
        count, chain = self._pending_count, self._pending_chain
        self._pending_count = 0.0
        self._pending_chain = 0.0
        pair = self._pending_translation
        self._pending_translation = None
        return count, chain, pair

    def _tagged(self, req: Request, translation: Optional[list]) -> Request:
        """Attach attribution metadata to an outgoing request (only when
        a tracer is attached; otherwise the class defaults stay):
        the activity tag and the ``translation`` charge pair."""
        if self.tracer is not None:
            tag = self.activity
            if tag:
                req.tag = tag
            if translation is not None:
                req.translation_charge = translation
        return req

    def compute(self, count: float, chain: Optional[float] = None
                ) -> Iterator[Request]:
        """Explicitly execute a block of ALU work now."""
        pc, pch, pair = self._take_pending()
        chain = count if chain is None else chain
        self.now = yield self._tagged(
            Compute(count=count + pc, chain=chain + pch), pair)

    def flush(self) -> Iterator[Request]:
        """Flush any pending charged instructions as a compute op."""
        pc, pch, pair = self._take_pending()
        if pc or pch:
            self.now = yield self._tagged(Compute(count=pc, chain=pch),
                                          pair)

    # ------------------------------------------------------------------
    # Global memory
    # ------------------------------------------------------------------
    def load(self, addrs, dtype: str = "f4", mask=None,
             overlap_chain: float = 0.0, post_chain: float = 0.0,
             chain_tag: str = "") -> Iterator[Request]:
        """Warp-wide gather from global memory.

        ``addrs``, here and in the accessors below, is a per-lane
        address vector, one scalar address for every lane, or
        :class:`~repro.gpu.memory.AffineLanes`.

        ``overlap_chain`` and ``post_chain`` support the speculative
        prefetch optimisation (§IV-B): the overlap chain runs while the
        data is in flight; the post chain runs after it arrives.
        ``chain_tag`` attributes those chains to an activity for the
        stall recorder (the translation layer passes ``"translation"``).
        """
        # The pending charge is taken inline (as in :meth:`_take_pending`)
        # and the request tagged only under a tracer: the apointer layer
        # issues one of these per dereference.
        if type(addrs) is not AffineLanes:
            addrs = self._addr_vec(addrs)
        memory = self.memory
        req = MemAccess(
            memory.transactions_for(addrs, DTYPES[dtype].itemsize, mask),
            False, self._pending_count, self._pending_chain,
            overlap_chain, post_chain)
        self._pending_count = self._pending_chain = 0.0
        if self.tracer is not None:
            self._tagged(req, self._pending_translation)
            self._pending_translation = None
            if chain_tag:
                req.chain_tag = chain_tag
        self.now = yield req
        return memory.load_vector(addrs, dtype, mask)

    def store(self, addrs, values, dtype: str = "f4", mask=None
              ) -> Iterator[Request]:
        """Warp-wide scatter to global memory (write-back, non-stalling)."""
        if type(addrs) is not AffineLanes:
            addrs = self._addr_vec(addrs)
        memory = self.memory
        tx = memory.transactions_for(addrs, DTYPES[dtype].itemsize, mask)
        memory.store_vector(addrs, values, dtype, mask)
        req = MemAccess(tx, True, self._pending_count, self._pending_chain)
        self._pending_count = self._pending_chain = 0.0
        if self.tracer is not None:
            self._tagged(req, self._pending_translation)
            self._pending_translation = None
        self.now = yield req

    def load_wide(self, addrs, dtype: str = "f4", elems: int = 4,
                  mask=None, overlap_chain: float = 0.0,
                  post_chain: float = 0.0,
                  nonblocking: bool = False,
                  chain_tag: str = "") -> Iterator[Request]:
        """Vector load: ``elems`` consecutive elements per lane in one
        memory transaction group (the 8/16-byte loads of §VI-A/B).

        ``nonblocking`` issues the load without waiting for the data
        (memory-level parallelism); call :meth:`fence` before using the
        values' timing-wise.
        """
        addrs = self._addr_vec(addrs)
        width = DTYPES[dtype].itemsize * elems
        tx = self.memory.transactions_for(addrs, width, mask=mask)
        pc, pch, pair = self._take_pending()
        req = MemAccess(transactions=tx, is_store=False, count=pc,
                        chain=pch, overlap_chain=overlap_chain,
                        post_chain=post_chain,
                        nonblocking=nonblocking)
        if chain_tag and self.tracer is not None:
            req.chain_tag = chain_tag
        self.now = yield self._tagged(req, pair)
        return self.memory.load_vector_wide(addrs, dtype, elems, mask=mask)

    def fence(self) -> Iterator[Request]:
        """Wait for all outstanding non-blocking loads to arrive."""
        yield from self.flush()
        self.now = yield LoadFence()

    def store_wide(self, addrs, values, dtype: str = "f4",
                   mask=None) -> Iterator[Request]:
        """Vector store: ``values`` of shape (lanes, elems) written as one
        wide access per lane."""
        addrs = self._addr_vec(addrs)
        values = np.asarray(values)
        elems = values.shape[1]
        width = DTYPES[dtype].itemsize
        tx = self.memory.transactions_for(addrs, width * elems, mask=mask)
        self.memory.store_vector_wide(addrs, values, dtype, mask=mask)
        pc, pch, pair = self._take_pending()
        self.now = yield self._tagged(
            MemAccess(transactions=tx, is_store=True, count=pc,
                      chain=pch), pair)

    def load_scalar(self, addr: int, dtype: str = "u8") -> Iterator[Request]:
        """Single-address load performed by the warp leader.

        The request is the one-lane :meth:`load` of
        ``AffineLanes(addr, itemsize, 1)``: the same closed-form count,
        charge and attribution.  One lane is one contiguous span, so the
        word is read as one slice after the yield, behind the same
        bounds check and message as the vector path."""
        dt = DTYPES[dtype]
        w = dt.itemsize
        addr = int(addr)
        memory = self.memory
        req = MemAccess(
            memory.transactions_for(AffineLanes(addr, w, 1), w),
            False, self._pending_count, self._pending_chain)
        self._pending_count = self._pending_chain = 0.0
        if self.tracer is not None:
            self._tagged(req, self._pending_translation)
            self._pending_translation = None
        self.now = yield req
        if addr < 0 or addr + w > memory.size:
            raise memory._span_error(addr, addr + w)
        return memory.data[addr:addr + w].view(dt)[0]

    def store_scalar(self, addr: int, value, dtype: str = "u8"
                     ) -> Iterator[Request]:
        """Single-address store performed by the warp leader: the
        one-lane :meth:`store` of ``AffineLanes(addr, itemsize, 1)``,
        written as one slice like :meth:`load_scalar` reads."""
        dt = DTYPES[dtype]
        w = dt.itemsize
        addr = int(addr)
        memory = self.memory
        tx = memory.transactions_for(AffineLanes(addr, w, 1), w)
        if addr < 0 or addr + w > memory.size:
            raise memory._span_error(addr, addr + w)
        memory.data[addr:addr + w].view(dt)[0] = value
        req = MemAccess(tx, True, self._pending_count, self._pending_chain)
        self._pending_count = self._pending_chain = 0.0
        if self.tracer is not None:
            self._tagged(req, self._pending_translation)
            self._pending_translation = None
        self.now = yield req

    def copy(self, src: int, dst: int, nbytes: int) -> Iterator[Request]:
        """Warp-wide timed copy of ``nbytes`` from ``src`` to ``dst``,
        yielded to the engine as one run of requests.

        Each step is a load and a store of 8 bytes per lane, charged 4
        instructions.  A full step's counts come in closed form from
        :meth:`GlobalMemory.span_transactions`, the formula of the
        coalescer's affine branch; a partial last step masks off the
        lanes past ``nbytes`` and is counted as lane vectors; the last
        ``nbytes % 8`` bytes are an untimed tail.  The first load takes
        the pending charge, and after it equal requests are one shared
        object: the engine mutates only a request it slices, and no
        later step carries more than ``Engine.ISSUE_SLICE``.  Under a
        tracer each step carries the tag and translation charge pair of
        its charge; under a sanitizer each step records its store.

        The bytes move as one slice before the run is yielded, so a
        span out of bounds raises before any request.  That is exact
        only while no other warp can observe either span between the
        steps (see ``docs/engine.md``, "Request runs"); the spans must
        not overlap."""
        mem = self.memory
        mem.write(dst, mem.read(src, nbytes).copy())
        width = 8
        lane = self.lane
        step = width * self.warp_size
        san = self.sanitizer
        tag = self.activity if self.tracer is not None else ""
        # Lanes wider than a segment are counted per lane, as
        # ``transactions_for`` counts them.
        closed = width <= mem.transaction_bytes
        span = mem.span_transactions
        # The requests shared by equal steps, keyed by transactions.
        loads: dict[int, MemAccess] = {}
        stores: dict[int, MemAccess] = {}
        run = []
        for off in range(0, nbytes, step):
            full = off + step <= nbytes
            if full and closed:
                mask = None
                tx_src = span(src + off, step)
                tx_dst = span(dst + off, step)
            else:
                lane_off = off + lane * width
                mask = None if full else lane_off + width <= nbytes
                tx_src = mem.transactions_for(src + lane_off, width, mask)
                tx_dst = mem.transactions_for(dst + lane_off, width, mask)
            if run:
                load = loads.get(tx_src)
                if load is None:
                    load = loads[tx_src] = MemAccess(tx_src, False, 4.0, 4.0)
                    if tag:
                        load.tag = tag
                        if tag == "translation":
                            load.translation_charge = [4, 4]
            else:
                self.charge(4)
                pc, pch, pair = self._take_pending()
                load = self._tagged(MemAccess(tx_src, False, pc, pch), pair)
            store = stores.get(tx_dst)
            if store is None:
                store = stores[tx_dst] = MemAccess(tx_dst, True)
                if tag:
                    store.tag = tag
            if san is not None:
                san.note_store(self, dst + off + lane * width, width, mask)
            run.append(load)
            run.append(store)
        tail = nbytes % width
        if tail and san is not None:
            san.note_store(self, np.full(1, dst + nbytes - tail, np.int64),
                           tail, None)
        if run:
            self.now = yield tuple(run)

    def copy_bytes(self, src: int, dst: int, nbytes: int) -> None:
        """Untimed copy of ``nbytes`` from ``src`` to ``dst`` by this warp:
        the sub-step tail of a warp copy, whose cost the caller charges.
        A sanitized context records it as one store of the whole span."""
        self.memory.write(dst, self.memory.read(src, nbytes).copy())

    def atomic_add(self, addr: int, value: int = 1,
                   dtype: str = "i8") -> Iterator[Request]:
        """Scalar atomic add at a global address; returns the old value
        (a Python int, or a float for a float dtype).

        An integer sum wraps two's-complement at the dtype's width, as
        CUDA ``atomicAdd`` does."""
        dt = DTYPES[dtype]
        addr = int(addr)
        word = self.memory.read(addr, dt.itemsize).view(dt)
        old = word.item()
        if dt.kind == "f":
            word[0] = old + value
        else:
            bits = 8 * dt.itemsize
            new = (old + int(value)) & ((1 << bits) - 1)
            if dt.kind == "i" and new >> (bits - 1):
                new -= 1 << bits
            word[0] = new
        req = AtomicOp(addr)
        if self.tracer is not None:
            self._tagged(req, None)
        self.now = yield req
        return old

    # ------------------------------------------------------------------
    # Scratchpad
    # ------------------------------------------------------------------
    def scratch(self, count: float = 1.0) -> Iterator[Request]:
        """Charge a scratchpad access (data lives in ``block.scratchpad``)."""
        pc, pch, pair = self._take_pending()
        if pc or pch:
            self.now = yield self._tagged(Compute(count=pc, chain=pch),
                                          pair)
        self.now = yield self._tagged(ScratchAccess(count=count), None)

    # ------------------------------------------------------------------
    # Warp intrinsics (single-instruction cost, charged lazily)
    # ------------------------------------------------------------------
    def ballot(self, pred) -> int:
        self.charge(1)
        return wp.ballot(pred, self.active)

    def all(self, pred) -> bool:
        self.charge(1)
        return wp.all_sync(pred, self.active)

    def any(self, pred) -> bool:
        self.charge(1)
        return wp.any_sync(pred, self.active)

    def shfl(self, values, src_lane: int) -> np.ndarray:
        self.charge(1)
        return wp.shfl(values, src_lane)

    def shfl_xor(self, values, lane_mask: int) -> np.ndarray:
        self.charge(1)
        return wp.shfl_xor(values, lane_mask)

    def shfl_down(self, values, delta: int) -> np.ndarray:
        self.charge(1)
        return wp.shfl_down(values, delta)

    @staticmethod
    def ffs(mask: int) -> int:
        return wp.ffs(mask)

    @staticmethod
    def popc(mask: int) -> int:
        return wp.popc(mask)

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------
    def syncthreads(self) -> Iterator[Request]:
        yield from self.flush()
        self.now = yield Barrier()

    def lock(self, lock: TimedLock) -> Iterator[Request]:
        yield from self.flush()
        self.now = yield self._tagged(AcquireLock(lock), None)

    def unlock(self, lock: TimedLock) -> Iterator[Request]:
        self.now = yield ReleaseLock(lock)

    # ------------------------------------------------------------------
    # Host interaction (used by the paging layer)
    # ------------------------------------------------------------------
    def pcie(self, nbytes: int, to_device: bool = True,
             latency_free: bool = False) -> Iterator[Request]:
        yield from self.flush()
        self.now = yield self._tagged(
            PcieTransfer(nbytes=int(nbytes), to_device=to_device,
                         latency_free=latency_free), None)

    def host_compute(self, seconds: float) -> Iterator[Request]:
        self.now = yield self._tagged(
            HostCompute(seconds=float(seconds)), None)

    def sleep(self, cycles: float, io_wait: bool = False,
              until: Optional[Callable[[], bool]] = None
              ) -> Iterator[Request]:
        """Stall for ``cycles``.  With ``until``, keep stalling in steps
        of ``cycles`` until a poll after one returns true; the engine
        makes the polls, so the warp resumes once."""
        self.now = yield self._tagged(
            Sleep(cycles=float(cycles), io_wait=io_wait, until=until),
            None)

    def clock(self) -> Iterator[Request]:
        """Return the current simulated cycle count (GPU ``clock()``).

        Flushes charged-but-pending instructions first, so a timed
        region includes the cost of the arithmetic inside it.
        """
        yield from self.flush()
        self.now = yield Sleep(cycles=0.0)
        return self.now

    # ------------------------------------------------------------------
    def _addr_vec(self, addrs) -> np.ndarray | AffineLanes:
        """Lane addresses as memory takes them: an int64 vector (a scalar
        broadcast to every lane), or :class:`AffineLanes` passed through
        for the memory layer's closed form."""
        if type(addrs) is AffineLanes:
            return addrs
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.ndim == 0:
            addrs = np.full(self.warp_size, int(addrs), dtype=np.int64)
        return addrs


KernelFn = Callable[..., Iterator[Request]]
