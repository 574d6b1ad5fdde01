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

import struct
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
    Request,
    ScratchAccess,
    Sleep,
    TimedLock,
)
from repro.gpu.memory import DTYPES, AffineLanes, GlobalMemory, Scratchpad
from repro.gpu.specs import GPUSpec


class _Word(struct.Struct):
    """One integer dtype's word: its packer, in native byte order at
    the standard size (the layout ``GlobalMemory.data`` holds a word
    in), and the dtype's value range, ``lo`` to ``hi``."""

    __slots__ = ("lo", "hi")

    def __init__(self, code: str, dtype: str):
        super().__init__("=" + code)
        info = np.iinfo(DTYPES[dtype])
        self.lo = int(info.min)
        self.hi = int(info.max)


#: The integer dtypes' words, by dtype name.  The leader's scalar
#: accesses move an integer word with these; a float word, and a stored
#: value a word's packer does not take, keep the numpy form.
_WORDS = {name: _Word(code, name) for name, code in (
    ("u1", "B"), ("i1", "b"), ("u2", "H"), ("i2", "h"),
    ("u4", "I"), ("i4", "i"), ("u8", "Q"), ("i8", "q"))}


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
    hooks used by the ActivePointers layer.  It records nothing for
    telemetry: a launch under a tracer runs :class:`TracedWarpContext`,
    which adds the attribution tags and request spans.
    """

    #: Runtime sanitizer (``repro.analysis.sanitizer``) observing this
    #: warp, and tracer recording its spans, or ``None``.  Class
    #: attributes, so instrumentation sites (``APtr.__init__``,
    #: ``GPUfs.gmmap``, :meth:`copy`, the layers' spans) pay one
    #: attribute test when either is off.
    sanitizer = None
    tracer = None
    #: The constructors ``store``, the leader's accessors and
    #: ``atomic_add`` build their request with: the request classes, so
    #: an untraced access calls nothing more.  TracedWarpContext's
    #: methods of these names tag what they build.
    _access = MemAccess
    _atomic = AtomicOp

    def __init__(self, spec: GPUSpec, memory: GlobalMemory,
                 block: BlockContext, warp_in_block: int):
        self.spec = spec
        self.memory = memory
        self.block = block
        self.warp_in_block = warp_in_block
        self.warp_size = spec.warp_size
        self.lane = wp.lane_ids(spec.warp_size)
        self.active = np.ones(spec.warp_size, dtype=bool)
        tid0 = block.block_id * block.threads + warp_in_block * spec.warp_size
        self.global_tid = tid0 + self.lane
        self.block_tid = warp_in_block * spec.warp_size + self.lane
        self._pending_count = 0.0
        self._pending_chain = 0.0
        # The warp's ``ScratchAccess`` of each count, keyed by the
        # count's exact type and value (``1`` and ``1.0`` stay apart).
        # A zero, whose sign the key cannot tell, and NaN are built
        # fresh every time.
        self._scratch: dict[tuple[type, float], ScratchAccess] = {}
        self.now = 0.0

    # ------------------------------------------------------------------
    # Identity helpers and telemetry
    # ------------------------------------------------------------------
    @property
    def block_id(self) -> int:
        return self.block.block_id

    @property
    def warp_id(self) -> int:
        return self.block.warp_id(self.warp_in_block)

    def _untraced(self, *args, **kwargs) -> None:
        """What an untraced warp does to record telemetry: nothing."""

    # Spans, causal request scopes and attribution activities, which
    # only TracedWarpContext records.
    trace_span = begin_request = end_request = push_activity = \
        pop_activity = _untraced

    # ------------------------------------------------------------------
    # Instruction cost accounting
    # ------------------------------------------------------------------
    def charge(self, count: float, chain: Optional[float] = None,
               tag: str = "") -> None:
        """Record ``count`` warp-instructions of un-yielded work.

        The cost is folded into the next timed request the warp issues,
        exactly as real ALU instructions occupy issue slots between
        memory operations.  ``tag`` attributes the work to an activity
        ("translation", ...) for the stall recorder, which only a traced
        warp keeps (:meth:`TracedWarpContext.charge`).
        """
        self._pending_count += count
        self._pending_chain += count if chain is None else chain

    def _take_pending(self) -> tuple[float, float, Optional[list]]:
        """Take the pending charge: its count, chain and translation
        pair, which only a traced warp keeps."""
        count, chain = self._pending_count, self._pending_chain
        self._pending_count = self._pending_chain = 0.0
        return count, chain, None

    def _tagged(self, req: Request, translation: Optional[list],
                chain_tag: str = "") -> Request:
        """``req`` with its attribution metadata, which only a traced
        warp attaches (:meth:`TracedWarpContext._tagged`)."""
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
        return self._after_flush(None)

    def _after_flush(self, req: Optional[Request]) -> Iterator[Request]:
        """Yield the pending charge, taken by :meth:`_take_pending`, as
        one ``Compute`` when any is pending, then ``req`` unless it is
        ``None``: every primitive that flushes first returns this."""
        pc, pch, pair = self._take_pending()
        if pc or pch:
            self.now = yield self._tagged(Compute(pc, pch), pair)
        if req is not None:
            self.now = yield req

    # ------------------------------------------------------------------
    # Global memory
    # ------------------------------------------------------------------
    # ``load``, ``store`` and the leader's accessors take the pending
    # charge inline (as in ``_take_pending``), one per access.
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
        if type(addrs) is not AffineLanes:
            addrs = self._addr_vec(addrs)
        memory = self.memory
        req = MemAccess(
            memory.transactions_for(addrs, DTYPES[dtype].itemsize, mask),
            False, self._pending_count, self._pending_chain,
            overlap_chain, post_chain)
        self._pending_count = self._pending_chain = 0.0
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
        req = self._access(tx, True, self._pending_count,
                           self._pending_chain)
        self._pending_count = self._pending_chain = 0.0
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
        self.now = yield self._tagged(
            MemAccess(tx, False, pc, pch, overlap_chain, post_chain,
                      nonblocking), pair, chain_tag)
        return self.memory.load_vector_wide(addrs, dtype, elems, mask=mask)

    def fence(self) -> Iterator[Request]:
        """Wait for all outstanding non-blocking loads to arrive."""
        return self._after_flush(LoadFence())

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
        ``AffineLanes(addr, itemsize, 1)``: the same count, charge and
        attribution.  One lane is one contiguous span, so a word no
        wider than a segment is counted by
        :meth:`GlobalMemory.span_transactions`, the closed form
        ``transactions_for`` would apply to that lane, and the word is
        read after the yield, behind the same bounds check and
        message as the vector path: an integer word by its packer in
        ``_WORDS``, returned as the dtype's scalar type, a float word as
        one slice."""
        dt = DTYPES[dtype]
        w = dt.itemsize
        addr = int(addr)
        memory = self.memory
        tx = (memory.span_transactions(addr, w)
              if w <= memory.transaction_bytes
              else memory.transactions_for(AffineLanes(addr, w, 1), w))
        req = self._access(tx, False, self._pending_count,
                           self._pending_chain)
        self._pending_count = self._pending_chain = 0.0
        self.now = yield req
        if addr < 0 or addr + w > memory.size:
            raise memory._span_error(addr, addr + w)
        word = _WORDS.get(dtype)
        if word is None:
            return memory.data[addr:addr + w].view(dt)[0]
        return dt.type(word.unpack_from(memory.data, addr)[0])

    def store_scalar(self, addr: int, value, dtype: str = "u8"
                     ) -> Iterator[Request]:
        """Single-address store performed by the warp leader: the
        one-lane :meth:`store` of ``AffineLanes(addr, itemsize, 1)``,
        counted as :meth:`load_scalar` counts.  A Python ``int`` in an
        integer dtype's range is packed as :meth:`load_scalar` reads;
        any other value takes that one-lane store's own path, which
        converts the value before it checks the address."""
        dt = DTYPES[dtype]
        w = dt.itemsize
        addr = int(addr)
        memory = self.memory
        tx = (memory.span_transactions(addr, w)
              if w <= memory.transaction_bytes
              else memory.transactions_for(AffineLanes(addr, w, 1), w))
        # The range is tested first: ``pack_into`` zeroes the word
        # before it refuses a value.
        word = _WORDS.get(dtype)
        if word is not None and type(value) is int \
                and word.lo <= value <= word.hi:
            if addr < 0 or addr + w > memory.size:
                raise memory._span_error(addr, addr + w)
            word.pack_into(memory.data, addr, value)
        else:
            memory.store_vector(AffineLanes(addr, w, 1), [value], dtype)
        req = self._access(tx, True, self._pending_count,
                           self._pending_chain)
        self._pending_count = self._pending_chain = 0.0
        self.now = yield req

    def copy(self, src: int, dst: int, nbytes: int) -> Iterator[Request]:
        """Warp-wide timed copy of ``nbytes`` from ``src`` to ``dst``,
        yielded to the engine as one run of requests.  Each step is a
        load and a store of 8 bytes per lane, charged 4 instructions.  A
        full step's counts come in closed form from
        :meth:`GlobalMemory.span_transactions`, the formula of the
        coalescer's affine branch; a partial last step masks off the
        lanes past ``nbytes`` and is counted as lane vectors; the last
        ``nbytes % 8`` bytes are an untimed tail.  The first load takes
        the pending charge, and after it equal requests are one object,
        built (and tagged) once per copy: the engine mutates only a
        request it slices, and no later step carries more than
        ``Engine.ISSUE_SLICE``.  Under a sanitizer each step records its
        store.

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
            load = loads.get(tx_src) if run else None
            if load is None:
                self.charge(4)
                pc, pch, pair = self._take_pending()
                load = self._tagged(MemAccess(tx_src, False, pc, pch), pair)
                if run:
                    loads[tx_src] = load
            store = stores.get(tx_dst)
            if store is None:
                store = stores[tx_dst] = self._tagged(
                    MemAccess(tx_dst, True), None)
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
        CUDA ``atomicAdd`` does, and its word moves by its packer in
        ``_WORDS``; a float word moves through a typed view."""
        dt = DTYPES[dtype]
        addr = int(addr)
        memory = self.memory
        word = _WORDS.get(dtype)
        if word is None:
            view = memory.read(addr, dt.itemsize).view(dt)
            old = view.item()
            view[0] = old + value
        else:
            memory._check(addr, dt.itemsize)
            data = memory.data
            old = word.unpack_from(data, addr)[0]
            bits = 8 * dt.itemsize
            new = (old + int(value)) & ((1 << bits) - 1)
            if dt.kind == "i" and new >> (bits - 1):
                new -= 1 << bits
            word.pack_into(data, addr, new)
        self.now = yield self._atomic(addr)
        return old

    # ------------------------------------------------------------------
    # Scratchpad
    # ------------------------------------------------------------------
    def scratch(self, count: float = 1.0) -> Iterator[Request]:
        """Charge a scratchpad access (data lives in ``block.scratchpad``)
        with the warp's one shared request of this ``count``
        (``_scratch``)."""
        key = (type(count), count)
        req = self._scratch.get(key)
        if req is None:
            req = ScratchAccess(count)
            if count and count == count:
                self._scratch[key] = req
        return self._after_flush(req)

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
        return self._after_flush(Barrier())

    def lock(self, lock: TimedLock) -> Iterator[Request]:
        """Acquire ``lock`` with its own ``AcquireLock``."""
        return self._after_flush(lock.acquire)

    def unlock(self, lock: TimedLock) -> Iterator[Request]:
        """Release ``lock`` with its own ``ReleaseLock``, never tagged."""
        self.now = yield lock.release

    # ------------------------------------------------------------------
    # Host interaction (used by the paging layer)
    # ------------------------------------------------------------------
    def pcie(self, nbytes: int, to_device: bool = True,
             latency_free: bool = False) -> Iterator[Request]:
        return self._after_flush(self._tagged(
            PcieTransfer(nbytes=int(nbytes), to_device=to_device,
                         latency_free=latency_free), None))

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
        yield from self._after_flush(Sleep(cycles=0.0))
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


class TracedWarpContext(WarpContext):
    """A :class:`WarpContext` under a tracer, with the same timing: it
    records layer spans, mints causal request ids and tags its requests
    for the stall-interval recorder (``repro.telemetry.attribution``).
    Only this class tags, and only requests built fresh: its own
    scratchpad and lock requests, and those the base class builds
    through :meth:`_tagged` and the constructor hooks ``_access`` and
    ``_atomic``."""

    def __init__(self, spec: GPUSpec, memory: GlobalMemory,
                 block: BlockContext, warp_in_block: int, tracer):
        super().__init__(spec, memory, block, warp_in_block)
        self.tracer = tracer
        # The activity tags' stack and its innermost tag ('' when empty),
        # and the ``[count, chain]`` share of the pending charge tagged
        # "translation" (``None`` until some is charged).
        self._activity: list[str] = []
        self.activity = ""
        self._pending_translation: Optional[list] = None
        # The causal request scope's depth, its id and the next id's seq.
        self._request_depth = 0
        self._request_seq = 0
        self._request_id = ""

    def trace_span(self, kind: str, start: float, end: float,
                   detail: str = "") -> None:
        """Record a layer-level span (fault handling, page-in, ...); hot
        call sites test ``ctx.tracer`` first, to build no ``detail``."""
        self.tracer.record(self.warp_id, self.block_id, kind, start, end,
                           detail, sm=self.block.sm_index,
                           req=self._request_id)

    def begin_request(self) -> None:
        """Open a causal request scope (pair with :meth:`end_request`,
        ideally via ``try/finally``): every span the warp records until
        the matching end carries its id, ``"<device>:<warp>:<seq>"``,
        minted from simulated state by the outermost begin and shared by
        nested ones (a syscall whose page loop faults, a fault whose
        handler issues readahead)."""
        if self._request_depth == 0:
            # One engine runs one device, so the device prefix is 0;
            # a cluster merge rebases it to the shard's device index.
            self._request_id = f"0:{self.warp_id}:{self._request_seq}"
            self._request_seq += 1
        self._request_depth += 1

    def end_request(self) -> None:
        if self._request_depth > 0:
            self._request_depth -= 1
            if self._request_depth == 0:
                self._request_id = ""

    def push_activity(self, tag: str) -> None:
        """Enter an attribution activity (pair with :meth:`pop_activity`,
        ideally via ``try/finally``): charged work and yielded requests
        are tagged ``tag``, the reason a stalled warp is not issuing."""
        self._activity.append(tag)
        self.activity = tag

    def pop_activity(self) -> None:
        stack = self._activity
        if stack:
            stack.pop()
            self.activity = stack[-1] if stack else ""

    def charge(self, count: float, chain: Optional[float] = None,
               tag: str = "") -> None:
        """:meth:`WarpContext.charge`, with work tagged "translation"
        (``tag``, else the innermost activity) summed into the pair the
        next request carries (``Request.translation_charge``)."""
        chain = count if chain is None else chain
        self._pending_count += count
        self._pending_chain += chain
        if (tag or self.activity) == "translation":
            pair = self._pending_translation
            if pair is None:
                self._pending_translation = [count, chain]
            else:
                pair[0] += count
                pair[1] += chain

    def _take_pending(self) -> tuple[float, float, Optional[list]]:
        count, chain, _ = super()._take_pending()
        pair, self._pending_translation = self._pending_translation, None
        return count, chain, pair

    def _tagged(self, req: Request, translation: Optional[list],
                chain_tag: str = "") -> Request:
        tag = self.activity
        if tag:
            req.tag = tag
        if translation is not None:
            req.translation_charge = translation
        if chain_tag:
            req.chain_tag = chain_tag
        return req

    def _access(self, *fields) -> MemAccess:
        pair, self._pending_translation = self._pending_translation, None
        return self._tagged(MemAccess(*fields), pair)

    def _atomic(self, addr: int) -> AtomicOp:
        return self._tagged(AtomicOp(addr), None)

    def load(self, addrs, dtype: str = "f4", mask=None,
             overlap_chain: float = 0.0, post_chain: float = 0.0,
             chain_tag: str = "") -> Iterator[Request]:
        # The base ``load`` with a tagged request: the one accessor with
        # a ``chain_tag``, which the constructor hook cannot take.
        if type(addrs) is not AffineLanes:
            addrs = self._addr_vec(addrs)
        memory = self.memory
        req = self._access(
            memory.transactions_for(addrs, DTYPES[dtype].itemsize, mask),
            False, self._pending_count, self._pending_chain,
            overlap_chain, post_chain)
        self._pending_count = self._pending_chain = 0.0
        if chain_tag:
            req.chain_tag = chain_tag
        self.now = yield req
        return memory.load_vector(addrs, dtype, mask)

    def scratch(self, count: float = 1.0) -> Iterator[Request]:
        return self._after_flush(self._tagged(ScratchAccess(count), None))

    def lock(self, lock: TimedLock) -> Iterator[Request]:
        return self._after_flush(self._tagged(AcquireLock(lock), None))


KernelFn = Callable[..., Iterator[Request]]
