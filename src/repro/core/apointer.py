"""The ActivePointer: a pointer with software address translation.

An :class:`APtr` is a *warp-level* object holding per-lane pointer state,
matching how the real implementation lives in each thread's registers
while executing in SIMT lockstep.  Each lane has its own position, valid
bit, and cached aphysical address; lanes may point into different pages.

State machine (paper Figure 4):

* **uninitialized** — fresh object before a mapping is attached (here:
  construction via ``AVM.gvmmap`` initializes immediately);
* **unlinked** — the lane holds an xAddress (backing-store position);
  dereferencing triggers a page fault handled on the GPU;
* **linked** — the lane holds an aphysical address and a reference to an
  *active page* whose mapping cannot change; dereferencing is page-fault
  free and needs no table lookup.

Transitions: first access links (page fault); pointer arithmetic that
leaves the current page unlinks (proactively dropping the reference —
the paper's heuristic for keeping pinned pages few); assignment from
another apointer copies the position but stays unlinked; destruction
unlinks everything.

Alongside the lane arrays each pointer keeps a small *warp summary*
(whether any / every lane is linked, the page and frame every lane
shares, the lane position range and stride, and a power-of-two
alignment bound).  The fault-free, warp-uniform dereference tests only
those scalars — the simulator's analogue of the single ``__all`` vote —
and anything they cannot prove (divergent lanes, masked lanes out of
range, a page crossing) takes the per-lane vector path.  An unmasked
dereference of lanes one element apart on one shared page reaches
memory as :class:`~repro.gpu.memory.AffineLanes`, one coalesced span,
rather than 32 addresses.  The summary has a *link* part and a
*position* part, and each is kept current where it changes: faults and
unlinks refresh only the link part (in O(1) when one group links, or
an unlink drops, the whole warp), a per-lane ``add`` refreshes only the
position part, and a scalar ``add`` shifts it in O(1).

Page faults use the warp-level *translation aggregation* of Listing 1:
subgroups of lanes that fault on the same page elect a leader with
``__ballot``/``__ffs``, broadcast the backing address with ``__shfl``,
aggregate the reference count with ``__popc``, and the leader alone
touches shared data structures — which is what makes the handler
deadlock-free.  The subgroups are fixed before the loop's first round,
so the simulator finds them in one pass and charges each as the round
that handles it; unlinking groups lanes the same way.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.core import translation as tr
from repro.core.calibration import CostModel, cost_model_for
from repro.core.config import APConfig, ImplVariant, PtrFormat
from repro.gpu import warp_primitives as wp
from repro.gpu.kernel import WarpContext
from repro.gpu.memory import DTYPES, AffineLanes


class APtrState(enum.Enum):
    UNINITIALIZED = "uninitialized"
    UNLINKED = "unlinked"
    LINKED = "linked"
    MIXED = "mixed"          # some lanes linked, some not


class ProtectionError(Exception):
    """An access violated the mapping's page permissions."""


class BoundsError(IndexError):
    """An access fell outside the mapped region."""


class APtr:
    """An active pointer over one mapped region (one per warp)."""

    def __init__(self, ctx: WarpContext, avm, backend, base_offset: int,
                 size: int, write: bool):
        # -- metadata (local memory; only touched on faults, §IV-A) --
        self.avm = avm
        self.backend = backend
        self.base_offset = int(base_offset)
        self.size = int(size)
        self.readable = True
        self.writable = bool(write)
        self.config: APConfig = avm.config
        self.cost: CostModel = cost_model_for(avm.config)
        cm = self.cost
        self.page_size: int = backend.page_size
        # Charges the configuration fixes, summed once per pointer:
        # ``(count, chain)`` of an ``add`` and of a dereference, and the
        # serial chain of the valid-bit vote, which under speculative
        # prefetch overlaps the memory access (§IV-B).
        self._arith = (cm.arith_count + cm.fmt_extra_count,
                       cm.arith_chain + cm.fmt_extra_chain)
        self._deref_cost = (cm.deref_count + cm.fmt_extra_count,
                            cm.deref_chain + cm.fmt_extra_chain)
        self._vote_chain = (0 if avm.config.variant is ImplVariant.PREFETCH
                            else 1)
        # The page cache whose entries a write marks dirty, or ``None``
        # (device memory, DSM): then a write marks nothing.
        self._gpufs = getattr(backend, "gpufs", None)
        n = ctx.warp_size
        # -- per-lane translation state (hardware registers) --
        self.pos = np.zeros(n, dtype=np.int64)
        self.valid = np.zeros(n, dtype=bool)
        self.frame_addr = np.zeros(n, dtype=np.int64)
        self.linked_xpage = np.full(n, -1, dtype=np.int64)
        self.tlb_backed = np.zeros(n, dtype=bool)
        # Whether each lane's link was established by a write fault; a
        # write through a read-only link must re-fault (the upgrade
        # fault that lets paging backends observe S->M transitions).
        self.linked_write = np.zeros(n, dtype=bool)
        self._summarize()
        if ctx.sanitizer is not None:
            ctx.sanitizer.register_aptr(ctx, self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pos(self) -> np.ndarray:
        """Each lane's byte position in the mapping.  A scalar ``add``
        only accumulates ``_shift``; the lanes move when next read."""
        if self._shift:
            self._pos = self._pos + self._shift
            self._shift = 0
        return self._pos

    @pos.setter
    def pos(self, value: np.ndarray) -> None:
        self._pos = value
        self._shift = 0

    @property
    def state(self) -> APtrState:
        if self._all_linked:
            return APtrState.LINKED
        if self._any_linked:
            return APtrState.MIXED
        return APtrState.UNLINKED

    def xpage_vec(self) -> np.ndarray:
        """Backing-store page number each lane currently points into."""
        return (self.base_offset + self.pos) // self.page_size

    def in_page_vec(self) -> np.ndarray:
        return (self.base_offset + self.pos) % self.page_size

    def encoded_word(self) -> np.ndarray:
        """The packed 64-bit translation field per lane (§IV-A)."""
        perms = tr.perm_bits(self.readable, self.writable)
        if self.config.fmt is PtrFormat.LONG:
            addr = np.where(self.valid,
                            self.frame_addr.astype(np.uint64),
                            (self.base_offset
                             + self.pos).astype(np.uint64))
            return tr.encode_long(self.valid, perms, addr)
        return tr.encode_short(self.valid, perms,
                               self.frame_addr.astype(np.uint64),
                               self.xpage_vec().astype(np.uint64))

    def clone(self, ctx: WarpContext) -> "APtr":
        """Assignment: the copy points at the same positions, *unlinked*
        (a fresh copy must not pin pages it may never touch, §III-C)."""
        twin = APtr(ctx, self.avm, self.backend, self.base_offset,
                    self.size, self.writable)
        twin.pos = self.pos.copy()
        twin._summarize()
        return twin

    # ------------------------------------------------------------------
    # Pointer arithmetic
    # ------------------------------------------------------------------
    def add(self, ctx: WarpContext, delta):
        """Timed: advance each lane by ``delta`` bytes (scalar or
        per-lane).  Lanes that leave their linked page unlink, dropping
        their page references — the paper's proactive-decrement
        heuristic."""
        count, chain = self._arith
        ctx.charge(count, chain=chain, tag="translation")
        self.avm.stats.arith_ops += 1
        if not isinstance(delta, (int, np.integer)):
            self.pos = self.pos + np.asarray(delta, dtype=np.int64)
            self._summarize_pos()
            if not self._any_linked:
                return
        else:
            # Every lane moves together: the position range and the
            # alignment bound shift in O(1), the lane stride is kept, and
            # a pointer with no link, or whose range stays inside the
            # page every lane is linked to, has nothing to unlink.
            delta = int(delta)
            self._shift += delta
            self._lo += delta
            self._hi += delta
            bits = self._align | delta
            self._align = bits & -bits
            page, ps = self._page, self.page_size
            if not self._any_linked or (
                    page is not None
                    and (self.base_offset + self._lo) // ps == page
                    == (self.base_offset + self._hi) // ps):
                return
        crossing = self.valid & (self.xpage_vec() != self.linked_xpage)
        if crossing.any():
            yield from self._unlink(ctx, crossing)

    def seek(self, ctx: WarpContext, pos):
        """Timed: set each lane's absolute position in the mapping."""
        delta = np.asarray(pos, dtype=np.int64) - self.pos
        yield from self.add(ctx, delta)

    # ------------------------------------------------------------------
    # Dereference
    # ------------------------------------------------------------------
    def read(self, ctx: WarpContext, dtype: str = "f4",
             mask: Optional[np.ndarray] = None):
        """Timed: ``*ptr`` — load one ``dtype`` element per active lane."""
        addrs = yield from self._deref(ctx, DTYPES[dtype].itemsize,
                                       write=False, mask=mask)
        cm = self.cost
        self.avm.stats.reads += 1
        count, chain = self._deref_cost
        ctx.charge(count, chain=chain, tag="translation")
        overlap, post = cm.deref_overlap, cm.deref_post
        if self.config.perm_checks:
            self.avm.stats.perm_checks += 1
            ctx.charge(cm.perm_count, chain=cm.perm_chain,
                       tag="translation")
            post += cm.perm_post
        return (yield from ctx.load(addrs, dtype, mask=mask,
                                    overlap_chain=overlap,
                                    post_chain=post,
                                    chain_tag="translation"))

    def read_wide(self, ctx: WarpContext, elems: int,
                  dtype: str = "f4",
                  mask: Optional[np.ndarray] = None,
                  nonblocking: bool = False):
        """Timed: vector dereference — ``elems`` consecutive elements per
        lane in one access (the 16-byte loads of §VI-B, which amortise
        the translation cost over more data).

        ``nonblocking`` overlaps the load with later work (memory-level
        parallelism); pair with ``ctx.fence()``.
        """
        width = DTYPES[dtype].itemsize * elems
        addrs = yield from self._deref(ctx, width, write=False, mask=mask)
        cm = self.cost
        self.avm.stats.reads += 1
        count, chain = self._deref_cost
        ctx.charge(count + elems, chain=chain, tag="translation")
        overlap, post = cm.deref_overlap, cm.deref_post
        if self.config.perm_checks:
            self.avm.stats.perm_checks += 1
            ctx.charge(cm.perm_count, chain=cm.perm_chain,
                       tag="translation")
            post += cm.perm_post
        return (yield from ctx.load_wide(addrs, dtype, elems, mask=mask,
                                         overlap_chain=overlap,
                                         post_chain=post,
                                         nonblocking=nonblocking,
                                         chain_tag="translation"))

    def write(self, ctx: WarpContext, values, dtype: str = "f4",
              mask: Optional[np.ndarray] = None):
        """Timed: ``*ptr = v`` — store one element per active lane."""
        addrs = yield from self._deref(ctx, DTYPES[dtype].itemsize,
                                       write=True, mask=mask)
        cm = self.cost
        self.avm.stats.writes += 1
        count, chain = self._deref_cost
        ctx.charge(count, chain=chain, tag="translation")
        if self.config.perm_checks:
            self.avm.stats.perm_checks += 1
            ctx.charge(cm.perm_count, chain=cm.perm_chain + cm.perm_post,
                       tag="translation")
        yield from ctx.store(addrs, values, dtype, mask=mask)

    def write_wide(self, ctx: WarpContext, values, dtype: str = "f4",
                   mask: Optional[np.ndarray] = None):
        """Timed: vector store — ``values`` of shape (lanes, elems)
        written through one dereference per lane."""
        values = np.asarray(values)
        elems = values.shape[1]
        width = DTYPES[dtype].itemsize * elems
        addrs = yield from self._deref(ctx, width, write=True, mask=mask)
        cm = self.cost
        self.avm.stats.writes += 1
        count, chain = self._deref_cost
        ctx.charge(count + elems, chain=chain, tag="translation")
        if self.config.perm_checks:
            self.avm.stats.perm_checks += 1
            ctx.charge(cm.perm_count, chain=cm.perm_chain + cm.perm_post,
                       tag="translation")
        yield from ctx.store_wide(addrs, values, dtype, mask=mask)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def destroy(self, ctx: WarpContext):
        """Timed: drop all references (scope exit in Figure 3)."""
        if self._any_linked:
            yield from self._unlink(ctx, self.valid.copy())

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _deref(self, ctx: WarpContext, width: int, write: bool,
               mask: Optional[np.ndarray]):
        active = ctx.active if mask is None else (ctx.active & mask)
        self.avm.stats.derefs += 1
        self._check_bounds(width, active)
        if write and not self.writable:
            raise ProtectionError("write through a read-only apointer")
        if write and not self._all_write:
            # Upgrade fault: lanes linked read-only must re-fault so the
            # paging backend sees the write (dirty marking, coherence).
            upgrade = self.valid & ~self.linked_write & active
            if upgrade.any():
                yield from self._unlink(ctx, upgrade)
        # Joint valid-bit vote across the warp (one instruction): the
        # fault-free path has no divergent control flow.  Under
        # speculative prefetch the vote overlaps the memory access
        # (§IV-B), so it adds no serial latency.
        all_valid = self._all_linked or wp.all_sync(self.valid, active)
        ctx.charge(1, chain=self._vote_chain, tag="translation")
        if not all_valid:
            yield from self._page_fault(ctx, active, write)
        elif write and self._gpufs is not None:
            self._mark_dirty(active)
        if self._page is not None:
            # One shared page: frame + in-page offset is pos + constant.
            # Lanes ``width`` apart make one contiguous span, handed to
            # memory as its base (the lowest lane) and stride.
            offset = self._frame + self.base_offset \
                - self._page * self.page_size
            if mask is None and self._stride == width:
                return AffineLanes(self._lo + offset, width, self._pos.size)
            return self.pos + offset
        return self.frame_addr + self.in_page_vec()

    def _page_fault(self, ctx: WarpContext, active: np.ndarray,
                    write: bool):
        """Listing 1: aggregated, leader-driven fault handling.

        The ballot/ffs loop elects one leader per distinct faulting
        page, lowest lane first, and nothing but this loop links this
        warp's lanes, so its groups are known before the first round:
        they are found in one pass, and each is charged as its round.
        Positions do not move, so only the link part of the summary is
        refreshed: in O(1) when one group links every lane.
        """
        cm = self.cost
        faulting = (~self.valid) & active
        self.avm.stats.translation_faults += int(faulting.sum())
        t0 = ctx.now
        ctx.begin_request()
        try:
            ctx.push_activity("translation")
            whole_warp = None
            try:
                for xpage, same, refs in _lane_groups(faulting,
                                                      self.xpage_vec()):
                    ctx.charge(2)              # __ballot + __ffs
                    self.avm.stats.fault_groups += 1
                    ctx.charge(cm.fault_setup_count)
                    frame_addr, via_tlb = yield from self._resolve(
                        ctx, xpage, refs, write)
                    self.frame_addr[same] = frame_addr
                    self.linked_xpage[same] = xpage
                    self.tlb_backed[same] = via_tlb
                    self.linked_write[same] = write
                    self.valid[same] = True
                    if refs == self.valid.size:
                        whole_warp = xpage, int(frame_addr)
                    ctx.charge(cm.fault_link_count)
                    self.avm.stats.links += refs
                ctx.charge(2)                  # the final, empty ballot
            finally:
                if whole_warp is None:
                    self._summarize_links()
                else:
                    self._any_linked = self._all_linked = True
                    self._all_write = bool(write)
                    self._page, self._frame = whole_warp
                ctx.pop_activity()
            if ctx.tracer is not None:
                ctx.trace_span("translation_fault", t0, ctx.now,
                               f"lanes={int(faulting.sum())}")
        finally:
            ctx.end_request()
        if write and self._gpufs is not None:
            self._mark_dirty(active)

    def _resolve(self, ctx: WarpContext, xpage: int, refs: int,
                 write: bool):
        """Leader-only: obtain the frame address for one page.

        Consults the block TLB when configured; otherwise (or on a
        bypass) goes to the paging backend.  Returns
        ``(frame_addr, via_tlb)``.
        """
        backend = self.backend
        tlb = self.avm.tlb_for(ctx)
        if tlb is None or not getattr(backend, "paged", True):
            frame = yield from backend.fault(ctx, xpage, refs, write)
            return frame, False
        fid = backend.file_id
        frame = yield from tlb.lookup_and_ref(ctx, fid, xpage, refs)
        if frame is not None:
            return frame, True
        frame = yield from backend.fault(ctx, xpage, refs, write)
        ctx.push_activity("tlb_miss")
        try:
            installed, evicted = yield from tlb.install(
                ctx, fid, xpage, frame, refs)
            if evicted is not None:
                (_, old_xpage), held = evicted
                if held:
                    yield from backend.release(ctx, old_xpage, held)
        finally:
            ctx.pop_activity()
        return frame, installed

    def _unlink(self, ctx: WarpContext, mask: np.ndarray):
        """Drop references for ``mask`` lanes (linked ones), grouped per
        page and per backing path (TLB-tracked vs. direct), lowest lane
        first.  Positions do not move, so only the link part of the
        summary is refreshed: in O(1) when every lane is dropped."""
        cm = self.cost
        tlb = self.avm.tlb_for(ctx)
        dropped = 0
        try:
            # One group per page and backing path: key 2 * page + via_tlb.
            for key, group, refs in _lane_groups(
                    mask, 2 * self.linked_xpage + self.tlb_backed):
                xpage, via_tlb = divmod(key, 2)
                ctx.charge(cm.fault_setup_count, tag="translation")
                if via_tlb and tlb is not None:
                    found = yield from tlb.unref(
                        ctx, self.backend.file_id, xpage, refs)
                    if not found:
                        raise RuntimeError(
                            "TLB-backed lane lost its TLB entry")
                else:
                    yield from self.backend.release(ctx, xpage, refs)
                self.tlb_backed[group] = False
                self.linked_write[group] = False
                self.valid[group] = False
                self.avm.stats.unlinks += refs
                dropped += refs
        finally:
            if dropped == self.valid.size:
                self._any_linked = self._all_linked = False
                self._all_write = False
                self._page = self._frame = None
            else:
                self._summarize_links()

    def _mark_dirty(self, active: np.ndarray) -> None:
        """Mark the pages ``active`` lanes link dirty in the page cache,
        if there is one (the hot callers test :attr:`_gpufs` first)."""
        gpufs = self._gpufs
        if gpufs is None:
            return
        table = gpufs.cache.table
        file_id = self.backend.file_id
        for xpage in np.unique(self.linked_xpage[active & self.valid]):
            entry = table.get(file_id, int(xpage))
            if entry is not None:
                entry.dirty = True

    def _summarize(self) -> None:
        """Recompute the whole warp summary from the lane arrays: the
        link part (:meth:`_summarize_links`) and the position part
        (:meth:`_summarize_pos`)."""
        self._summarize_links()
        self._summarize_pos()

    def _summarize_links(self) -> None:
        """The link part, from ``valid``, ``linked_write``,
        ``linked_xpage`` and ``frame_addr``.

        ``_any_linked``/``_all_linked``: some / every lane is linked;
        ``_all_write``: every lane is linked for writing; ``_page`` and
        ``_frame``: the page and frame every lane is linked to (``None``
        unless all lanes share one).
        """
        valid = self.valid
        linked = int(np.count_nonzero(valid))
        self._any_linked = linked > 0
        self._all_linked = all_linked = linked == valid.size
        self._all_write = all_linked and bool(self.linked_write.all())
        self._page = self._frame = None
        if all_linked:
            page = int(self.linked_xpage[0])
            frame = int(self.frame_addr[0])
            if ((self.linked_xpage == page).all()
                    and (self.frame_addr == frame).all()):
                self._page, self._frame = page, frame

    def _summarize_pos(self) -> None:
        """The position part, from ``pos``.

        ``_lo``/``_hi``: the lane position range; ``_stride``: the common
        difference between consecutive lanes' positions, else ``None``;
        ``_align``: a power of two dividing every ``base_offset + pos``
        (0 when all of them are 0).
        """
        pos = self.pos
        self._lo = int(pos.min())
        self._hi = int(pos.max())
        steps = pos[1:] - pos[:-1]
        self._stride = int(steps[0]) if (
            steps.size and (steps == steps[0]).all()) else None
        bits = int(np.bitwise_or.reduce(self.base_offset + pos))
        self._align = bits & -bits

    def _check_bounds(self, width: int, active: np.ndarray) -> None:
        # Every lane (active or not) in range, width-aligned, and width
        # divides the page: no access can leave the mapping or straddle
        # a page.  Otherwise check the active lanes one by one.
        if (self._lo >= 0 and self._hi + width <= self.size
                and self._align % width == 0
                and self.page_size % width == 0):
            return
        pos = self.pos[active]
        if pos.size == 0:
            return
        if int(pos.min()) < 0 or int(pos.max()) + width > self.size:
            raise BoundsError(
                f"access at [{pos.min()}, {pos.max()} + {width}) outside "
                f"mapping of {self.size} bytes")
        in_page = (self.base_offset + pos) % self.page_size
        if int((in_page % width).max()) != 0:
            raise BoundsError(
                f"{width}-byte access not {width}-aligned "
                "(would straddle a page boundary)")
        if int(in_page.max()) + width > self.page_size:
            raise BoundsError(
                f"{width}-byte access at in-page offset "
                f"{int(in_page.max())} straddles a "
                f"{self.page_size}-byte page boundary")


def _lane_groups(mask: np.ndarray, key: np.ndarray) -> list:
    """Listing 1's lane groups: one ``(key, lanes, count)`` per distinct
    ``key`` among the ``mask`` lanes, ordered by each key's lowest lane
    (the order ``__ffs`` elects leaders in).

    ``lanes`` indexes the group's lanes in the lane arrays: ``mask``
    itself when every lane shares one key, else a lone lane number or
    a list of lane numbers.
    """
    keys = key[mask]
    if keys.size == 0:
        return []
    first = keys[0]
    if (keys == first).all():
        return [(int(first), mask, int(keys.size))]
    groups: dict[int, list] = {}
    for lane, k in zip(np.flatnonzero(mask).tolist(), keys.tolist()):
        lanes = groups.get(k)
        if lanes is None:
            groups[k] = [lane]
        else:
            lanes.append(lane)
    return [(k, lanes[0] if len(lanes) == 1 else lanes, len(lanes))
            for k, lanes in groups.items()]
