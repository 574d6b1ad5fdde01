"""Runtime sanitizer: SIMT invariants checked on a live simulation.

The static linter (:mod:`repro.analysis.linter`) proves what it can
from source; this module checks the rest while a kernel actually runs.
Enabled via ``GPUfsConfig(sanitize=True)``: the owning
:class:`~repro.paging.gpufs.GPUfs` installs a :class:`Sanitizer` on its
device, and every subsequent launch composes its warp context class
with the :class:`Sanitized` mixin (:class:`SanitizedWarpContext`, or
:class:`SanitizedTracedWarpContext` under a tracer) and drives each
warp through :meth:`Sanitizer.watch`.  When the flag is off nothing
here is even imported - instrumentation sites in the device, the
apointer layer and the paging layer guard on a single attribute test
(``ctx.sanitizer is not None``), the same zero-cost-when-off
discipline as the telemetry hooks.

Checked invariants, one :class:`Violation` record per break:

* **lockstep** - every warp of a threadblock must pass the same number
  of barriers before exiting.  One coroutine models one warp, so
  per-lane divergence *inside* a warp is the linter's job
  (``divergent-yield``); what the runtime can see is a warp skipping
  or double-counting a ``syncthreads`` relative to its block siblings,
  which on hardware is the classic barrier-divergence hang.
* **torn-write** - two warps wrote overlapping global-memory bytes
  with no happens-before edge between the accesses.  Ordering edges
  the sanitizer recognises: both warps in the same block with a
  barrier between the writes (different barrier epochs), a common
  lock held at both write sites, or a page fill: the stores a warp
  made to fill a faulted frame precede every later store to it,
  since other warps reach the frame only once it is ready.
  ``atomic_add`` is exempt by construction (it is not a plain store).
* **pin-leak** - page references still held when the warp exits:
  ``gmmap`` without a matching ``gmunmap`` (or an over-release), or an
  :class:`~repro.core.apointer.APtr` with linked lanes that was never
  ``destroy()``-ed.  Leaked pins make pages unevictable forever - the
  failure mode of the paper's reference-counted page cache.

The sanitizer never yields requests of its own, so enabling it is
timing-neutral: simulated cycle counts are identical with and without
it (asserted by the test suite).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.kernel import TracedWarpContext, WarpContext

#: Bound on the torn-write history; beyond it the oldest records are
#: dropped (and counted), trading completeness for memory.
MAX_WRITE_HISTORY = 4096


@dataclass(frozen=True)
class Violation:
    """One invariant break, structured for programmatic assertion."""

    invariant: str          # "lockstep" | "torn-write" | "pin-leak"
    block_id: int
    warp_id: int
    message: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "block_id": self.block_id,
            "warp_id": self.warp_id,
            "message": self.message,
            "details": self.details,
        }


@dataclass
class SanitizerStats:
    """Numeric counters exported as the ``sanitizer`` profile component."""

    warps_watched: int = 0
    stores_checked: int = 0
    barriers_observed: int = 0
    lockstep_violations: int = 0
    torn_writes: int = 0
    pin_leaks: int = 0
    dropped_writes: int = 0


@dataclass
class _Write:
    """One recorded global-memory store for race checking."""

    block: object           # BlockContext identity (never dereferenced)
    block_id: int
    warp_id: int
    epoch: int
    locks: frozenset
    addrs: np.ndarray       # int64 start addresses, active lanes only
    width: int
    lo: int
    hi: int                 # exclusive byte bound
    now: float


class Sanitizer:
    """Watches every warp of every launch on one device."""

    def __init__(self, max_write_history: int = MAX_WRITE_HISTORY):
        self.stats = SanitizerStats()
        self.violations: list[Violation] = []
        self._writes: deque[_Write] = deque()
        self._max_writes = max_write_history
        #: id(BlockContext) -> (block ref, barrier count of its
        #: first-exited warp).  The reference pins the id against
        #: reuse while the sanitizer outlives the launch.
        self._exit_barriers: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Launch integration (called by Device.launch_cfg)
    # ------------------------------------------------------------------
    def begin_launch(self) -> None:
        """Reset cross-warp state; violations and stats accumulate.

        Happens-before only exists *within* a launch (launches on one
        device are serialized), so write records and barrier-count
        expectations must not carry over or sequential launches
        touching the same buffers would report phantom races.
        """
        self._writes.clear()
        self._exit_barriers.clear()

    def make_context(self, base: type, *args) -> "Sanitized":
        """A warp context of class ``base`` (:class:`WarpContext` or
        :class:`TracedWarpContext`, built from ``args``) composed with
        the :class:`Sanitized` mixin, reporting here."""
        ctx = (SanitizedWarpContext if base is WarpContext
               else SanitizedTracedWarpContext)(*args)
        ctx.sanitizer = self
        return ctx

    def watch(self, gen, ctx: "Sanitized"):
        """Pass-through driver: forwards every request and return value
        untouched, then runs the warp's exit checks."""
        self.stats.warps_watched += 1
        result = yield from gen
        self._on_exit(ctx)
        return result

    # ------------------------------------------------------------------
    # Hooks from Sanitized contexts / APtr / GPUfs
    # ------------------------------------------------------------------
    def note_store(self, ctx: "Sanitized", addrs: np.ndarray,
                   width: int, mask) -> None:
        # Scalar ops (store_scalar, copy_bytes) issue a length-1
        # address vector that does not line up with the 32-lane masks;
        # only apply a mask whose shape matches.
        vec = np.asarray(addrs, dtype=np.int64).ravel()
        keep = np.ones(vec.shape, dtype=bool)
        if ctx.active.shape == vec.shape:
            keep &= ctx.active
        if mask is not None:
            m = np.asarray(mask, dtype=bool)
            if m.shape == vec.shape:
                keep &= m
        lanes = vec[keep]
        if lanes.size == 0:
            return
        self.stats.stores_checked += 1
        rec = _Write(
            block=ctx.block, block_id=ctx.block_id,
            warp_id=ctx.warp_id, epoch=ctx._san_epoch,
            locks=frozenset(ctx._san_held), addrs=lanes, width=width,
            lo=int(lanes.min()), hi=int(lanes.max()) + width,
            now=ctx.now)
        for prior in self._writes:
            if prior.warp_id == rec.warp_id:
                continue        # program order within a warp
            if prior.block is rec.block and prior.epoch != rec.epoch:
                continue        # a barrier separates the writes
            if prior.locks & rec.locks:
                continue        # both held a common lock
            if prior.hi <= rec.lo or rec.hi <= prior.lo:
                continue        # disjoint byte ranges (fast path)
            if not _byte_overlap(prior, rec):
                continue
            self.stats.torn_writes += 1
            self._report(
                "torn-write", ctx,
                f"warp {rec.warp_id} and warp {prior.warp_id} wrote "
                f"overlapping global memory "
                f"[{max(rec.lo, prior.lo)}, {min(rec.hi, prior.hi)}) "
                f"with no barrier or common lock between the accesses",
                other_warp=prior.warp_id,
                addr_lo=max(rec.lo, prior.lo),
                addr_hi=min(rec.hi, prior.hi),
                epoch=rec.epoch, other_epoch=prior.epoch)
            break               # one violation per store is enough
        if len(self._writes) >= self._max_writes:
            self._writes.popleft()
            self.stats.dropped_writes += 1
        self._writes.append(rec)

    def note_barrier(self, ctx: "Sanitized") -> None:
        self.stats.barriers_observed += 1
        ctx._san_epoch += 1

    def note_lock(self, ctx: "Sanitized", lock) -> None:
        ctx._san_held.add(id(lock))

    def note_unlock(self, ctx: "Sanitized", lock) -> None:
        ctx._san_held.discard(id(lock))

    def note_page_ready(self, ctx, frame_addr: int, nbytes: int) -> None:
        """``ctx`` filled the frame at ``frame_addr`` and marked its
        page ready: its stores inside the frame happen before every
        later store there, so they leave the history."""
        lo, hi = frame_addr, frame_addr + nbytes
        self._writes = deque(
            w for w in self._writes
            if w.warp_id != ctx.warp_id or w.lo < lo or w.hi > hi)

    def note_pin(self, ctx, file_id: int, fpn: int) -> None:
        key = (file_id, fpn)
        pins = ctx._san_pins
        pins[key] = pins.get(key, 0) + 1

    def note_unpin(self, ctx, file_id: int, fpn: int) -> None:
        key = (file_id, fpn)
        pins = ctx._san_pins
        pins[key] = pins.get(key, 0) - 1
        if pins[key] == 0:
            del pins[key]

    def register_aptr(self, ctx, aptr) -> None:
        ctx._san_aptrs.append(aptr)

    # ------------------------------------------------------------------
    # Exit checks
    # ------------------------------------------------------------------
    def _on_exit(self, ctx: "Sanitized") -> None:
        # Lockstep: all warps of a block pass the same barrier count.
        _, expected = self._exit_barriers.setdefault(
            id(ctx.block), (ctx.block, ctx._san_epoch))
        if ctx._san_epoch != expected:
            self.stats.lockstep_violations += 1
            self._report(
                "lockstep", ctx,
                f"warp {ctx.warp_id} exited after {ctx._san_epoch} "
                f"barrier(s) but a sibling warp of block "
                f"{ctx.block_id} exited after {expected} - the block "
                f"left barrier lockstep",
                barriers=ctx._san_epoch, expected=expected)
        # Pin balance: gmmap/gmunmap ledger must be empty.
        if ctx._san_pins:
            self.stats.pin_leaks += 1
            leaked = {f"{fid}:{fpn}": count
                      for (fid, fpn), count in sorted(ctx._san_pins.items())}
            self._report(
                "pin-leak", ctx,
                f"warp {ctx.warp_id} exited holding unbalanced page "
                f"pins {leaked} - gmmap without matching gmunmap "
                f"(negative counts are over-releases)",
                pins=leaked)
        # Apointer balance: linked lanes at exit mean destroy() never
        # ran - the page references can never be dropped.
        for aptr in ctx._san_aptrs:
            if aptr.valid.any():
                self.stats.pin_leaks += 1
                self._report(
                    "pin-leak", ctx,
                    f"warp {ctx.warp_id} exited with an apointer "
                    f"still linked ({int(aptr.valid.sum())} lane(s)) "
                    f"- missing 'yield from ptr.destroy(ctx)'",
                    linked_lanes=int(aptr.valid.sum()),
                    base_offset=aptr.base_offset)

    def _report(self, invariant: str, ctx, message: str,
                **details) -> None:
        self.violations.append(Violation(
            invariant=invariant, block_id=ctx.block_id,
            warp_id=ctx.warp_id, message=message, details=details))


def _byte_overlap(a: _Write, b: _Write) -> bool:
    """Exact per-lane extent intersection (the range test prefilters)."""
    starts_a, starts_b = a.addrs[:, None], b.addrs[None, :]
    return bool(np.any((starts_a < starts_b + b.width)
                       & (starts_b < starts_a + a.width)))


class Sanitized:
    """Mixin over a warp context class that reports to a
    :class:`Sanitizer`.

    Only observation points are overridden; every operation delegates
    to the context class unchanged, so timing is identical to an
    unsanitized run.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self._san_epoch = 0
        self._san_held: set[int] = set()
        self._san_pins: dict = {}
        self._san_aptrs: list = []

    # The stores record the materialised lanes, affine ones included
    # (the leader's scalar store is one lane), and hand the accessor's
    # own address form on unchanged.
    def store(self, addrs, values, dtype="f4", mask=None):
        vec = self._addr_vec(addrs)
        self.sanitizer.note_store(
            self, np.asarray(vec), int(np.dtype(dtype).itemsize), mask)
        return (yield from super().store(vec, values, dtype, mask=mask))

    def store_scalar(self, addr, value, dtype="u8"):
        self.sanitizer.note_store(self, np.full(1, addr, np.int64),
                                  int(np.dtype(dtype).itemsize), None)
        return (yield from super().store_scalar(addr, value, dtype))

    def store_wide(self, addrs, values, dtype="f4", mask=None):
        vec = self._addr_vec(addrs)
        width = int(np.dtype(dtype).itemsize) \
            * int(np.asarray(values).shape[1])
        self.sanitizer.note_store(self, np.asarray(vec), width, mask)
        return (yield from super().store_wide(vec, values, dtype,
                                              mask=mask))

    def copy_bytes(self, src, dst, nbytes):
        self.sanitizer.note_store(self, np.full(1, dst, np.int64), nbytes,
                                  None)
        super().copy_bytes(src, dst, nbytes)

    def syncthreads(self):
        yield from super().syncthreads()
        self.sanitizer.note_barrier(self)

    def lock(self, lock):
        yield from super().lock(lock)
        self.sanitizer.note_lock(self, lock)

    def unlock(self, lock):
        yield from super().unlock(lock)
        self.sanitizer.note_unlock(self, lock)


class SanitizedWarpContext(Sanitized, WarpContext):
    """An untraced warp context under a sanitizer."""


class SanitizedTracedWarpContext(Sanitized, TracedWarpContext):
    """A traced warp context under a sanitizer."""
