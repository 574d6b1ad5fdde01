"""GPU memory state: global memory and per-threadblock scratchpad.

Global memory is a single byte array.  Warp accesses are vectorised: a
load takes 32 lane byte-addresses and returns 32 values.  The number of
DRAM transactions is computed from the addresses exactly the way the
hardware coalescer does — distinct 128-byte segments touched by the
active lanes — so fully coalesced 4-byte accesses cost one transaction
and scattered accesses cost up to 32.

A warp access the translation layer has proven contiguous arrives as
:class:`AffineLanes` (a base and a stride) instead of 32 addresses.  It
is counted, bounds-checked and moved in closed form: one segment range,
two integer compares and one slice.
"""

from __future__ import annotations

import numpy as np

#: The element types of warp and scratchpad accesses, by name.  Built
#: once: ``np.dtype(name)`` costs far more than a dict lookup, and a
#: warp access needs the dtype (or its ``itemsize``) on every call.
DTYPES = {name: np.dtype(name) for name in (
    "u1", "i1",
    "u2", "i2",
    "u4", "i4", "f4",
    "u8", "i8", "f8",
)}


class MemoryError_(Exception):
    """Raised on out-of-bounds simulated memory access."""


class AffineLanes:
    """The lane addresses ``base + i * stride`` for ``i`` in
    ``range(lanes)`` (``lanes >= 1``), carried as three integers.

    ``np.asarray`` of it is that int64 vector, so a consumer that needs
    the lanes gets exactly them; :class:`GlobalMemory` serves it without
    building the vector when the lanes tile one contiguous span.
    """

    __slots__ = ("base", "stride", "lanes", "shape")

    def __init__(self, base: int, stride: int, lanes: int):
        self.base = base
        self.stride = stride
        self.lanes = lanes
        self.shape = (lanes,)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        vec = self.base + self.stride * np.arange(self.lanes,
                                                  dtype=np.int64)
        return vec if dtype is None else vec.astype(dtype, copy=False)


class GlobalMemory:
    """The GPU's global (device) memory.

    A bump allocator hands out regions; :meth:`load_vector` and
    :meth:`store_vector` perform the actual data movement for a warp.
    """

    def __init__(self, size: int, transaction_bytes: int = 128):
        self.size = int(size)
        self.transaction_bytes = int(transaction_bytes)
        self.data = np.zeros(self.size, dtype=np.uint8)
        self._next_free = 0
        self._offset_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, align: int = 256) -> int:
        """Allocate ``nbytes`` and return the base address."""
        base = -(-self._next_free // align) * align
        if base + nbytes > self.size:
            raise MemoryError_(
                f"out of device memory: need {nbytes} at {base}, "
                f"capacity {self.size}"
            )
        self._next_free = base + nbytes
        return base

    def reset_allocator(self) -> None:
        self._next_free = 0

    @property
    def bytes_allocated(self) -> int:
        return self._next_free

    # ------------------------------------------------------------------
    # Scalar and bulk accessors (used by host-side code / DMA)
    # ------------------------------------------------------------------
    def read(self, addr: int, nbytes: int) -> np.ndarray:
        self._check(addr, nbytes)
        return self.data[addr:addr + nbytes]

    def write(self, addr: int, values: np.ndarray) -> None:
        raw = np.asarray(values).view(np.uint8).ravel()
        self._check(addr, raw.size)
        self.data[addr:addr + raw.size] = raw

    # ------------------------------------------------------------------
    # Warp-vector accessors
    #
    # Each access is one gather or one scatter over ``data``, indexed by
    # the lane addresses plus a cached ``arange(nbytes)`` of offsets.  A
    # store's index is ``offsets[:, None] + lane_addrs``: byte-major,
    # lane-minor.  When lanes overlap, the scatter keeps the value written
    # last in that order, so byte ``i`` of a higher lane beats byte ``i``
    # of a lower one and any lane's byte ``i + 1`` beats every byte ``i``.
    #
    # An access is *contiguous* when ``addrs`` is :class:`AffineLanes`,
    # ``mask`` is None and the stride equals the bytes per lane, at most
    # ``transaction_bytes``.  Its lanes tile one span with no overlap, so
    # it skips the index vectors: the coalescer counts the span's
    # segments, the bounds check compares its two ends and the data moves
    # as one slice.  The test is inlined in ``transactions_for``,
    # ``_load`` and ``_store``, which run once per warp access.  Every
    # other access, masked or divergent, takes the gather or scatter.
    # ------------------------------------------------------------------
    def load_vector(self, addrs: np.ndarray, dtype: str,
                    mask: np.ndarray | None = None) -> np.ndarray:
        """Gather one element of ``dtype`` per active lane.  ``addrs`` is
        an address array or :class:`AffineLanes`."""
        return self._load(addrs, DTYPES[dtype], 1, mask).reshape(
            addrs.shape)

    def load_vector_wide(self, addrs: np.ndarray, dtype: str, elems: int,
                         mask: np.ndarray | None = None) -> np.ndarray:
        """Gather ``elems`` consecutive elements of ``dtype`` per lane
        (vectorised 8/16-byte loads).  Returns shape ``(lanes, elems)``."""
        return self._load(addrs, DTYPES[dtype], elems, mask)

    def store_vector(self, addrs: np.ndarray, values: np.ndarray,
                     dtype: str, mask: np.ndarray | None = None) -> None:
        """Scatter one element of ``dtype`` per active lane."""
        self._store(addrs, values, DTYPES[dtype], mask)

    def store_vector_wide(self, addrs: np.ndarray, values: np.ndarray,
                          dtype: str, mask: np.ndarray | None = None
                          ) -> None:
        """Scatter ``values`` of shape ``(lanes, elems)``: ``elems``
        consecutive elements of ``dtype`` per active lane."""
        self._store(addrs, values, DTYPES[dtype], mask)

    def transactions_for(self, addrs: np.ndarray, width: int,
                         mask: np.ndarray | None = None) -> int:
        """DRAM transactions for a warp access (coalescer model)."""
        if (type(addrs) is AffineLanes and mask is None
                and addrs.stride == width <= self.transaction_bytes):
            return self.span_transactions(addrs.base, addrs.lanes * width)
        addrs = np.asarray(addrs, dtype=np.int64)
        if mask is not None:
            addrs = addrs[mask]
        lanes = addrs.tolist()
        tb, last = self.transaction_bytes, width - 1
        return len({a // tb for a in lanes} | {(a + last) // tb
                                               for a in lanes})

    def span_transactions(self, base: int, nbytes: int) -> int:
        """Transactions for lanes of at most ``transaction_bytes`` each
        that tile ``[base, base + nbytes)``, ``nbytes >= 1``: every
        segment the span touches, as the coalescer counts them."""
        tb = self.transaction_bytes
        return (base + nbytes - 1) // tb - base // tb + 1

    def _load(self, addrs, dt: np.dtype, elems: int, mask) -> np.ndarray:
        """``(lanes, elems)`` elements of ``dt`` from each lane's address;
        inactive lanes read as zero."""
        nbytes = dt.itemsize * elems
        if (type(addrs) is AffineLanes and mask is None
                and addrs.stride == nbytes <= self.transaction_bytes):
            base, lanes = addrs.base, addrs.lanes
            end = base + lanes * nbytes
            if base < 0 or end > self.size:
                raise self._span_error(base, end)
            return self.data[base:end].copy().view(dt).reshape(lanes, elems)
        addrs = np.asarray(addrs, dtype=np.int64).ravel()
        if mask is None:
            return self._gather(addrs, nbytes).view(dt)
        out = np.zeros((addrs.size, elems), dtype=dt)
        active = mask.ravel()
        sel = addrs[active]
        if sel.size:
            out[active] = self._gather(sel, nbytes).view(dt)
        return out

    def _gather(self, addrs: np.ndarray, nbytes: int) -> np.ndarray:
        """``nbytes`` bytes from each address, shape ``(lanes, nbytes)``.

        Read order does not matter, so the index is built lane-major and
        the gathered rows are already contiguous per lane."""
        self._check_vec(addrs, nbytes)
        return self.data[addrs[:, None] + self._offsets(nbytes)]

    def _store(self, addrs, values, dt: np.dtype, mask) -> None:
        """Scatter each lane's row of ``values`` (one or more elements of
        ``dt``) to its address."""
        raw = np.ascontiguousarray(values, dtype=dt).view(np.uint8)
        if (type(addrs) is AffineLanes and mask is None
                and raw.size == addrs.stride * addrs.lanes
                and addrs.stride <= self.transaction_bytes):
            base = addrs.base
            end = base + raw.size
            if base < 0 or end > self.size:
                raise self._span_error(base, end)
            self.data[base:end] = raw.ravel()
            return
        addrs = np.asarray(addrs, dtype=np.int64).ravel()
        raw = raw.reshape(addrs.size, -1)
        if mask is not None:
            active = mask.ravel()
            addrs = addrs[active]
            if not addrs.size:
                return
            raw = raw[active]
        nbytes = raw.shape[1]
        self._check_vec(addrs, nbytes)
        index = self._offsets(nbytes)[:, None] + addrs
        self.data[index.ravel()] = raw.T.ravel()

    def _offsets(self, nbytes: int) -> np.ndarray:
        offsets = self._offset_cache.get(nbytes)
        if offsets is None:
            offsets = self._offset_cache[nbytes] = np.arange(
                nbytes, dtype=np.int64)
        return offsets

    # ------------------------------------------------------------------
    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size:
            raise MemoryError_(
                f"device access [{addr}, {addr + nbytes}) out of bounds "
                f"(size {self.size})"
            )

    def _span_error(self, start: int, end: int) -> MemoryError_:
        """The error :meth:`_check_vec` raises for contiguous lanes
        covering ``[start, end)``."""
        return MemoryError_(
            f"device vector access out of bounds: "
            f"[{start}, {end}) size {self.size}"
        )

    def _check_vec(self, addrs: np.ndarray, width: int) -> None:
        # Viewed as unsigned, a negative address exceeds any size, so one
        # reduction checks both ends.
        if addrs.size and (int(addrs.view(np.uint64).max()) + width
                           > self.size):
            raise MemoryError_(
                f"device vector access out of bounds: "
                f"[{addrs.min()}, {addrs.max() + width}) size {self.size}"
            )


class Scratchpad:
    """Per-threadblock on-die scratchpad ("shared memory").

    Unlike global memory it is private to a threadblock, so it is handed
    to the block at launch.  It stores Python/numpy objects directly: the
    software TLB keeps its entries here.
    """

    def __init__(self, nbytes: int):
        self.nbytes = int(nbytes)
        self._used = 0
        self._arrays: dict[str, np.ndarray] = {}

    def alloc_array(self, name: str, count: int, dtype: str) -> np.ndarray:
        """Allocate a named typed array; raises if over capacity."""
        dt = DTYPES[dtype]
        need = count * dt.itemsize
        if self._used + need > self.nbytes:
            raise MemoryError_(
                f"scratchpad overflow: {self._used} + {need} > {self.nbytes}"
            )
        self._used += need
        arr = np.zeros(count, dtype=dt)
        self._arrays[name] = arr
        return arr

    @property
    def bytes_used(self) -> int:
        return self._used
