"""Unit tests for simulated global memory and scratchpad."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu.memory import (
    DTYPES,
    AffineLanes,
    GlobalMemory,
    MemoryError_,
    Scratchpad,
)


@pytest.fixture
def mem():
    return GlobalMemory(64 * 1024)


class TestAllocator:
    def test_alloc_returns_aligned_bases(self, mem):
        a = mem.alloc(100)
        b = mem.alloc(100)
        assert a % 256 == 0
        assert b % 256 == 0
        assert b >= a + 100

    def test_alloc_out_of_memory_raises(self, mem):
        with pytest.raises(MemoryError_):
            mem.alloc(mem.size + 1)

    def test_alloc_exactly_fills(self):
        m = GlobalMemory(1024)
        base = m.alloc(1024)
        assert base == 0
        with pytest.raises(MemoryError_):
            m.alloc(1)

    def test_reset_allocator(self, mem):
        mem.alloc(1000)
        mem.reset_allocator()
        assert mem.alloc(16) == 0

    def test_bytes_allocated_tracks(self, mem):
        mem.alloc(512)
        assert mem.bytes_allocated == 512


class TestBulkAccess:
    def test_write_then_read_roundtrip(self, mem):
        data = np.arange(100, dtype=np.float32)
        mem.write(0, data)
        back = mem.read(0, 400).view(np.float32)
        assert np.array_equal(back, data)

    def test_read_out_of_bounds_raises(self, mem):
        with pytest.raises(MemoryError_):
            mem.read(mem.size - 2, 4)

    def test_write_negative_addr_raises(self, mem):
        with pytest.raises(MemoryError_):
            mem.write(-4, np.zeros(4, dtype=np.uint8))


class TestVectorAccess:
    @pytest.mark.parametrize("dtype", ["u1", "u2", "u4", "i4", "f4", "u8", "f8"])
    def test_roundtrip_all_dtypes(self, mem, dtype):
        width = DTYPES[dtype].itemsize
        addrs = np.arange(32) * width
        vals = np.arange(32).astype(np.dtype(dtype))
        mem.store_vector(addrs, vals, dtype)
        back = mem.load_vector(addrs, dtype)
        assert np.array_equal(back, vals)

    def test_masked_load_returns_zero_for_inactive(self, mem):
        mem.write(0, np.arange(32, dtype=np.float32))
        addrs = np.arange(32) * 4
        mask = np.zeros(32, dtype=bool)
        mask[:4] = True
        out = mem.load_vector(addrs, "f4", mask=mask)
        assert np.array_equal(out[:4], np.arange(4, dtype=np.float32))
        assert np.all(out[4:] == 0)

    def test_masked_store_only_writes_active(self, mem):
        addrs = np.arange(32) * 4
        mask = np.zeros(32, dtype=bool)
        mask[5] = True
        mem.store_vector(addrs, np.full(32, 7.0, np.float32), "f4", mask=mask)
        back = mem.read(0, 128).view(np.float32)
        assert back[5] == 7.0
        assert back[0] == 0.0

    def test_scattered_load(self, mem):
        mem.write(0, np.arange(1000, dtype=np.float32))
        idx = np.array([3, 999, 500, 1] + [0] * 28)
        out = mem.load_vector(idx * 4, "f4")
        assert out[0] == 3.0 and out[1] == 999.0 and out[2] == 500.0

    def test_vector_out_of_bounds_raises(self, mem):
        with pytest.raises(MemoryError_):
            mem.load_vector(np.array([mem.size]), "f4")

    def test_all_inactive_mask_is_noop(self, mem):
        out = mem.load_vector(np.arange(32) * 4, "f4",
                              mask=np.zeros(32, dtype=bool))
        assert np.all(out == 0)

    def test_wide_store_roundtrips_through_wide_load(self, mem):
        addrs = np.arange(32) * 16
        vals = np.arange(32 * 4, dtype=np.float32).reshape(32, 4)
        mem.store_vector_wide(addrs, vals, "f4")
        assert np.array_equal(mem.load_vector_wide(addrs, "f4", 4), vals)
        assert np.array_equal(mem.read(0, 32 * 16).view(np.float32),
                              vals.ravel())

    def test_wide_store_past_end_raises_and_writes_nothing(self, mem):
        addrs = np.array([0, mem.size - 8])
        with pytest.raises(MemoryError_):
            mem.store_vector_wide(addrs, np.ones((2, 4), np.float32), "f4")
        assert not mem.data.any()


class TestCoalescing:
    def test_fully_coalesced_4byte_is_one_transaction(self, mem):
        addrs = np.arange(32) * 4
        assert mem.transactions_for(addrs, 4) == 1

    def test_coalesced_8byte_is_two_transactions(self, mem):
        addrs = np.arange(32) * 8
        assert mem.transactions_for(addrs, 8) == 2

    def test_fully_scattered_is_32_transactions(self, mem):
        addrs = np.arange(32) * 4096
        assert mem.transactions_for(addrs, 4) == 32

    def test_same_address_all_lanes_is_one_transaction(self, mem):
        addrs = np.full(32, 1024)
        assert mem.transactions_for(addrs, 4) == 1

    def test_straddling_access_counts_both_segments(self, mem):
        addrs = np.array([126])
        assert mem.transactions_for(addrs, 4) == 2

    def test_mask_excludes_lanes(self, mem):
        addrs = np.arange(32) * 4096
        mask = np.zeros(32, dtype=bool)
        mask[:2] = True
        assert mem.transactions_for(addrs, 4, mask=mask) == 2

    def test_empty_mask_is_zero_transactions(self, mem):
        assert mem.transactions_for(np.arange(32), 4,
                                    mask=np.zeros(32, dtype=bool)) == 0


class PerByteMemory:
    """Reference: the per-byte warp accessors ``GlobalMemory`` had before
    it moved each access with one gather or scatter.  Loads stacked one
    fancy-index gather per byte, stores scattered one byte column at a
    time, wide accesses looped over elements and the coalescer sorted
    with ``np.union1d``."""

    def __init__(self, data: np.ndarray, transaction_bytes: int = 128):
        self.data = data
        self.size = data.size
        self.transaction_bytes = transaction_bytes

    def load_vector(self, addrs, dtype, mask=None):
        width = DTYPES[dtype].itemsize
        addrs = np.asarray(addrs, dtype=np.int64)
        out = np.zeros(addrs.shape, dtype=np.dtype(dtype))
        active = np.ones(addrs.shape, dtype=bool) if mask is None else mask
        if not active.any():
            return out
        sel = addrs[active]
        self._check_vec(sel, width)
        gathered = np.stack(
            [self.data[sel + i] for i in range(width)], axis=-1
        )
        out[active] = gathered.reshape(-1, width).copy().view(
            np.dtype(dtype)).ravel()
        return out

    def load_vector_wide(self, addrs, dtype, elems, mask=None):
        width = DTYPES[dtype].itemsize
        addrs = np.asarray(addrs, dtype=np.int64)
        cols = [self.load_vector(addrs + i * width, dtype, mask=mask)
                for i in range(elems)]
        return np.stack(cols, axis=1)

    def store_vector(self, addrs, values, dtype, mask=None):
        width = DTYPES[dtype].itemsize
        addrs = np.asarray(addrs, dtype=np.int64)
        values = np.asarray(values, dtype=np.dtype(dtype))
        active = np.ones(addrs.shape, dtype=bool) if mask is None else mask
        if not active.any():
            return
        sel = addrs[active]
        self._check_vec(sel, width)
        raw = values[active].copy().view(np.uint8).reshape(-1, width)
        for i in range(width):
            self.data[sel + i] = raw[:, i]

    def store_vector_wide(self, addrs, values, dtype, mask=None):
        # WarpContext.store_wide's per-element loop.
        width = DTYPES[dtype].itemsize
        addrs = np.asarray(addrs, dtype=np.int64)
        for j in range(values.shape[1]):
            self.store_vector(addrs + j * width, values[:, j], dtype,
                              mask=mask)

    def transactions_for(self, addrs, width, mask=None):
        addrs = np.asarray(addrs, dtype=np.int64)
        if mask is not None:
            addrs = addrs[mask]
        if addrs.size == 0:
            return 0
        first = addrs // self.transaction_bytes
        last = (addrs + width - 1) // self.transaction_bytes
        return int(np.union1d(first, last).size)

    def _check_vec(self, addrs, width):
        if addrs.size and (addrs.min() < 0
                           or addrs.max() + width > self.size):
            raise MemoryError_("out of bounds")


SIZE = 512


def masks(lanes: int):
    return st.one_of(
        st.none(),
        st.just(np.zeros(lanes, dtype=bool)),
        st.just(np.ones(lanes, dtype=bool)),
        st.lists(st.booleans(), min_size=lanes, max_size=lanes).map(
            lambda m: np.array(m, dtype=bool)),
    )


@st.composite
def accesses(draw, max_elems: int = 1):
    """(dtype, elems, lane addresses, mask, values, initial memory)."""
    dtype = draw(st.sampled_from(sorted(DTYPES)))
    elems = draw(st.integers(1, max_elems))
    nbytes = DTYPES[dtype].itemsize * elems
    lanes = draw(st.integers(1, 32))
    # A narrow window makes duplicate and overlapping lanes common;
    # addresses are unaligned throughout.
    window = draw(st.sampled_from([nbytes + 1, 2 * nbytes, 64, SIZE]))
    addrs = np.array(draw(st.lists(st.integers(0, window - nbytes),
                                   min_size=lanes, max_size=lanes)),
                     dtype=np.int64)
    mask = draw(masks(lanes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 256, lanes * nbytes, dtype=np.uint8).view(
        np.dtype(dtype)).reshape(lanes, elems)
    init = rng.integers(0, 256, SIZE, dtype=np.uint8)
    return dtype, elems, addrs, mask, values, init


def pair(init: np.ndarray):
    mem = GlobalMemory(SIZE)
    mem.data[:] = init
    return mem, PerByteMemory(init.copy())


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes (float NaN payloads included)."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.uint8), b.view(np.uint8)))


def raises(fn) -> bool:
    try:
        fn()
    except MemoryError_:
        return True
    return False


@st.composite
def affine_accesses(draw, max_elems: int = 1):
    """(dtype, elems, AffineLanes, mask, values, initial memory).

    The base may lie below 0 or past ``SIZE``.  The stride is usually
    the access's bytes per lane (one element, or ``elems`` of them) and
    the mask usually ``None``, the shape the closed form serves;
    otherwise the lanes overlap, leave gaps or run backwards."""
    dtype = draw(st.sampled_from(sorted(DTYPES)))
    elems = draw(st.integers(1, max_elems))
    width = DTYPES[dtype].itemsize
    nbytes = width * elems
    lanes = draw(st.integers(1, 32))
    stride = draw(st.sampled_from([nbytes, nbytes, width, width, 0, 1,
                                   nbytes + 1, 2 * nbytes, -width]))
    last = SIZE - lanes * nbytes       # the base whose span ends at SIZE
    base = draw(st.one_of(
        st.integers(0, max(0, last)),
        st.sampled_from([-1, last, last + 1]),
        st.integers(-2 * SIZE, 2 * SIZE)))
    mask = draw(st.one_of(st.none(), masks(lanes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 256, lanes * nbytes, dtype=np.uint8).view(
        np.dtype(dtype)).reshape(lanes, elems)
    init = rng.integers(0, 256, SIZE, dtype=np.uint8)
    return dtype, elems, AffineLanes(base, stride, lanes), mask, values, init


def span_access(dtype: str, elems: int, end: int):
    """An unmasked 32-lane contiguous access whose span ends at ``end``."""
    nbytes = DTYPES[dtype].itemsize * elems
    rng = np.random.default_rng(end)
    values = rng.integers(0, 256, 32 * nbytes, dtype=np.uint8).view(
        np.dtype(dtype)).reshape(32, elems)
    init = rng.integers(0, 256, SIZE, dtype=np.uint8)
    return (dtype, elems, AffineLanes(end - 32 * nbytes, nbytes, 32), None,
            values, init)


#: Spans ending exactly at the end of memory, and one byte past it.
SPAN_EDGES = [span_access("f4", 1, SIZE), span_access("u2", 4, SIZE),
              span_access("f8", 2, SIZE + 1), span_access("i1", 3, SIZE + 1)]


def outcome(fn):
    """``(result, None)``, or ``(None, (type, message))`` of the
    ``MemoryError_`` that ``fn()`` raised."""
    try:
        return fn(), None
    except MemoryError_ as err:
        return None, (type(err), str(err))


class TestAgainstPerByteReference:
    @settings(max_examples=300, deadline=None)
    @given(accesses())
    def test_load_vector(self, access):
        dtype, _, addrs, mask, _, init = access
        mem, ref = pair(init)
        assert same_bits(mem.load_vector(addrs, dtype, mask=mask),
                         ref.load_vector(addrs, dtype, mask=mask))

    @settings(max_examples=300, deadline=None)
    @given(accesses())
    def test_store_vector(self, access):
        dtype, _, addrs, mask, values, init = access
        mem, ref = pair(init)
        mem.store_vector(addrs, values[:, 0], dtype, mask=mask)
        ref.store_vector(addrs, values[:, 0], dtype, mask=mask)
        assert np.array_equal(mem.data, ref.data)

    @settings(max_examples=300, deadline=None)
    @given(accesses(max_elems=4))
    def test_load_vector_wide(self, access):
        dtype, elems, addrs, mask, _, init = access
        mem, ref = pair(init)
        assert same_bits(mem.load_vector_wide(addrs, dtype, elems, mask),
                         ref.load_vector_wide(addrs, dtype, elems, mask))

    @settings(max_examples=300, deadline=None)
    @given(accesses(max_elems=4))
    def test_store_vector_wide(self, access):
        dtype, _, addrs, mask, values, init = access
        mem, ref = pair(init)
        mem.store_vector_wide(addrs, values, dtype, mask=mask)
        ref.store_vector_wide(addrs, values, dtype, mask=mask)
        assert np.array_equal(mem.data, ref.data)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 32).flatmap(lambda lanes: st.tuples(
        st.lists(st.integers(0, 1 << 20), min_size=lanes, max_size=lanes),
        st.sampled_from([1, 2, 4, 8, 16, 32, 128, 200]),
        masks(lanes))))
    def test_transactions_for(self, case):
        addrs, width, mask = case
        addrs = np.array(addrs, dtype=np.int64)
        mem = GlobalMemory(SIZE)
        assert mem.transactions_for(addrs, width, mask=mask) \
            == PerByteMemory(mem.data).transactions_for(addrs, width, mask)

    @settings(max_examples=300, deadline=None)
    @given(accesses(max_elems=4),
           st.sampled_from([-1, -64, SIZE, SIZE - 1, SIZE + 100]),
           st.integers(0, 31))
    def test_out_of_bounds_raises_like_reference(self, access, bad,
                                                 where):
        dtype, elems, addrs, mask, values, init = access
        addrs = addrs.copy()
        addrs[where % addrs.size] = bad
        mem, ref = pair(init)
        ops = [
            lambda m: m.load_vector(addrs, dtype, mask=mask),
            lambda m: m.load_vector_wide(addrs, dtype, elems, mask),
            lambda m: m.store_vector(addrs, values[:, 0], dtype,
                                     mask=mask),
        ]
        for op in ops:
            assert raises(lambda: op(mem)) == raises(lambda: op(ref))
        assert np.array_equal(mem.data, ref.data)
        # The per-element reference can write a prefix of the elements
        # before a later one fails its check; only the verdict must agree.
        assert raises(lambda: mem.store_vector_wide(
            addrs, values, dtype, mask=mask)) == raises(
            lambda: ref.store_vector_wide(addrs, values, dtype, mask=mask))

    # AffineLanes is one more input: against the same accessor given its
    # materialised lanes (the gather/scatter path), results, memory,
    # transaction counts and error messages are equal; against the
    # per-byte reference, results, memory and the verdict are.
    @settings(max_examples=400, deadline=None)
    @given(affine_accesses(max_elems=4))
    @example(SPAN_EDGES[0])
    @example(SPAN_EDGES[1])
    @example(SPAN_EDGES[2])
    @example(SPAN_EDGES[3])
    def test_affine_load_matches_gather(self, access):
        dtype, elems, lanes, mask, _, init = access
        vec = np.asarray(lanes)
        mem, ref = pair(init)
        for load in (lambda m, a: m.load_vector(a, dtype, mask=mask),
                     lambda m, a: m.load_vector_wide(a, dtype, elems,
                                                     mask)):
            got, err = outcome(lambda: load(mem, lanes))
            want, want_err = outcome(lambda: load(mem, vec))
            assert err == want_err
            assert raises(lambda: load(ref, vec)) == (err is not None)
            if err is not None:
                continue
            assert same_bits(got, want)
            assert same_bits(got, load(ref, vec))
            # The values are a copy, not a view of device memory.
            kept = got.copy()
            mem.data ^= 0xFF
            assert same_bits(got, kept)
            mem.data[:] = init

    @settings(max_examples=400, deadline=None)
    @given(affine_accesses(max_elems=4), st.booleans())
    @example(SPAN_EDGES[0], False)
    @example(SPAN_EDGES[1], False)
    @example(SPAN_EDGES[2], False)
    @example(SPAN_EDGES[3], True)
    def test_affine_store_matches_scatter(self, access, as_list):
        dtype, elems, lanes, mask, values, init = access
        vec = np.asarray(lanes)
        # A list of Python scalars is cast to ``dtype`` on the way in.
        one = values[:, 0].tolist() if as_list else values[:, 0]
        for store in (lambda m, a: m.store_vector(a, one, dtype, mask=mask),
                      lambda m, a: m.store_vector_wide(a, values, dtype,
                                                       mask=mask)):
            mem, ref = pair(init)
            scatter = GlobalMemory(SIZE)
            scatter.data[:] = init
            _, err = outcome(lambda: store(mem, lanes))
            _, want_err = outcome(lambda: store(scatter, vec))
            assert err == want_err
            assert np.array_equal(mem.data, scatter.data)
            assert raises(lambda: store(ref, vec)) == (err is not None)
            if err is None:
                assert np.array_equal(mem.data, ref.data)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 32), st.integers(-(1 << 12), 1 << 20),
           st.sampled_from([1, 2, 4, 8, 16, 32, 128, 200]),
           st.sampled_from([0, 1, -1]), st.sampled_from([32, 64, 128]),
           st.data())
    def test_affine_transactions_match_lanes(self, lanes, base, width,
                                             skew, tb, data):
        # Segment-aligned bases put the span's end on a boundary often.
        if data.draw(st.booleans()):
            base -= base % tb
        stride = width + skew if data.draw(st.booleans()) else width
        addrs = AffineLanes(base, stride, lanes)
        mask = data.draw(st.one_of(st.none(), masks(lanes)))
        mem = GlobalMemory(SIZE, transaction_bytes=tb)
        vec = np.asarray(addrs)
        assert mem.transactions_for(addrs, width, mask=mask) \
            == mem.transactions_for(vec, width, mask=mask) \
            == PerByteMemory(mem.data, tb).transactions_for(vec, width, mask)


class TestScratchpad:
    def test_alloc_array(self):
        sp = Scratchpad(1024)
        arr = sp.alloc_array("tlb", 32, "u8")
        assert arr.size == 32
        assert sp.bytes_used == 256

    def test_overflow_raises(self):
        sp = Scratchpad(64)
        with pytest.raises(MemoryError_):
            sp.alloc_array("big", 100, "u8")

    def test_multiple_allocations_accumulate(self):
        sp = Scratchpad(1024)
        sp.alloc_array("a", 16, "u4")
        sp.alloc_array("b", 16, "u4")
        assert sp.bytes_used == 128
