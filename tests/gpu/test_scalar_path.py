"""The warp leader's one-word accesses against the forms they replace.

``WarpContext.load_scalar``, ``store_scalar`` and ``atomic_add`` move
an integer word with a ``struct`` packer and any other word through a
typed view of one slice.  The references below are the one-lane vector
forms they stand for: a ``load``/``store`` of
``AffineLanes(addr, itemsize, 1)``, and an atomic add that reads and
writes its word through those vector accessors and wraps an integer sum
at the dtype's width.  Stored values include the packer's edge cases:
Python ints at and past each integer dtype's limits, negative ints into
unsigned dtypes, numpy scalars, floats and bools, which must write the
same bytes or raise numpy's error.  Each case runs both forms on fresh
devices and compares what a caller or observer can see: the request
yielded, the value returned and its dtype, the bytes written, the
launch's cycles and ``dram_transactions``, the trace rows, the
sanitizer's store records, and the error type, message and point of an
out-of-bounds address or a refused value.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import Sanitizer
from repro.gpu import Device, K80_SPEC
from repro.gpu import kernel
from repro.gpu.instructions import AtomicOp
from repro.gpu.memory import DTYPES, AffineLanes
from repro.telemetry import capture
from tests.conftest import budget

SIZE = 1 << 16
#: The accessed word lies at ``base + offset``; the two bases put the
#: word near either end of memory so that an offset can leave it.
BASES = (0, SIZE - 256)
OFFSETS = st.integers(-16, 271)
INTS = [name for name, dt in DTYPES.items() if dt.kind in "iu"]


def ref_load_scalar(ctx, addr, value, dtype):
    lane = AffineLanes(int(addr), DTYPES[dtype].itemsize, 1)
    vals = yield from ctx.load(lane, dtype)
    return vals[0]


def ref_store_scalar(ctx, addr, value, dtype):
    dt = DTYPES[dtype]
    yield from ctx.store(AffineLanes(int(addr), dt.itemsize, 1),
                         np.array([value], dtype=dt), dtype)


def wrapped(value: int, dtype: str) -> int:
    info = np.iinfo(DTYPES[dtype])
    return (value - info.min) % (info.max - info.min + 1) + info.min


def ref_atomic_add(ctx, addr, value, dtype):
    dt = DTYPES[dtype]
    mem = ctx.memory
    mem.read(int(addr), dt.itemsize)        # the bounds check and message
    lane = AffineLanes(int(addr), dt.itemsize, 1)
    old = mem.load_vector(lane, dtype)[0].item()
    new = old + value if dt.kind == "f" else wrapped(old + value, dtype)
    mem.store_vector(lane, np.array([new], dt), dtype)
    ctx.now = yield ctx._tagged(AtomicOp(address=int(addr)), None)
    return old


#: Each access as ``(scalar, reference)``, both called
#: ``(ctx, addr, value, dtype)``; a load ignores ``value``.
FORMS = {
    "load": (lambda ctx, a, v, d: ctx.load_scalar(a, d), ref_load_scalar),
    "store": (lambda ctx, a, v, d: ctx.store_scalar(a, v, d),
              ref_store_scalar),
    "atomic": (lambda ctx, a, v, d: ctx.atomic_add(a, v, d),
               ref_atomic_add),
}


def fresh_device(seed: int, addr: int = 0, dtype: str = "u8",
                 word=None) -> Device:
    """A device with random memory; ``word``, unless None, is written
    at ``addr`` as ``dtype``."""
    dev = Device(memory_bytes=SIZE)
    dev.memory.data[:] = np.random.RandomState(seed).randint(
        0, 256, SIZE, dtype=np.uint8)
    if word is not None:
        dev.memory.write(addr, np.array([word], DTYPES[dtype]))
    return dev


def same_value(a, b) -> bool:
    """Equal type and bytes (NaN payloads and ``-0.0`` included)."""
    return type(a) is type(b) and np.array(a).tobytes() \
        == np.array(b).tobytes()


def drive(op, seed, addr, value, dtype, charge, tag, word=None):
    """Run one access by hand on a traced warp context: the request it
    yields, then its value or error, and the memory it leaves."""
    dev = fresh_device(seed, addr, dtype, word)
    ctxs = []

    def grab(ctx):
        ctxs.append(ctx)
        yield from ctx.flush()

    with capture(trace=True):
        dev.launch(grab, grid=1, block_threads=32)
    (ctx,) = ctxs
    if tag:
        ctx.push_activity(tag)
    ctx.charge(charge)
    gen = op(ctx, addr, value, dtype)
    seen = []
    try:
        req = next(gen)
        seen.append((type(req), vars(req)))
        extra = gen.send(1.0)
    except StopIteration as stop:
        seen.append(("returned", stop.value))
    except Exception as err:     # compared between the two forms
        seen.append(("raised", type(err), str(err)))
    else:
        raise AssertionError(f"a second request: {extra!r}")
    return seen, ctx._pending_count, dev.memory.data.tobytes()


def launch(op, seed, addr, value, dtype, charge, tag, word, sanitize):
    """Run the access in a one-warp launch; returns what an observer
    sees: cycles, the engine stats, the memory, the trace rows or the
    sanitizer's store records, and the value returned."""
    dev = fresh_device(seed, addr, dtype, word)
    out = []

    def kern(ctx):
        if tag:
            ctx.push_activity(tag)
        ctx.charge(charge)
        out.append((yield from op(ctx, addr, value, dtype)))
        if tag:
            ctx.pop_activity()
        yield from ctx.compute(2)

    if sanitize:
        dev.sanitizer = san = Sanitizer()
        res = dev.launch(kern, grid=1, block_threads=32)
        seen = [(w.block_id, w.warp_id, w.epoch, w.locks,
                 w.addrs.tolist(), w.width, w.lo, w.hi, w.now)
                for w in san._writes]
        seen.append(san.stats.stores_checked)
    else:
        with capture(trace=True) as prof:
            res = dev.launch(kern, grid=1, block_threads=32)
        seen = list(prof.traces[0].rows)
    return (res.cycles, vars(res.stats), dev.memory.data.tobytes(),
            seen), out[0]


def values_for(dtype):
    dt = DTYPES[dtype]
    if dt.kind == "f":
        return st.floats(width=8 * dt.itemsize)
    info = np.iinfo(dt)
    return st.integers(int(info.min), int(info.max))


def edge_values(dtype) -> list:
    """Stored values at the packer's edges: for an integer dtype, Python
    ints at and past its limits and far past them (a negative one into
    an unsigned dtype among them), numpy integer scalars, floats (NaN
    too) and bools, none of which the packer takes; for a float dtype,
    the values an integer word's packer would take or refuse."""
    dt = DTYPES[dtype]
    if dt.kind == "f":
        return [1, -1, 1 << 64, 1 << 1024, True, np.int64(-1),
                np.uint8(200), np.float32(2.5), 1e300, float("nan")]
    info = np.iinfo(dt)
    lo, hi = int(info.min), int(info.max)
    return [lo, hi, lo - 1, hi + 1, -1, 1 << 64, -(1 << 64),
            np.int64(-1), np.uint64((1 << 64) - 1), np.int8(-5),
            np.uint8(200), 3.7, -1.5, float("nan"), True, False]


#: Atomic deltas at the limits of every integer width, either sign.
EDGE_DELTAS = [1, -1, (1 << 7) - 1, -(1 << 7), (1 << 31) - 1, -(1 << 31),
               (1 << 63) - 1, -(1 << 63), 1 << 64, -(1 << 64)]


@st.composite
def accesses(draw):
    op = draw(st.sampled_from(sorted(FORMS)))
    dtype = draw(st.sampled_from(sorted(DTYPES)))
    addr = draw(st.sampled_from(BASES)) + draw(OFFSETS)
    if op == "atomic" and DTYPES[dtype].kind != "f":
        # A delta as wide as the type, either sign: sums cross the
        # dtype's limits in both directions.
        span = 1 << (8 * DTYPES[dtype].itemsize)
        value = draw(st.integers(-span, span))
    elif op == "store" and 0 <= addr <= SIZE - DTYPES[dtype].itemsize:
        # Only in bounds: with a bad address as well, the scalar form
        # reports the address and the vector form the value.
        value = draw(st.one_of(values_for(dtype),
                               st.sampled_from(edge_values(dtype))))
    else:
        value = draw(values_for(dtype))
    return (op, dtype, addr, value, draw(st.integers(0, 2**16)),
            draw(st.sampled_from([0.0, 3.0])),
            draw(st.sampled_from(["", "translation"])))


def check_against_vector_form(case, word=None) -> None:
    """Run ``case`` both ways, by hand and in launches with and without
    the sanitizer, and require the same requests, value and dtype,
    bytes, observations, or error type and message.  ``word``, unless
    None, presets the accessed word (as the dtype)."""
    name, dtype, addr, value, seed, charge, tag = case
    scalar, reference = FORMS[name]
    args = (seed, addr, value, dtype, charge, tag, word)
    (*got_requests, got), *got_rest = drive(scalar, *args)
    (*want_requests, want), *want_rest = drive(reference, *args)
    assert got_requests == want_requests
    assert got_rest == want_rest
    if want[0] == "raised":
        assert got == want
        return
    assert got[0] == "returned" and same_value(got[1], want[1])
    for sanitize in (False, True):
        observed, value_got = launch(scalar, *args, sanitize)
        expected, value_want = launch(reference, *args, sanitize)
        assert observed == expected
        assert same_value(value_got, value_want)


class TestScalarPathAgainstVectorForms:
    @settings(max_examples=budget(100), deadline=None)
    @given(accesses())
    # A word straddling a 128-byte segment, the last word of memory, one
    # past the end and a negative address; an i8 sum below the minimum.
    @example(("load", "u8", 124, 0, 1, 3.0, "translation"))
    @example(("load", "u8", SIZE - 8, 0, 1, 0.0, ""))
    @example(("store", "u8", SIZE - 8, 7, 1, 0.0, ""))
    @example(("store", "u4", SIZE - 2, 7, 1, 0.0, ""))
    @example(("store", "u8", -8, 7, 1, 0.0, ""))
    @example(("atomic", "i8", 120, -(1 << 64), 2, 3.0, "translation"))
    @example(("atomic", "f4", 120, 0.25, 2, 0.0, ""))
    @example(("store", "u1", 8, -1, 1, 0.0, ""))
    def test_scalar_access_equals_its_one_lane_vector_form(self, case):
        check_against_vector_form(case)

    # Both forms warn alike on a value a float32 cannot hold.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("dtype", sorted(DTYPES))
    def test_edge_values_store_as_the_vector_form_does(self, dtype):
        for value in edge_values(dtype):
            check_against_vector_form(
                ("store", dtype, 64, value, 5, 3.0, "translation"))

    @pytest.mark.parametrize("dtype", INTS)
    def test_limit_deltas_add_as_the_vector_form_does(self, dtype):
        info = np.iinfo(DTYPES[dtype])
        for seed, word in enumerate((int(info.min), int(info.max), 0)):
            for delta in EDGE_DELTAS:
                check_against_vector_form(
                    ("atomic", dtype, 64, delta, seed, 0.0, ""),
                    word=word)

    # Both forms warn alike on a value a float32 cannot hold.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("dtype", ["f4", "f8"])
    def test_float_atomic_adds_as_the_vector_form_does(self, dtype):
        for word, delta in ((1.5, 0.25), (-0.0, 0.0), (3e38, 3e38),
                            (float("nan"), 1.0), (1.0, float("inf"))):
            check_against_vector_form(
                ("atomic", dtype, 64, delta, 3, 3.0, "translation"),
                word=word)


    @pytest.mark.parametrize("op", ["load", "store"])
    def test_out_of_bounds_raises_at_the_vector_forms_point(self, op):
        # Both forms are driven by hand: a load raises once resumed
        # after its one request, a store before yielding any.
        scalar, reference = FORMS[op]
        for addr in (SIZE - 4, -8):
            got = drive(scalar, 1, addr, 7, "u8", 0.0, "")
            assert got == drive(reference, 1, addr, 7, "u8", 0.0, "")
            *requests, (outcome, kind, message) = got[0]
            assert (outcome, kind.__name__) == ("raised", "MemoryError_")
            assert message.startswith("device vector access out of bounds")
            assert len(requests) == (1 if op == "load" else 0)


@pytest.mark.parametrize("op", ["load", "store"])
def test_a_word_wider_than_a_segment_counts_as_the_vector_form(op):
    """With 4-byte segments an 8-byte word is not one span the closed
    form counts: the scalar form counts it as ``transactions_for``
    counts a lane wider than a segment, as the vector form does."""
    spec = dataclasses.replace(K80_SPEC, dram_transaction_bytes=4)
    dev = Device(spec=spec, memory_bytes=SIZE)
    ctxs = []

    def grab(ctx):
        ctxs.append(ctx)
        yield from ctx.flush()

    dev.launch(grab, grid=1, block_threads=32)
    (ctx,) = ctxs
    scalar, reference = FORMS[op]
    for addr in range(12):
        for dtype in ("u8", "u4", "u2"):
            got = next(scalar(ctx, addr, 7, dtype))
            want = next(reference(ctx, addr, 7, dtype))
            assert vars(got) == vars(want), (addr, dtype)


class TestAtomicAdd:
    """``atomic_add`` wraps an integer sum two's-complement at the
    dtype's width in both directions, as CUDA ``atomicAdd`` does, and
    returns a float word's old value whole."""

    @pytest.mark.parametrize("dtype", ["i4", "i8", "u4", "u8"])
    @pytest.mark.parametrize("limit, delta, other", [
        ("max", 1, "min"),
        ("min", -1, "max"),
    ])
    def test_sum_past_a_limit_wraps_to_the_other(self, dtype, limit,
                                                 delta, other):
        info = np.iinfo(DTYPES[dtype])
        dev = Device(memory_bytes=SIZE)
        addr = dev.alloc(64)
        dev.memory.write(addr, np.array([getattr(info, limit)], dtype))
        olds = []

        def kern(ctx):
            olds.append((yield from ctx.atomic_add(addr, delta, dtype)))

        dev.launch(kern, grid=1, block_threads=32)
        assert olds == [int(getattr(info, limit))]
        assert type(olds[0]) is int
        word = dev.memory.read(addr, DTYPES[dtype].itemsize).view(dtype)
        assert int(word[0]) == int(getattr(info, other))

    def test_float_add_keeps_the_fraction(self):
        dev = Device(memory_bytes=SIZE)
        addr = dev.alloc(64)
        dev.memory.write(addr, np.array([1.5], "f4"))
        olds = []

        def kern(ctx):
            olds.append((yield from ctx.atomic_add(addr, 0.25, "f4")))

        dev.launch(kern, grid=1, block_threads=32)
        assert olds == [1.5]
        assert dev.memory.read(addr, 4).view("f4")[0] == 1.75


def test_every_integer_dtype_has_its_word():
    for name, dt in DTYPES.items():
        word = kernel._WORDS.get(name)
        if dt.kind == "f":
            assert word is None
            continue
        assert word.size == dt.itemsize
        assert (word.lo, word.hi) == (np.iinfo(dt).min, np.iinfo(dt).max)
        for value in (int(np.iinfo(dt).min), int(np.iinfo(dt).max)):
            assert word.pack(value) == np.array([value], dt).tobytes()
