"""Unit tests for the readahead stream detector."""

from repro.readahead import StreamDetector


def feed(det, fpns, file_id=0, hint=0):
    """Feed a page sequence; return the observe() results."""
    return [det.observe(file_id, fpn, hint=hint) for fpn in fpns]


class TestConfirmation:
    def test_sequential_confirms_on_second_access(self):
        det = StreamDetector()
        first, second = feed(det, [10, 11])
        assert first is None
        assert second is not None and second.confirmed
        assert second.stride == 1
        assert second.window == StreamDetector.INITIAL_WINDOW

    def test_strided_stream_confirms(self):
        det = StreamDetector()
        results = feed(det, [0, 32, 64])
        assert results[0] is None
        assert results[1].stride == 32
        assert results[2].run == 3

    def test_stride_beyond_max_never_confirms(self):
        det = StreamDetector()
        limit = StreamDetector.MAX_STRIDE
        results = feed(det, [0, limit + 1, 2 * (limit + 1)])
        assert all(r is None for r in results)
        # The largest recognised stride still confirms.
        assert feed(StreamDetector(), [0, limit])[1].stride == limit

    def test_backward_access_never_confirms(self):
        det = StreamDetector()
        results = feed(det, [100, 90, 80, 70])
        assert all(r is None for r in results)

    def test_refault_of_same_page_is_neutral(self):
        det = StreamDetector()
        feed(det, [5, 6])
        stream = det.observe(0, 6)
        assert stream is not None and stream.run == 2
        # An unconfirmed stream's refault stays unconfirmed.
        det2 = StreamDetector()
        det2.observe(0, 5)
        assert det2.observe(0, 5) is None


class TestStreamIdentity:
    def test_hints_separate_interleaved_streams(self):
        det = StreamDetector()
        # Two warps interleave sequential runs over disjoint regions;
        # with per-hint streams both confirm.
        a1 = det.observe(0, 0, hint=0)
        b1 = det.observe(0, 100, hint=1)
        a2 = det.observe(0, 1, hint=0)
        b2 = det.observe(0, 101, hint=1)
        assert a1 is None and b1 is None
        assert a2.confirmed and b2.confirmed
        assert a2 is not b2

    def test_files_do_not_share_streams(self):
        det = StreamDetector()
        det.observe(0, 0)
        assert det.observe(1, 1) is None  # new embryo, not a confirm

    def test_lru_recycling_bounds_stream_count(self):
        det = StreamDetector()
        limit = StreamDetector.MAX_STREAMS
        for hint in range(limit + 3):
            det.observe(0, hint * 10, hint=hint)
        assert len(det.streams) == limit
        assert det.counters.streams_recycled == 3
        assert det.counters.streams_created == limit + 3
        # The three least recently used hints were the ones recycled.
        assert min(s.hint for s in det.streams) == 3


class TestWindowFeedback:
    def test_grow_doubles_and_clamps(self):
        det = StreamDetector()
        stream = feed(det, [0, 1])[1]
        assert stream.window == 4
        for window in (8, 16, 32, 64):
            assert det.grow(stream) and stream.window == window
        assert stream.window == StreamDetector.MAX_WINDOW
        assert not det.grow(stream) and stream.window == 64

    def test_shrink_halves_and_clamps(self):
        det = StreamDetector()
        det.INITIAL_WINDOW = 8
        stream = feed(det, [0, 1])[1]
        assert det.shrink(stream) and stream.window == 4
        assert det.shrink(stream) and stream.window == 2
        assert stream.window == StreamDetector.MIN_WINDOW
        assert not det.shrink(stream) and stream.window == 2

    def test_pattern_break_keeps_learnt_window(self):
        det = StreamDetector()
        stream = feed(det, [0, 1])[1]
        det.grow(stream)
        grown = stream.window
        # A backward seek breaks the pattern ...
        assert det.observe(0, 1000) is None
        assert not stream.confirmed and stream.next_ra is None
        # ... but re-confirming resumes with the learnt window.
        again = det.observe(0, 1001)
        assert again is stream and again.confirmed
        assert again.window == grown
