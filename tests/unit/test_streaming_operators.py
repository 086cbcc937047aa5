"""Unit tests: stream operators, watermark generation, windows assigners."""

import math

import numpy as np
import pytest

from repro.streaming import (
    Element,
    FilterOperator,
    JobBuilder,
    KeyByOperator,
    MapOperator,
    ReduceOperator,
    TumblingWindows,
    Watermark,
    WatermarkGenerator,
    Window,
)
from repro.util.errors import ConfigError, StreamError


def _el(value, ts=0.0, key=None):
    return Element(value=value, timestamp=ts, key=key)


class TestElementPickling:
    ROWS = [_el(1.5, 2.0, "k"), _el({"v": [1, 2]}, 0.5, ("a", 1)),
            _el(None, float("inf")), _el("x", -1.0, 7)]

    def test_round_trip_is_equal_and_still_frozen(self):
        import copy
        import pickle
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(self.ROWS, protocol))
            assert back == self.ROWS
            assert all(type(e) is Element for e in back)
        clone = copy.deepcopy(self.ROWS[1])
        assert clone == self.ROWS[1]
        assert clone.value is not self.ROWS[1].value
        with pytest.raises(AttributeError):
            clone.value = 0

    def test_checkpoint_digest_is_stable(self):
        # the store re-derives a payload's digest to verify it: equal
        # state, pickled again or rebuilt from its own pickle, must
        # hash the same
        import pickle
        from repro.streaming.coordinator import _digest
        rebuilt = pickle.loads(pickle.dumps(self.ROWS))
        assert _digest(self.ROWS) == _digest(list(self.ROWS)) \
            == _digest(rebuilt)
        assert _digest(self.ROWS) != _digest(self.ROWS[:-1])


class TestBasicOperators:
    def test_map(self):
        op = MapOperator("m", lambda v: v * 2)
        out = op.handle(_el(3))
        assert [o.value for o in out] == [6]
        assert op.processed == 1
        assert op.emitted == 1

    def test_map_preserves_timestamp_and_key(self):
        op = MapOperator("m", str)
        out = op.handle(_el(1, ts=9.0, key="k"))
        assert out[0].timestamp == 9.0
        assert out[0].key == "k"

    def test_filter(self):
        op = FilterOperator("f", lambda v: v % 2 == 0)
        assert op.handle(_el(2)) == [_el(2)]
        assert op.handle(_el(3)) == []

    def test_key_by(self):
        op = KeyByOperator("k", lambda v: v["user"])
        out = op.handle(_el({"user": "u1"}))
        assert out[0].key == "u1"

    def test_reduce_requires_key(self):
        op = ReduceOperator("r", lambda a, b: a + b)
        with pytest.raises(StreamError):
            op.handle(_el(1))

    def test_reduce_accumulates_per_key(self):
        op = ReduceOperator("r", lambda a, b: a + b)
        assert op.handle(_el(1, key="a"))[0].value == 1
        assert op.handle(_el(2, key="a"))[0].value == 3
        assert op.handle(_el(10, key="b"))[0].value == 10

    def test_reduce_snapshot_restore(self):
        op = ReduceOperator("r", lambda a, b: a + b)
        op.handle(_el(5, key="a"))
        captured = op.capture()
        op.handle(_el(5, key="a"))
        op.rollback(captured)
        assert op.handle(_el(1, key="a"))[0].value == 6

    def test_watermark_passthrough_on_stateless(self):
        op = MapOperator("m", lambda v: v)
        assert op.handle(Watermark(5.0)) == [Watermark(5.0)]


class TestWatermarkGenerator:
    def test_emits_behind_max_timestamp(self):
        gen = WatermarkGenerator("wm", max_lateness=2.0)
        out = gen.handle(_el(1, ts=10.0))
        wms = [o for o in out if isinstance(o, Watermark)]
        assert wms == [Watermark(8.0)]

    def test_watermarks_monotone(self):
        gen = WatermarkGenerator("wm", max_lateness=0.0)
        gen.handle(_el(1, ts=10.0))
        out = gen.handle(_el(1, ts=5.0))  # late element
        assert not any(isinstance(o, Watermark) for o in out)

    def test_emit_every(self):
        gen = WatermarkGenerator("wm", max_lateness=0.0, emit_every=3)
        outs = [gen.handle(_el(1, ts=float(i))) for i in range(1, 4)]
        assert not any(isinstance(o, Watermark) for o in outs[0])
        assert not any(isinstance(o, Watermark) for o in outs[1])
        assert any(isinstance(o, Watermark) for o in outs[2])

    def test_swallows_upstream_watermarks(self):
        gen = WatermarkGenerator("wm", max_lateness=1.0)
        assert gen.handle(Watermark(99.0)) == []

    def test_flush_emits_final_watermark(self):
        gen = WatermarkGenerator("wm", max_lateness=1.0)
        gen.handle(_el(1, ts=1.0))
        assert gen.flush() == [Watermark(float("inf"))]

    def test_flush_empty_stream(self):
        assert WatermarkGenerator("wm", 1.0).flush() == []

    @pytest.mark.parametrize("lateness", [-1.0, math.nan])
    def test_negative_or_nan_lateness_rejected(self, lateness):
        # NaN passed ``< 0``, and every watermark came out NaN
        with pytest.raises(StreamError):
            JobBuilder("j").source("s", []).with_watermarks(lateness)


class TestWindowAssigners:
    def test_tumbling_assigns_single_window(self):
        assigner = TumblingWindows(10.0)
        assert assigner.assign(25.0) == [Window(20.0, 30.0)]

    def test_tumbling_boundary_goes_to_next(self):
        assigner = TumblingWindows(10.0)
        assert assigner.assign(20.0) == [Window(20.0, 30.0)]

    @pytest.mark.parametrize("size", [0.0, -1.0, math.nan, math.inf,
                                      -math.inf])
    def test_size_must_be_positive_and_finite(self, size):
        # NaN and inf put every row in ``Window(nan, nan)``, a window
        # that never fires: a job emitted nothing, with no error
        with pytest.raises(ConfigError):
            TumblingWindows(size)

    def test_negative_zero_starts_at_positive_zero(self):
        # the ``+ 0.0`` in both assigners: without it the window of
        # -0.0 would start at -0.0, and its repr (and every digest over
        # it) would change
        assigner = TumblingWindows(10.0)
        (window,) = assigner.assign(-0.0)
        assert repr(window) == "Window(start=0.0, end=10.0)"
        assert math.copysign(1.0, window.start) == 1.0
        starts = assigner.assign_starts(np.array([-0.0, 0.0, -5.0]))
        assert [math.copysign(1.0, s) for s in starts.tolist()] \
            == [1.0, 1.0, -1.0]
        assert starts.tolist() == [0.0, 0.0, -10.0]

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError):
            Window(5.0, 5.0)
