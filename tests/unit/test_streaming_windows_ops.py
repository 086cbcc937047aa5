"""Unit tests: window aggregation operator and interval join."""

import copy

import pytest

from repro.streaming import (
    Element,
    IntervalJoinOperator,
    TumblingWindows,
    Watermark,
    WindowAggregateOperator,
)
from repro.streaming.window_operator import _Agg
from repro.util.errors import StreamError


def _el(value, ts, key="k"):
    return Element(value=value, timestamp=ts, key=key)


def _results(items):
    return [i.value for i in items if isinstance(i, Element)]


class TestWindowAggregate:
    def test_fires_on_watermark(self):
        op = WindowAggregateOperator("w", TumblingWindows(10.0), "sum")
        op.handle(_el(1.0, 1.0))
        op.handle(_el(2.0, 5.0))
        assert _results(op.handle(Watermark(9.0))) == []
        fired = _results(op.handle(Watermark(10.0)))
        assert len(fired) == 1
        assert fired[0].value == 3.0
        assert fired[0].count == 2
        assert fired[0].window.start == 0.0

    def test_keys_are_independent(self):
        op = WindowAggregateOperator("w", TumblingWindows(10.0), "count")
        op.handle(_el(1, 1.0, key="a"))
        op.handle(_el(1, 2.0, key="b"))
        op.handle(_el(1, 3.0, key="a"))
        fired = _results(op.handle(Watermark(10.0)))
        counts = {r.key: r.value for r in fired}
        assert counts == {"a": 2, "b": 1}

    def test_mean_aggregate(self):
        op = WindowAggregateOperator("w", TumblingWindows(10.0), "mean",
                                     value_fn=lambda v: v["x"])
        op.handle(_el({"x": 2.0}, 1.0))
        op.handle(_el({"x": 4.0}, 2.0))
        fired = _results(op.handle(Watermark(10.0)))
        assert fired[0].value == 3.0

    def test_min_max_list(self):
        for agg, expected in (("min", 1.0), ("max", 5.0), ("list", [1.0, 5.0])):
            op = WindowAggregateOperator("w", TumblingWindows(10.0), agg)
            op.handle(_el(1.0, 1.0))
            op.handle(_el(5.0, 2.0))
            assert _results(op.handle(Watermark(10.0)))[0].value == expected

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(StreamError):
            WindowAggregateOperator("w", TumblingWindows(10.0), "median")

    def test_unkeyed_input_rejected(self):
        op = WindowAggregateOperator("w", TumblingWindows(10.0))
        with pytest.raises(StreamError):
            op.handle(Element(value=1, timestamp=0.0))

    def test_late_element_dropped_and_counted(self):
        op = WindowAggregateOperator("w", TumblingWindows(10.0), "count")
        op.handle(_el(1, 5.0))
        op.handle(Watermark(20.0))
        out = op.handle(_el(1, 5.0))  # late for the [0,10) window
        assert out == []
        assert op.dropped_late == 1

    def test_result_timestamp_is_window_end(self):
        op = WindowAggregateOperator("w", TumblingWindows(10.0), "count")
        op.handle(_el(1, 5.0))
        out = [i for i in op.handle(Watermark(10.0))
               if isinstance(i, Element)]
        assert out[0].timestamp == 10.0

    def test_flush_fires_remaining(self):
        op = WindowAggregateOperator("w", TumblingWindows(10.0), "count")
        op.handle(_el(1, 5.0))
        fired = _results(op.flush())
        assert len(fired) == 1

    def test_snapshot_restore_roundtrip(self):
        op = WindowAggregateOperator("w", TumblingWindows(10.0), "sum")
        op.handle(_el(1.0, 1.0))
        captured = op.capture()
        op.handle(_el(100.0, 2.0))
        op.rollback(captured)
        fired = _results(op.handle(Watermark(10.0)))
        assert fired[0].value == 1.0

    @pytest.mark.parametrize("aggregate", [
        "count", "sum", "min", "max", "mean", "list",
        # an aggregator with no copy of its own: deepcopy fallback
        _Agg(lambda: {"n": []}, lambda a, v: a["n"].append(v) or a,
             lambda a: len(a["n"])),
    ])
    def test_snapshots_equal_deepcopy_and_share_nothing_mutable(
            self, aggregate):
        op = WindowAggregateOperator("w", TumblingWindows(10.0), aggregate)
        for i in range(70):  # past the sum accumulator's compaction point
            op.handle(_el(float(i), float(i % 25), key=("k", i % 3)))
        reference = copy.deepcopy(dict(op.state.items()))
        keyed, scalar = op.capture()
        groups = op.state.snapshot_by_group(8)
        assert keyed == reference
        assert {k: v for blob in groups.values()
                for k, v in blob.items()} == reference
        for i in range(70):  # mutate every live accumulator in place
            op.handle(_el(1.0, float(i % 25), key=("k", i % 3)))
        assert keyed == reference
        op.rollback((keyed, scalar))
        op.handle(_el(1.0, 1.0, key=("k", 0)))
        assert keyed == reference
        twin = WindowAggregateOperator("w", TumblingWindows(10.0), aggregate)
        twin.state.restore_groups(groups.values())
        twin.restore([scalar])
        twin.handle(_el(1.0, 1.0, key=("k", 0)))
        assert {k: v for blob in groups.values()
                for k, v in blob.items()} == reference


class TestIntervalJoin:
    def _join(self, lower=-5.0, upper=5.0):
        return IntervalJoinOperator("j", lower, upper)

    def test_matches_within_interval(self):
        op = self._join()
        op.process_side("left", _el("L", 10.0))
        out = op.process_side("right", _el("R", 12.0))
        assert len(out) == 1
        joined = out[0].value
        assert (joined.left, joined.right) == ("L", "R")

    def test_no_match_outside_interval(self):
        op = self._join()
        op.process_side("left", _el("L", 10.0))
        assert op.process_side("right", _el("R", 20.0)) == []

    def test_key_isolation(self):
        op = self._join()
        op.process_side("left", _el("L", 10.0, key="a"))
        assert op.process_side("right", _el("R", 10.0, key="b")) == []

    def test_asymmetric_interval(self):
        op = self._join(lower=0.0, upper=2.0)  # right must follow left
        op.process_side("left", _el("L", 10.0))
        assert op.process_side("right", _el("R", 9.0)) == []
        assert len(op.process_side("right", _el("R", 11.0))) == 1

    def test_watermark_forwards_minimum(self):
        op = self._join()
        assert op.on_watermark_side("left", Watermark(10.0)) == []
        out = op.on_watermark_side("right", Watermark(7.0))
        assert out == [Watermark(7.0)]

    def test_watermark_prunes_buffers(self):
        op = self._join(lower=-1.0, upper=1.0)
        op.process_side("left", _el("L", 10.0))
        assert op.buffered() == 1
        op.on_watermark_side("left", Watermark(50.0))
        op.on_watermark_side("right", Watermark(50.0))
        assert op.buffered() == 0

    def test_untagged_input_rejected(self):
        op = self._join()
        with pytest.raises(StreamError):
            op.process(_el("x", 0.0))
        with pytest.raises(StreamError):
            op.on_watermark(Watermark(0.0))

    def test_empty_interval_rejected(self):
        with pytest.raises(StreamError):
            IntervalJoinOperator("j", 5.0, -5.0)

    def test_snapshot_restore(self):
        op = self._join()
        op.process_side("left", _el("L", 10.0))
        captured = op.capture()
        op.process_side("right", _el("R", 10.0))
        op.rollback(captured)
        assert op.buffered() == 1
        assert op.matches == 0
