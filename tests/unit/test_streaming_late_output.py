"""Unit tests: late data on the window operator is dropped and counted
(there is no late side output)."""

from repro.streaming import (
    Element,
    TumblingWindows,
    Watermark,
    WindowAggregateOperator,
)


def _el(value, ts, key="k"):
    return Element(value=value, timestamp=ts, key=key)


class TestLateSideOutput:
    def test_default_still_drops(self):
        op = WindowAggregateOperator("w", TumblingWindows(10.0), "count")
        op.handle(_el(1, 5.0))
        op.handle(Watermark(20.0))
        assert op.handle(_el(2, 5.0)) == []
        assert op.dropped_late == 1
