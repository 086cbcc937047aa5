"""Unit tests: late-data side output on the window operator."""

from repro.streaming import (
    Element,
    JobBuilder,
    LateRecord,
    ParallelExecutor,
    TumblingWindows,
    Watermark,
    WindowAggregateOperator,
    WindowResult,
)


def _el(value, ts, key="k"):
    return Element(value=value, timestamp=ts, key=key)


class TestLateSideOutput:
    def test_late_element_emitted_not_dropped(self):
        op = WindowAggregateOperator("w", TumblingWindows(10.0), "count",
                                     emit_late=True)
        op.handle(_el(1, 5.0))
        op.handle(Watermark(20.0))
        out = op.handle(_el(2, 5.0))  # late
        assert len(out) == 1
        late = out[0].value
        assert isinstance(late, LateRecord)
        assert late.value == 2
        assert late.lateness == 15.0
        assert late.key == "k"
        assert op.dropped_late == 1  # still counted

    def test_default_still_drops(self):
        op = WindowAggregateOperator("w", TumblingWindows(10.0), "count")
        op.handle(_el(1, 5.0))
        op.handle(Watermark(20.0))
        assert op.handle(_el(2, 5.0)) == []

    def test_pipeline_splits_results_and_late(self):
        # Out-of-order stream: one element arrives long after the
        # watermark passed its window.
        elements = [
            _el(1, 1.0), _el(1, 2.0), _el(1, 30.0), _el(1, 40.0),
            _el(1, 3.0),  # very late
        ]
        builder = JobBuilder("late-split")
        windowed = (builder.source("s", elements)
                           .with_watermarks(0.0)
                           .key_by(lambda v: "all")
                           .window(TumblingWindows(10.0), "count",
                                   emit_late=True))
        windowed.filter(lambda v: isinstance(v, WindowResult),
                        name="results").sink("out")
        windowed.filter(lambda v: isinstance(v, LateRecord),
                        name="late").sink("late_out")
        sinks = ParallelExecutor(builder.build()).run()
        late = sinks["late_out"].values
        assert len(late) == 1
        assert late[0].timestamp == 3.0
        # On-time elements all counted in their windows.
        counted = sum(r.value for r in sinks["out"].values)
        assert counted == 4

    def test_late_records_enable_correction(self):
        """The correction pattern: amend released counts with late data."""
        elements = [_el(1, t) for t in
                    [1.0, 2.0, 15.0, 16.0, 3.0, 4.0, 25.0]]
        builder = JobBuilder("amend")
        windowed = (builder.source("s", elements)
                           .with_watermarks(0.0)
                           .key_by(lambda v: "all")
                           .window(TumblingWindows(10.0), "count",
                                   emit_late=True))
        windowed.sink("mixed")
        sinks = ParallelExecutor(builder.build()).run()
        released = {}
        for value in sinks["mixed"].values:
            if isinstance(value, WindowResult):
                released[value.window.start] = released.get(
                    value.window.start, 0) + value.value
            else:  # LateRecord: amend the window it belonged to
                start = (value.timestamp // 10.0) * 10.0
                released[start] = released.get(start, 0) + 1
        # After amendment, every element is accounted for.
        assert sum(released.values()) == len(elements)
        assert released[0.0] == 4  # 1, 2 on time + 3, 4 amended
