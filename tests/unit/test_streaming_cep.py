"""Unit tests: the CEP pattern operator."""

import threading

import pytest

from repro.streaming import (
    Element,
    JobBuilder,
    ParallelExecutor,
    PatternMatch,
    PatternOperator,
    PatternStep,
    Watermark,
)
from repro.util.errors import StreamError


def _el(value, ts, key="pt-1"):
    return Element(value=value, timestamp=ts, key=key)


def _vitals_pattern(within=300.0):
    return PatternOperator("sepsis-ish", [
        PatternStep("tachy", lambda v: v.get("hr", 0) > 110),
        PatternStep("hypo", lambda v: v.get("bp", 999) < 90),
    ], within_s=within)


class TestPatternOperator:
    def test_sequence_matches_in_order(self):
        op = _vitals_pattern()
        assert op.handle(_el({"hr": 120}, 10.0)) == []
        out = op.handle(_el({"bp": 80}, 100.0))
        assert len(out) == 1
        match = out[0].value
        assert isinstance(match, PatternMatch)
        assert match.timestamps[-1] - match.timestamps[0] == 90.0
        assert match.events[0]["hr"] == 120
        assert op.matches == 1

    def test_wrong_order_no_match(self):
        op = _vitals_pattern()
        assert op.handle(_el({"bp": 80}, 10.0)) == []
        assert op.handle(_el({"hr": 95}, 20.0)) == []
        assert op.matches == 0

    def test_skip_till_next_match_ignores_noise(self):
        op = _vitals_pattern()
        op.handle(_el({"hr": 120}, 10.0))
        op.handle(_el({"hr": 100}, 20.0))  # noise
        op.handle(_el({"temp": 37.0}, 30.0))  # noise
        out = op.handle(_el({"bp": 85}, 40.0))
        assert len(out) == 1

    def test_window_expiry_restarts(self):
        op = _vitals_pattern(within=100.0)
        op.handle(_el({"hr": 120}, 0.0))
        # The second step arrives too late; partial restarts, so no match.
        assert op.handle(_el({"bp": 80}, 500.0)) == []
        # But the same key can start fresh and complete.
        op.handle(_el({"hr": 130}, 510.0))
        assert len(op.handle(_el({"bp": 70}, 560.0))) == 1

    def test_expired_partial_reseeds_with_current_element(self):
        op = _vitals_pattern(within=100.0)
        op.handle(_el({"hr": 120}, 0.0))
        # Late, but itself a valid *first* step: becomes the new seed.
        assert op.handle(_el({"hr": 140}, 500.0)) == []
        assert len(op.handle(_el({"bp": 80}, 550.0))) == 1

    def test_keys_independent(self):
        op = _vitals_pattern()
        op.handle(_el({"hr": 120}, 0.0, key="a"))
        assert op.handle(_el({"bp": 80}, 10.0, key="b")) == []
        assert len(op.handle(_el({"bp": 80}, 10.0, key="a"))) == 1

    def test_match_resets_state(self):
        op = _vitals_pattern()
        op.handle(_el({"hr": 120}, 0.0))
        op.handle(_el({"bp": 80}, 10.0))
        # A fresh match requires the full sequence again.
        assert op.handle(_el({"bp": 70}, 20.0)) == []
        op.handle(_el({"hr": 125}, 30.0))
        assert len(op.handle(_el({"bp": 60}, 40.0))) == 1

    def test_watermark_gc(self):
        op = _vitals_pattern(within=50.0)
        op.handle(_el({"hr": 120}, 0.0))
        op.handle(Watermark(1000.0))
        assert len(op.state) == 0

    def test_unkeyed_rejected(self):
        op = _vitals_pattern()
        with pytest.raises(StreamError):
            op.handle(Element(value={"hr": 120}, timestamp=0.0))

    def test_validation(self):
        with pytest.raises(StreamError):
            PatternOperator("p", [PatternStep("only", lambda v: True)],
                            within_s=10.0)
        with pytest.raises(StreamError):
            PatternOperator("p", [PatternStep("a", lambda v: True),
                                  PatternStep("a", lambda v: True)],
                            within_s=10.0)

    def test_snapshot_restore(self):
        op = _vitals_pattern()
        op.handle(_el({"hr": 120}, 0.0))
        captured = op.capture()
        op.handle(_el({"bp": 80}, 10.0))  # completes
        op.rollback(captured)
        # Restored to the half-complete state: second step completes it.
        assert len(op.handle(_el({"bp": 85}, 20.0))) == 1

    def test_checkpoint_copies_the_lists_not_the_events(self):
        # A partial's lists are copied; its event values are shared, as
        # a checkpoint of CEP state always has, so an event that does
        # not deep-copy (here it holds a lock) still checkpoints.
        op = _vitals_pattern()
        event = {"hr": 120, "lock": threading.Lock()}
        op.handle(_el(event, 0.0))
        (blob,) = op.state.snapshot_by_group(128).values()
        events, timestamps = blob["pt-1"]
        assert events == [event] and events[0] is event
        live_events, live_timestamps = op.state.get("pt-1")
        assert events is not live_events
        assert timestamps is not live_timestamps
        op.state.restore_groups([blob])
        assert op.state.get("pt-1")[0] is not events
        assert len(op.handle(_el({"bp": 80}, 10.0))) == 1
        assert blob["pt-1"] == ([event], [0.0])

    def test_in_dataflow_graph(self):
        elements = [
            _el({"hr": 120}, 1.0, key="pt-1"),
            _el({"hr": 115}, 2.0, key="pt-2"),
            _el({"bp": 85}, 3.0, key="pt-1"),
            _el({"bp": 95}, 4.0, key="pt-2"),  # bp not low: no match
        ]
        builder = JobBuilder("cep")
        (builder.source("vitals", elements)
                .key_by(lambda v: v.pop("_key") if "_key" in v else None))
        # key is already on the elements; use a pass-through key_by.
        builder2 = JobBuilder("cep2")
        (builder2.source("vitals", elements)
                 .apply(_vitals_pattern())
                 .sink("matches"))
        sinks = ParallelExecutor(builder2.build()).run()
        assert len(sinks["matches"]) == 1
        assert sinks["matches"].values[0].key == "pt-1"
