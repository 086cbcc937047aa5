"""Unit tests: SimClock, metrics."""

import math

import pytest

from repro.util import (
    Counter,
    MetricsRegistry,
    SimClock,
    Summary,
)
from repro.util.errors import ClockError


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.5) == 2.0

    def test_advance_zero_allowed(self):
        clock = SimClock()
        clock.advance(3.0)
        assert clock.advance(0.0) == 3.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ClockError):
            SimClock().advance(-0.1)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_past_rejected(self):
        clock = SimClock()
        clock.advance_to(5.0)
        with pytest.raises(ClockError):
            clock.advance_to(4.9)

    def test_advance_to_same_time_ok(self):
        clock = SimClock()
        clock.advance(5.0)
        assert clock.advance_to(5.0) == 5.0


class TestMetrics:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_summary_statistics(self):
        summary = Summary()
        for value in [1.0, 2.0, 3.0, 4.0]:
            summary.observe(value)
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.percentile(50) == 2.5

    def test_summary_empty_is_nan(self):
        assert math.isnan(Summary().mean)

    def test_registry_same_name_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.summary("s") is registry.summary("s")

    def test_registry_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.summary("s").observe(2.0)
        snap = registry.snapshot()
        assert snap["c"] == 3.0
        assert snap["g"] == 1.5
        assert snap["s.mean"] == 2.0
