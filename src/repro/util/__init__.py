"""Shared infrastructure: clock, RNG plumbing, geometry, metrics, retry."""

from .clock import MICROS, MILLIS, SimClock
from .geometry import Rect, clamp
from .metrics import Counter, Gauge, MetricsRegistry, Summary
from .retry import CircuitBreaker, Retrier, RetryPolicy
from .rng import RngRegistry, make_rng

__all__ = [
    "SimClock",
    "MILLIS",
    "MICROS",
    "Rect",
    "clamp",
    "Counter",
    "Gauge",
    "Summary",
    "MetricsRegistry",
    "RngRegistry",
    "make_rng",
    "RetryPolicy",
    "Retrier",
    "CircuitBreaker",
]
