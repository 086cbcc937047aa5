"""Incremental computation over partial results (paper Section 4.1).

"Incrementally computing a small amount of new data based on partial
results in advance can get a quick determination, while the crowding new
data and new analysis criteria may render the results invalid."

These accumulators update in O(1) per element and can be *invalidated*
by a criteria change, at which point they must be rebuilt from history —
exactly the trade-off experiment T2 measures against batch recomputation.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from ..util.errors import ConfigError

__all__ = ["RunningStats", "DecayedCounter", "IncrementalQuery"]


class RunningStats:
    """Welford's online mean/variance/min/max."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Population variance."""
        return self._m2 / self.count if self.count else math.nan

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if not math.isnan(v) else math.nan

    def merge(self, other: "RunningStats") -> None:
        """Chan's parallel merge — keeps distributed partials combinable."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta ** 2 * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)


class DecayedCounter:
    """Exponentially time-decayed count — recency-weighted popularity.

    ``count(now) = sum_i exp(-(now - t_i) / tau)``, maintained lazily.
    """

    def __init__(self, tau: float) -> None:
        if tau <= 0:
            raise ConfigError("decay constant tau must be positive")
        self.tau = tau
        self._value = 0.0
        self._last = 0.0

    def add(self, now: float, weight: float = 1.0) -> None:
        self._decay_to(now)
        self._value += weight

    def value(self, now: float) -> float:
        self._decay_to(now)
        return self._value

    def _decay_to(self, now: float) -> None:
        if now < self._last:
            raise ConfigError("time moved backwards in DecayedCounter")
        if now > self._last:
            self._value *= math.exp(-(now - self._last) / self.tau)
            self._last = now


class IncrementalQuery:
    """A query answered from an incrementally maintained partial result.

    Wraps an accumulator with the invalidation semantics the paper warns
    about: ``update`` folds one new element in O(1); changing the query
    ``criteria`` invalidates the partial result, forcing ``rebuild``
    over retained history.  Counters expose how often each path ran so
    experiment T2 can price them.
    """

    def __init__(self, criteria: Callable[[dict], bool],
                 value_fn: Callable[[dict], float]) -> None:
        self.criteria = criteria
        self.value_fn = value_fn
        self.stats = RunningStats()
        self.updates = 0
        self.rebuilds = 0
        self.rebuild_cost = 0  # elements rescanned by rebuilds

    def update(self, element: dict) -> None:
        """O(1) incremental fold of one new element."""
        self.updates += 1
        if self.criteria(element):
            self.stats.add(self.value_fn(element))

    def answer(self) -> float:
        """Current (possibly slightly stale upstream) aggregate."""
        return self.stats.mean

    def change_criteria(self, criteria: Callable[[dict], bool],
                        history: Iterable[dict]) -> None:
        """New analysis criteria invalidate the partial; rebuild from
        history (the expensive path)."""
        self.criteria = criteria
        self.stats = RunningStats()
        self.rebuilds += 1
        for element in history:
            self.rebuild_cost += 1
            if self.criteria(element):
                self.stats.add(self.value_fn(element))
