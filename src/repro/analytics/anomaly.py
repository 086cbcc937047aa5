"""Streaming anomaly detection.

Used by the healthcare experiment (F8: vitals monitoring with immediate
AR notification) and the public-services experiment (traffic threat
assessment).  EWMA mean/variance tracking with z-score alarms; a simple
threshold detector for hard clinical limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..util.errors import ConfigError

__all__ = ["Alarm", "EwmaDetector", "ThresholdDetector"]


@dataclass(frozen=True)
class Alarm:
    """One raised anomaly."""

    timestamp: float
    value: float
    score: float
    kind: str


class EwmaDetector:
    """Exponentially weighted mean/std with z-score alarming.

    A warm-up period suppresses alarms until the baseline stabilizes.
    The mean and variance move by ``alpha`` of each new reading.
    """

    alpha = 0.05

    def __init__(self, threshold: float = 4.0, warmup: int = 30) -> None:
        if threshold <= 0:
            raise ConfigError("threshold must be positive")
        self.threshold = threshold
        self.warmup = warmup
        self._mean: float | None = None
        self._var = 0.0
        self.observed = 0
        self.alarms: list[Alarm] = []

    def add(self, value: float, timestamp: float = 0.0) -> Alarm | None:
        value = float(value)
        self.observed += 1
        if self._mean is None:
            self._mean = value
            return None
        diff = value - self._mean
        std = math.sqrt(self._var) if self._var > 0 else 0.0
        score = abs(diff) / std if std > 0 else 0.0
        alarm = None
        if self.observed > self.warmup and score > self.threshold:
            alarm = Alarm(timestamp=timestamp, value=value, score=score,
                          kind="ewma-z")
            self.alarms.append(alarm)
            # Do not fold outliers into the baseline; robustness against
            # level shifts comes from alpha.
            return alarm
        self._mean += self.alpha * diff
        self._var = (1 - self.alpha) * (self._var + self.alpha * diff ** 2)
        return alarm

    @property
    def mean(self) -> float:
        return self._mean if self._mean is not None else math.nan

    @property
    def std(self) -> float:
        return math.sqrt(self._var)


class ThresholdDetector:
    """Hard limits (e.g. clinical vital ranges)."""

    def __init__(self, low: float | None = None,
                 high: float | None = None) -> None:
        if low is None and high is None:
            raise ConfigError("at least one of low/high must be set")
        if low is not None and high is not None and low >= high:
            raise ConfigError("low must be below high")
        self.low = low
        self.high = high
        self.alarms: list[Alarm] = []

    def add(self, value: float, timestamp: float = 0.0) -> Alarm | None:
        value = float(value)
        breached = ((self.low is not None and value < self.low)
                    or (self.high is not None and value > self.high))
        if not breached:
            return None
        reference = self.low if (self.low is not None
                                 and value < self.low) else self.high
        score = abs(value - reference)
        alarm = Alarm(timestamp=timestamp, value=value, score=score,
                      kind="threshold")
        self.alarms.append(alarm)
        return alarm
