"""Diurnal + flash-crowd load traces for the autoscaling experiments.

The paper's city-scale AR scenarios (Sec 4) see two load regimes at
once: a slow diurnal swell as people move through the day, and sudden
flash crowds when an event pulls thousands of users into one place.  A
fixed-parallelism backend sized for the diurnal base drowns in the
flash; one sized for the flash idles the rest of the day — which is the
argument for the elastic control plane in
:mod:`repro.streaming.autoscale`.

:class:`LoadProfile` describes both regimes analytically;
:func:`diurnal_flash_events` materializes a deterministic event stream
from it — per-second arrival counts from the rounded cumulative rate
integral (so total volume is exact, not a Poisson draw), keyed by the
mobility grid cell each simulated user occupies (truncated-Lévy traces
from :mod:`repro.datagen.mobility`, the paper's reference [9]).  Element
timestamps double as arrival times for the supervisor's simulated-clock
backlog model: the stream *is* the load trace.
"""

from __future__ import annotations

import math

import numpy as np

from ..streaming.element import Element
from ..util.rng import make_rng
from .mobility import MobilityConfig, generate_population

__all__ = ["LoadProfile", "diurnal_flash_events"]


class LoadProfile:
    """Analytic arrival-rate curve: diurnal sinusoid + flash crowd.

    The base load swings sinusoidally between ``base_rate`` and
    ``peak_rate`` events/s with period ``period_s`` (a compressed
    "day").  During ``[flash_start_s, flash_start_s + flash_duration_s)``
    a flash crowd adds a plateau of ``flash_rate`` events/s on top.
    """

    duration_s = 120.0
    base_rate = 8.0
    peak_rate = 24.0
    period_s = 120.0
    flash_start_s = 60.0
    flash_duration_s = 20.0
    flash_rate = 120.0
    keys = 8

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (events/s) at time ``t``."""
        mid = 0.5 * (self.base_rate + self.peak_rate)
        amp = 0.5 * (self.peak_rate - self.base_rate)
        rate = mid - amp * math.cos(2.0 * math.pi * t / self.period_s)
        if self.flash_start_s <= t \
                < self.flash_start_s + self.flash_duration_s:
            rate += self.flash_rate
        return rate

    def counts_per_second(self) -> np.ndarray:
        """Deterministic integer arrivals per whole second.

        Rounding the *cumulative* rate integral (midpoint rule per
        second) and differencing keeps the total exact: no second
        gains or loses events to independent rounding.
        """
        seconds = int(math.ceil(self.duration_s))
        rates = np.array([self.rate_at(s + 0.5) for s in range(seconds)])
        cumulative = np.round(np.cumsum(rates)).astype(np.int64)
        return np.diff(cumulative, prepend=np.int64(0))


def diurnal_flash_events(seed: int = 0) -> list[Element]:
    """Materialize the :class:`LoadProfile` as a keyed event stream.

    Each event carries the grid cell of a simulated user drawn from a
    truncated-Lévy mobility population — so key skew follows human
    movement, not a uniform draw — and a unique sequence number (sink
    contents stay distinguishable for exactly-once accounting).
    Timestamps spread uniformly within each second and the stream is
    sorted by time, as an ingest log would be.
    """
    rng = make_rng(seed)
    profile = LoadProfile()
    counts = profile.counts_per_second()
    num_users = max(4, 2 * profile.keys)
    steps = max(2, int(math.ceil(profile.duration_s
                                 / MobilityConfig.dt_s)) + 1)
    config = MobilityConfig(steps=steps)
    traces = generate_population(num_users, rng, config)
    grid = int(math.ceil(math.sqrt(profile.keys)))
    cell_m = config.area_m / grid

    def cell_of(user: int, t: float) -> int:
        trace = traces[user]
        step = min(len(trace) - 1, int(t // config.dt_s))
        gx = min(grid - 1, int(trace.xs[step] // cell_m))
        gy = min(grid - 1, int(trace.ys[step] // cell_m))
        return (gy * grid + gx) % profile.keys

    elements: list[Element] = []
    seq = 0
    for second, count in enumerate(counts):
        if count <= 0:
            continue
        offsets = np.sort(rng.uniform(0.0, 1.0, size=int(count)))
        users = rng.integers(0, num_users, size=int(count))
        for offset, user in zip(offsets, users):
            ts = float(second + offset)
            elements.append(Element(
                value={"k": cell_of(int(user), ts), "v": 1.0, "seq": seq},
                timestamp=ts))
            seq += 1
    return elements
