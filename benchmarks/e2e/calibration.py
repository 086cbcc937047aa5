"""Host-speed calibration, block speed correction and the percentile guard.

The bench box is a shared 2-core VM whose speed drifts by tens of
percent from one second to the next, so raw wall-clock cannot be
compared across runs.  Every timed unit (one chunk, one block of
frames, queries or live ticks) is therefore bracketed by readings of a
**frozen calibration kernel**, and the unit's duration is scaled by
``cal_ref_ms / mean(bracket)``: a unit measured while the host ran 20 %
slow is credited back those 20 %.

A reading is the *median* of a few short kernel runs, not one long run:
the host's noise is a slow drift (what the correction is for) plus
bursts of tens of milliseconds, and a single run that catches a burst
would mis-scale the whole unit.  Measured here over ten 25 s stretches
of identical work, correcting by one 50 ms run left the spread where it
was (10 %); correcting by the median of six 8 ms runs cut it to 3.5 %.

This module is pure stdlib + numpy and must never import ``repro``: a
change to the program under test must not be able to move the ruler.
The kernel body is frozen for the same reason — editing it invalidates
``cal_ref_ms`` in ``config.json`` and every number in ``NOISE.md``.
"""

from __future__ import annotations

import gc
import statistics
import time
from operator import itemgetter

import numpy as np

__all__ = ["kernel", "calibrate", "correction_factor", "Phase", "Unit",
           "TooFewSamples", "guarded_percentile", "quartile_spread"]

_FIRST = itemgetter(0)


def kernel(n: int) -> float:
    """The frozen calibration kernel: tuple/dict/str allocation, a keyed
    sort, and ``np.fromiter`` + ``cumsum`` — the instruction mix of the
    pipeline's own per-row work.  Returns a checksum so nothing is
    optimised away."""
    rows = [(i * 2654435761 % 1000003, str(i), {"k": i}) for i in range(n)]
    rows.sort(key=_FIRST)
    table = {}
    for k, s, m in rows:
        table[s] = k + m["k"]
    col = np.fromiter((r[0] for r in rows), dtype=np.float64, count=n)
    return float(col.cumsum()[-1]) + len(table)


def calibrate(n: int, repeats: int) -> float:
    """One calibration reading: the median of ``repeats`` kernel runs,
    in milliseconds.  The collector is off meanwhile so the reading
    tracks CPU speed, not the size of the heap the workload built up."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        runs = []
        for _ in range(repeats):
            started = time.perf_counter_ns()
            kernel(n)
            runs.append(time.perf_counter_ns() - started)
        return statistics.median(runs) / 1e6
    finally:
        if was_enabled:
            gc.enable()


def correction_factor(cal_ref_ms: float, pre_ms: float, post_ms: float
                      ) -> float:
    """Scale for a unit bracketed by readings of ``pre_ms`` and
    ``post_ms``: below 1 when the host ran slower than the reference."""
    bracket = (pre_ms + post_ms) / 2.0
    if bracket <= 0 or cal_ref_ms <= 0:
        raise ValueError("calibration times must be positive")
    return cal_ref_ms / bracket


class Unit:
    """One timed unit: raw duration plus the bracket that corrects it."""

    __slots__ = ("raw_ns", "pre_ms", "post_ms", "factor", "_phase",
                 "_started")

    def __init__(self, phase: "Phase") -> None:
        self._phase = phase
        self.raw_ns = 0
        self.pre_ms = self.post_ms = self.factor = 0.0

    def __enter__(self) -> "Unit":
        # Collect outside the timed region; GC stays enabled inside it.
        # Freezing what survived keeps this collect — and any automatic
        # one inside the unit — proportional to what the last unit
        # allocated, not to the millions of log records and store rows
        # the run has built up (0.1-0.15 s per collect otherwise).
        gc.collect()
        gc.freeze()
        self._started = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.raw_ns = time.perf_counter_ns() - self._started
        if exc_type is None:
            self._phase._close(self)

    @property
    def corrected_ns(self) -> float:
        return self.raw_ns * self.factor


class Phase:
    """A run of consecutive timed units sharing bracket readings:
    ``cal, unit, cal, unit, cal`` — each unit is corrected by the mean
    of the calibration readings on either side of it."""

    def __init__(self, cal_ref_ms: float, cal_n: int,
                 cal_repeats: int = 1) -> None:
        self.cal_ref_ms = cal_ref_ms
        self.cal_n = cal_n
        self.cal_repeats = cal_repeats
        self.units: list[Unit] = []
        self.cal_ms: list[float] = []
        self._last = self._calibrate()

    def _calibrate(self) -> float:
        ms = calibrate(self.cal_n, self.cal_repeats)
        self.cal_ms.append(ms)
        return ms

    def unit(self) -> Unit:
        return Unit(self)

    def _close(self, unit: Unit) -> None:
        unit.pre_ms = self._last
        unit.post_ms = self._last = self._calibrate()
        unit.factor = correction_factor(self.cal_ref_ms, unit.pre_ms,
                                        unit.post_ms)
        self.units.append(unit)


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def guarded_percentile(samples, q: float, *, min_samples: int,
                       min_beyond: int) -> float:
    """``q``-th percentile, refused unless the sample holds at least
    ``min_samples`` values and at least ``min_beyond`` of them lie
    beyond the percentile (so a p99 needs 1 000 samples, not 100)."""
    values = np.asarray(samples, dtype=np.float64)
    n = len(values)
    if n < min_samples:
        raise TooFewSamples(
            f"p{q:g} needs >= {min_samples} samples, got {n}")
    beyond = int(n * min(q, 100.0 - q) / 100.0)
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {beyond} beyond it, "
            f"need >= {min_beyond}")
    return float(np.percentile(values, q))


def quartile_spread(values) -> float:
    """Inter-quartile distance over the median — the run-to-run spread
    statistic the driver gates on."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
