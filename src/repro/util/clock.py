"""Simulated time.

Every subsystem that needs a notion of "now" receives a :class:`SimClock`
instead of reading the wall clock.  This keeps the whole library
deterministic: tests and benchmarks advance time explicitly, and the
discrete-event kernel in :mod:`repro.simnet` drives the same clock.

Times are floats in **seconds** since simulation start.  Durations are
also seconds; helper constants for milliseconds/microseconds avoid unit
mistakes at call sites.
"""

from __future__ import annotations

from .errors import ClockError

MILLIS = 1e-3
MICROS = 1e-6

__all__ = ["SimClock", "MILLIS", "MICROS"]


class SimClock:
    """A monotonic simulated clock.

    The clock only moves forward.  ``advance`` moves by a delta,
    ``advance_to`` jumps to an absolute time.  Both raise
    :class:`~repro.util.errors.ClockError` on attempts to rewind, which
    almost always indicate a scheduling bug in the caller.
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` seconds and return the new now."""
        if delta < 0:
            raise ClockError(f"cannot advance clock by negative delta {delta!r}")
        self._now += delta
        return self._now

    def advance_to(self, when: float) -> float:
        """Jump to absolute time ``when`` (must not be in the past)."""
        if when < self._now:
            raise ClockError(
                f"cannot rewind clock from {self._now!r} to {when!r}"
            )
        self._now = float(when)
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f})"
