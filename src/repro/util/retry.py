"""Retry with capped exponential backoff and circuit breaking.

The production-side half of the chaos story (see ``repro.chaos``): every
layer that can see a transient fault — producers appending to an
unavailable partition, consumers fetching from a failed-over leader,
the offload runner talking to a flaky tier — retries through this one
module, so backoff behaviour is uniform and *deterministic*.

Determinism rules (CONTRIBUTING.md rule 1) shape the design:

- Jitter comes from a seeded ``numpy.random.Generator``, so the exact
  delay sequence of a policy reproduces for a given seed.
- Time is simulated: delays advance a :class:`SimClock` (when given)
  instead of sleeping, and the circuit breaker's cool-down reads the
  same clock.  No wall-clock anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .clock import SimClock
from .errors import CircuitOpen, ConfigError, RetryExhausted
from .rng import make_rng

__all__ = ["RetryPolicy", "Retrier", "CircuitBreaker"]


#: calls a :class:`Retrier` makes before it gives up (1 never retries)
MAX_ATTEMPTS = 8
#: backoff growth per retry
MULTIPLIER = 2.0
#: half-width of the jitter band, as a fraction of the delay
JITTER = 0.1


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded jitter.

    Delay before retry *n* (1-based) is::

        min(max_delay_s, base_delay_s * MULTIPLIER ** (n - 1))
        * (1 + JITTER * u),   u ~ Uniform(-1, 1) from the seeded stream
    """

    base_delay_s: float = 0.05
    max_delay_s: float = 5.0

    def __post_init__(self) -> None:
        if not (self.base_delay_s >= 0 and self.max_delay_s >= 0):
            raise ConfigError("delays must be non-negative numbers")

    def delay(self, retry_index: int, rng: np.random.Generator) -> float:
        """The delay before retry ``retry_index`` (1-based), its jitter
        drawn from ``rng``."""
        raw = min(self.max_delay_s,
                  self.base_delay_s * MULTIPLIER ** (retry_index - 1))
        return raw * (1.0 + JITTER * (rng.random() * 2.0 - 1.0))


class Retrier:
    """Executes callables under the default :class:`RetryPolicy`.

    Stateful so that the jitter stream is drawn once per retrier, not
    re-seeded per call — two calls through the same retrier see
    *different* (but still reproducible) jitter, matching how a real
    client process behaves.
    """

    def __init__(self, clock: SimClock | None = None) -> None:
        self.policy = RetryPolicy()
        self.clock = clock
        self._rng = make_rng(0)
        self.attempts = 0
        self.retries = 0
        self.total_backoff_s = 0.0

    def call(self, fn: Callable[[], Any],
             retry_on: tuple[type[BaseException], ...] | Iterable[
                 type[BaseException]] = (Exception,)) -> Any:
        """Call ``fn`` until it succeeds or ``MAX_ATTEMPTS`` calls have
        failed."""
        retry_on = tuple(retry_on)
        attempt = 1
        while True:
            self.attempts += 1
            try:
                return fn()
            except retry_on as exc:
                if attempt >= MAX_ATTEMPTS:
                    raise RetryExhausted(
                        f"gave up after {attempt} attempts: {exc}",
                        last_error=exc) from exc
                delay = self.policy.delay(attempt, self._rng)
                if self.clock is not None:
                    self.clock.advance(delay)
                self.total_backoff_s += delay
                self.retries += 1
                attempt += 1


class CircuitBreaker:
    """Closed -> open -> half-open circuit breaker on a simulated clock.

    - **closed**: calls pass; ``failure_threshold`` *consecutive*
      failures trip it open.
    - **open**: calls raise :class:`CircuitOpen` without running until
      ``reset_timeout_s`` (30 s) of simulated time has passed, then one
      probe is let through (half-open).
    - **half-open**: exactly **one** trial call is admitted; further
      calls are rejected while the probe is in flight.  Its success
      closes the breaker; its failure re-opens it (and restarts the
      cool-down).

    The breaker does not retry; pair it with a :class:`Retrier` whose
    ``retry_on`` excludes :class:`CircuitOpen` to fail fast while open.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    reset_timeout_s = 30.0

    def __init__(self, failure_threshold: int = 5,
                 clock: SimClock | None = None) -> None:
        if failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.clock = clock if clock is not None else SimClock()
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._half_open_inflight = False
        self._opened_at = 0.0
        self.trips = 0
        self.rejected = 0

    def _maybe_half_open(self) -> None:
        if (self.state == self.OPEN
                and self.clock.now - self._opened_at >= self.reset_timeout_s):
            self.state = self.HALF_OPEN
            self._half_open_inflight = False

    def allow(self) -> bool:
        """Would a call be admitted right now?  (Advances open->half-open.)

        While half-open, exactly one trial call is admitted: the first
        ``allow`` claims the probe slot and later calls are refused until
        ``record_success``/``record_failure`` resolves it.
        """
        self._maybe_half_open()
        if self.state == self.HALF_OPEN:
            if self._half_open_inflight:
                return False
            self._half_open_inflight = True
            return True
        return self.state != self.OPEN

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self.state == self.HALF_OPEN:
            self._half_open_inflight = False
            self.state = self.CLOSED
        # A success while OPEN (caller bypassed allow()) is ignored: the
        # cool-down still applies.

    def record_failure(self) -> None:
        if self.state == self.HALF_OPEN:
            self._trip()
            return
        self._consecutive_failures += 1
        if (self.state == self.CLOSED
                and self._consecutive_failures >= self.failure_threshold):
            self._trip()

    def _trip(self) -> None:
        self.state = self.OPEN
        self.trips += 1
        self._opened_at = self.clock.now
        self._consecutive_failures = 0
        self._half_open_inflight = False

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` through the breaker, recording the outcome."""
        if not self.allow():
            self.rejected += 1
            raise CircuitOpen(
                f"circuit open for another "
                f"{self.reset_timeout_s - (self.clock.now - self._opened_at):.3f}s")
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result
