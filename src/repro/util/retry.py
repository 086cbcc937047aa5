"""Retry with capped exponential backoff, deadlines and circuit breaking.

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


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded jitter and a deadline.

    Delay before retry *n* (1-based) is::

        min(max_delay_s, base_delay_s * multiplier ** (n - 1))
        * (1 + jitter * u),   u ~ Uniform(-1, 1) from the seeded stream

    ``max_attempts`` counts *calls*, so ``max_attempts=1`` never
    retries.  ``deadline_s`` bounds the total backoff slept; a retry
    whose delay would cross it raises :class:`RetryExhausted` instead of
    sleeping past the budget.

    ``retryable`` filters *which* caught exceptions are worth retrying:
    when set, an exception that is not an instance of one of these
    classes re-raises immediately instead of burning the backoff
    budget.  Non-transient failures — a malformed record raising
    :class:`~repro.util.errors.DataFaultError`, a config error — look
    identical to transient ones to an indiscriminate retry loop, but no
    amount of backoff fixes them.  ``None`` (the default) keeps the
    historical behaviour: everything ``retry_on`` catches is retried.
    """

    max_attempts: int = 8
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 5.0
    jitter: float = 0.1
    deadline_s: float | None = None
    seed: int = 0
    retryable: tuple[type[BaseException], ...] | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigError("multiplier must be >= 1 (backoff never shrinks)")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError("jitter must be in [0, 1)")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ConfigError("deadline_s must be non-negative")
        if self.retryable is not None:
            object.__setattr__(self, "retryable", tuple(self.retryable))
            if not all(isinstance(c, type) and
                       issubclass(c, BaseException)
                       for c in self.retryable):
                raise ConfigError(
                    "retryable must be exception classes")

    def delays(self) -> list[float]:
        """The jittered delays, one per retry."""
        rng = make_rng(self.seed)
        return [self.delay(i + 1, rng) for i in range(self.max_attempts - 1)]

    def delay(self, retry_index: int, rng: np.random.Generator) -> float:
        """The delay before retry ``retry_index`` (1-based), its jitter
        drawn from ``rng``."""
        raw = min(self.max_delay_s,
                  self.base_delay_s * self.multiplier ** (retry_index - 1))
        if self.jitter:
            raw *= 1.0 + self.jitter * (rng.random() * 2.0 - 1.0)
        return raw


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
        self._rng = make_rng(self.policy.seed)
        self.attempts = 0
        self.retries = 0
        self.total_backoff_s = 0.0

    def call(self, fn: Callable[[], Any],
             retry_on: tuple[type[BaseException], ...] | Iterable[
                 type[BaseException]] = (Exception,)) -> Any:
        """Call ``fn`` until it succeeds or the policy gives up.

        A caught exception that the policy's ``retryable`` filter does
        not match re-raises immediately (no backoff, no
        :class:`RetryExhausted` wrapper).
        """
        retry_on = tuple(retry_on)
        policy = self.policy
        transient = policy.retryable
        slept = 0.0
        attempt = 1
        while True:
            self.attempts += 1
            try:
                return fn()
            except retry_on as exc:
                if transient is not None \
                        and not isinstance(exc, transient):
                    raise
                if attempt >= policy.max_attempts:
                    raise RetryExhausted(
                        f"gave up after {attempt} attempts: {exc}",
                        last_error=exc) from exc
                delay = policy.delay(attempt, self._rng)
                if (policy.deadline_s is not None
                        and slept + delay > policy.deadline_s):
                    raise RetryExhausted(
                        f"deadline {policy.deadline_s}s would be exceeded "
                        f"after {attempt} attempts: {exc}",
                        last_error=exc) from exc
                if self.clock is not None:
                    self.clock.advance(delay)
                slept += delay
                self.total_backoff_s += delay
                self.retries += 1
                attempt += 1


class CircuitBreaker:
    """Closed -> open -> half-open circuit breaker on a simulated clock.

    - **closed**: calls pass; ``failure_threshold`` *consecutive*
      failures trip it open.
    - **open**: calls raise :class:`CircuitOpen` without running until
      ``reset_timeout_s`` of simulated time has passed, then one probe
      is let through (half-open).
    - **half-open**: exactly **one** trial call is admitted at a time;
      further calls are rejected while the probe is in flight.
      ``half_open_successes`` consecutive successes close it; any
      failure re-opens it (and restarts the cool-down).

    The breaker does not retry; pair it with a :class:`Retrier` whose
    ``retry_on`` excludes :class:`CircuitOpen` to fail fast while open.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout_s: float = 30.0,
                 half_open_successes: int = 1,
                 clock: SimClock | None = None) -> None:
        if failure_threshold < 1 or half_open_successes < 1:
            raise ConfigError("thresholds must be >= 1")
        if reset_timeout_s < 0:
            raise ConfigError("reset_timeout_s must be non-negative")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.half_open_successes = half_open_successes
        self.clock = clock if clock is not None else SimClock()
        self.state = self.CLOSED
        self._consecutive_failures = 0
        self._half_open_streak = 0
        self._half_open_inflight = False
        self._opened_at = 0.0
        self.trips = 0
        self.rejected = 0

    def _maybe_half_open(self) -> None:
        if (self.state == self.OPEN
                and self.clock.now - self._opened_at >= self.reset_timeout_s):
            self.state = self.HALF_OPEN
            self._half_open_streak = 0
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
            self._half_open_streak += 1
            if self._half_open_streak >= self.half_open_successes:
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
        self._half_open_streak = 0
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
