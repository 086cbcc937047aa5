"""Retry policy, retrier and circuit breaker."""

import pytest

from repro.util.clock import SimClock
from repro.util.errors import CircuitOpen, ConfigError, RetryExhausted
from repro.util.retry import (
    MAX_ATTEMPTS,
    CircuitBreaker,
    Retrier,
    RetryPolicy,
)
from repro.util.rng import make_rng


class Flaky:
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, failures, exc=RuntimeError):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"failure {self.calls}")
        return "ok"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(max_delay_s=-1.0)

    @pytest.mark.parametrize("field", ["base_delay_s", "max_delay_s"])
    def test_nan_delay_is_refused(self, field):
        with pytest.raises(ConfigError):
            RetryPolicy(**{field: float("nan")})

    def test_delays_grow_exponentially_up_to_cap(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=5.0)
        rng = make_rng(0)
        delays = [policy.delay(i, rng) for i in range(1, 5)]
        for delay, raw in zip(delays, [1.0, 2.0, 4.0, 5.0]):
            assert raw * 0.9 <= delay <= raw * 1.1

    def test_jitter_is_seeded_and_deterministic(self):
        policy = RetryPolicy()

        def delays(seed):
            rng = make_rng(seed)
            return [policy.delay(i, rng) for i in range(1, 7)]

        assert delays(42) == delays(42)
        assert delays(42) != delays(43)

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay_s=1.0, max_delay_s=1.0)
        rng = make_rng(5)
        for i in range(1, 51):
            assert 0.9 <= policy.delay(i, rng) <= 1.1


def _retrier(policy, clock=None):
    """A retrier under ``policy`` in place of the default one (which a
    retrier's callers use), with the same seed-0 jitter stream."""
    retrier = Retrier(clock=clock)
    retrier.policy = policy
    return retrier


class TestRetrier:
    def test_succeeds_after_transient_failures(self):
        fn = Flaky(3)
        retrier = Retrier()
        assert retrier.call(fn) == "ok"
        assert fn.calls == 4
        assert retrier.retries == 3

    def test_exhausts_attempts(self):
        fn = Flaky(100)
        retrier = Retrier()
        with pytest.raises(RetryExhausted) as info:
            retrier.call(fn)
        assert fn.calls == MAX_ATTEMPTS == 8
        assert isinstance(info.value.last_error, RuntimeError)

    def test_non_matching_exception_propagates_immediately(self):
        fn = Flaky(2, exc=ValueError)
        retrier = Retrier()
        with pytest.raises(ValueError):
            retrier.call(fn, retry_on=(KeyError,))
        assert fn.calls == 1

    def test_backoff_advances_sim_clock(self):
        clock = SimClock()
        policy = RetryPolicy(base_delay_s=0.5)
        retrier = _retrier(policy, clock=clock)
        retrier.call(Flaky(3))
        rng = make_rng(0)
        assert clock.now == sum(policy.delay(i, rng) for i in (1, 2, 3))
        assert clock.now == pytest.approx(0.5 + 1.0 + 2.0, rel=0.1)


class TestCircuitBreaker:
    def _tripped(self, clock, threshold=3):
        breaker = CircuitBreaker(failure_threshold=threshold, clock=clock)
        for _ in range(threshold):
            breaker.record_failure()
        return breaker

    def test_trips_after_consecutive_failures(self):
        clock = SimClock()
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_open_rejects_until_cooldown(self):
        clock = SimClock()
        breaker = self._tripped(clock)
        assert not breaker.allow()
        with pytest.raises(CircuitOpen):
            breaker.call(lambda: "never runs")
        assert breaker.rejected == 1
        clock.advance(30.0)
        assert breaker.allow()
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_success_closes(self):
        clock = SimClock()
        breaker = self._tripped(clock)
        clock.advance(30.0)
        assert breaker.call(lambda: "probe") == "probe"
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens_and_restarts_cooldown(self):
        clock = SimClock()
        breaker = self._tripped(clock)
        clock.advance(30.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
        clock.advance(29.9)
        assert not breaker.allow()
        clock.advance(0.1)
        assert breaker.allow()

    def test_half_open_admits_exactly_one_probe(self):
        clock = SimClock()
        breaker = self._tripped(clock)
        clock.advance(30.0)
        assert breaker.allow()  # the probe slot
        # while the probe is in flight, every other caller is refused
        assert not breaker.allow()
        assert not breaker.allow()
        with pytest.raises(CircuitOpen):
            breaker.call(lambda: "should not run")
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_probe_failure_reopens_and_frees_the_slot(self):
        clock = SimClock()
        breaker = self._tripped(clock)
        clock.advance(30.0)
        assert breaker.allow()
        assert not breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        # after the new cool-down, the slot is claimable again
        clock.advance(30.0)
        assert breaker.allow()
        assert not breaker.allow()

    def test_validation(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(failure_threshold=0)
