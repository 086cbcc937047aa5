"""Resilient offload execution: retries, circuit breaking, degradation.

The planner prices plans; the :class:`OffloadRunner` is what actually
*runs* the fastest of them against an unreliable edge — remote attempts
can time out or lose their tier mid-task.  The runner retries a
timed-out tier (bounded), drops a tier that vanished, trips a per-tier
circuit breaker so repeated failures stop being attempted at all, and
when every remote option is exhausted degrades to all-local execution
rather than failing the frame — the AR session continues at reduced
rate, which is the paper's stated requirement for interactive
workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..util.clock import SimClock
from ..util.errors import TaskTimeout, TierDropout
from ..util.retry import CircuitBreaker
from .executor import OffloadPlanner, PlanOutcome
from .tasks import Pipeline

__all__ = ["OffloadAttempt", "OffloadResult", "OffloadRunner"]


@dataclass(frozen=True)
class OffloadAttempt:
    """One execution attempt of a placed plan."""

    tier: str
    cut: int
    ok: bool
    error: str | None = None
    latency_s: float = 0.0


@dataclass
class OffloadResult:
    """How one frame ultimately executed."""

    outcome: PlanOutcome
    attempts: list[OffloadAttempt] = field(default_factory=list)
    degraded: bool = False
    timeouts: int = 0
    dropouts: int = 0

    @property
    def tier(self) -> str:
        return self.outcome.tier_node


class OffloadRunner:
    """Runs each frame on its fastest plan, with fault handling.

    A tier that times out is retried ``max_attempts_per_tier`` times in
    a frame before the frame excludes it.  Each tier has a
    :class:`CircuitBreaker` that opens after ``failure_threshold``
    consecutive failures; an open breaker excludes the tier up front, so
    a flapping edge server stops eating attempts.
    """

    max_attempts_per_tier = 2
    failure_threshold = 3

    def __init__(self, planner: OffloadPlanner, injector=None,
                 clock: SimClock | None = None,
                 tracer=None, metrics=None) -> None:
        self.planner = planner
        self.injector = injector
        # Duck-typed observability hooks, same convention as the
        # streaming executor: None keeps every path hook-free.
        self.tracer = tracer
        self.metrics = metrics
        self.clock = clock if clock is not None else SimClock()
        self._breakers: dict[str, CircuitBreaker] = {}
        self.frames = 0
        self.degraded_frames = 0

    def breaker(self, tier: str) -> CircuitBreaker:
        if tier not in self._breakers:
            self._breakers[tier] = CircuitBreaker(
                failure_threshold=self.failure_threshold, clock=self.clock)
        return self._breakers[tier]

    def _available_tiers(self, excluded: set[str]) -> list[str]:
        device = self.planner.device.name
        return [n.name for n in self.planner.topology.nodes()
                if n.name != device and n.up and n.name not in excluded
                and self.breaker(n.name).allow()]

    def _fastest(self, pipeline: Pipeline, tiers: list[str]) -> PlanOutcome:
        """The fastest plan on ``tiers`` or the device (the least energy
        among equally fast ones): :class:`GreedyLatency`'s choice."""
        return min(self.planner.plan(pipeline, tiers),
                   key=lambda o: (o.latency_s, o.energy_j))

    def _local(self, pipeline: Pipeline) -> PlanOutcome:
        return self.planner.price(pipeline, max(pipeline.valid_cuts()),
                                  self.planner.device.name)

    def _start_attempt(self, attempt: OffloadAttempt):
        if self.tracer is None:
            return None
        attrs = {"tier": attempt.tier, "cut": attempt.cut, "ok": attempt.ok}
        if attempt.error is not None:
            attrs["error"] = attempt.error
        return self.tracer.start_span("offload:attempt", attrs=attrs)

    def _end_attempt(self, span, attempt: OffloadAttempt) -> None:
        """Close the attempt span (started before the clock advance, so
        its duration is the modelled attempt latency) and record it."""
        if span is not None:
            span.end()
        if self.metrics is not None:
            self.metrics.summary("offload.attempt_latency_s",
                                 tier=attempt.tier).observe(
                                     attempt.latency_s)

    def execute(self, pipeline: Pipeline) -> OffloadResult:
        """Run one frame to completion, degrading to local if needed."""
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span(
                "offload:frame", attrs={"pipeline": pipeline.name})
        try:
            if span is not None:
                with self.tracer.activate(span):
                    result = self._execute(pipeline)
            else:
                result = self._execute(pipeline)
        except Exception as exc:
            if span is not None:
                span.set_attr("error", type(exc).__name__)
                span.end()
            raise
        if span is not None:
            span.set_attr("tier", result.tier)
            span.set_attr("degraded", result.degraded)
            span.end()
        if self.metrics is not None:
            m = self.metrics
            m.counter("offload.frames").inc()
            m.counter("offload.timeouts").inc(result.timeouts)
            m.counter("offload.dropouts").inc(result.dropouts)
            if result.degraded:
                m.counter("offload.degraded").inc()
            m.summary("offload.frame_latency_s").observe(
                sum(a.latency_s for a in result.attempts))
        return result

    def _execute(self, pipeline: Pipeline) -> OffloadResult:
        self.frames += 1
        result = OffloadResult(outcome=self._local(pipeline))
        excluded: set[str] = set()
        tier_attempts: dict[str, int] = {}
        while True:
            tiers = self._available_tiers(excluded)
            outcome = (self._fastest(pipeline, tiers) if tiers
                       else self._local(pipeline))
            if outcome.is_local:
                # Local after failed remote attempts is degraded service:
                # the frame completes, slower than the policy wanted.
                if result.timeouts or result.dropouts:
                    result.degraded = True
                    self.degraded_frames += 1
                result.outcome = outcome
                attempt = OffloadAttempt(
                    tier=outcome.tier_node, cut=outcome.cut, ok=True,
                    latency_s=outcome.latency_s)
                result.attempts.append(attempt)
                span = self._start_attempt(attempt)
                self.clock.advance(outcome.latency_s)
                self._end_attempt(span, attempt)
                return result
            tier = outcome.tier_node
            tier_attempts[tier] = tier_attempts.get(tier, 0) + 1
            try:
                if self.injector is not None:
                    self.injector.before_offload(pipeline.name, tier)
            except TaskTimeout as exc:
                result.timeouts += 1
                attempt = OffloadAttempt(
                    tier=tier, cut=outcome.cut, ok=False, error=str(exc),
                    latency_s=outcome.latency_s)
                result.attempts.append(attempt)
                self.breaker(tier).record_failure()
                span = self._start_attempt(attempt)
                # The caller ate the full timeout budget waiting.
                self.clock.advance(outcome.latency_s)
                self._end_attempt(span, attempt)
                if tier_attempts[tier] >= self.max_attempts_per_tier:
                    excluded.add(tier)
                continue
            except TierDropout as exc:
                result.dropouts += 1
                attempt = OffloadAttempt(
                    tier=tier, cut=outcome.cut, ok=False, error=str(exc),
                    latency_s=outcome.latency_s / 2.0)
                result.attempts.append(attempt)
                self.breaker(tier).record_failure()
                span = self._start_attempt(attempt)
                # The connection died partway through the task.
                self.clock.advance(outcome.latency_s / 2.0)
                self._end_attempt(span, attempt)
                excluded.add(tier)
                continue
            self.breaker(tier).record_success()
            result.outcome = outcome
            attempt = OffloadAttempt(
                tier=tier, cut=outcome.cut, ok=True,
                latency_s=outcome.latency_s)
            result.attempts.append(attempt)
            span = self._start_attempt(attempt)
            self.clock.advance(outcome.latency_s)
            self._end_attempt(span, attempt)
            return result
