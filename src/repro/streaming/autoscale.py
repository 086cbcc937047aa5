"""Elastic autoscaling control plane: policies and the autoscaler.

The paper's timeliness claim (Sec 4.1) is that an AR backend must keep
overlay updates fresh under bursty, city-scale load — flash crowds and
diurnal mobility.  Two layers, separately tested:

1. **Policies** — pure decision functions (``decide(signals,
   evals_since_change) -> ScalingDecision``) with hysteresis bands,
   cooldown windows, and min/max parallelism clamps.  Table-tested in
   isolation; no executor needed.
2. **Autoscaler** — a :class:`~repro.streaming.supervisor.Controller`
   that derives utilization and backlog-trend signals from registry
   *counter deltas on SimClock* (never wall-clock), asks the policy for
   per-operator targets and rescales through
   :meth:`~repro.streaming.supervisor.Supervisor.reshape`: a crash in
   any phase recovers the *old* executor and the targets stay pending,
   so a rescale never loses or duplicates committed output.

Nothing is shed: past the maximum parallelism a job runs late, and the
SLO compliance in the report says how late.  Every signal is a
deterministic count on the coordinator's SimClock (one second per macro
cycle), so an autoscaled run — rescales included — is
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..util.errors import ConfigError
from ..util.metrics import MetricsRegistry
from . import shuffle
from .graph import JobGraph
from .plan import _parallelism_of
from .supervisor import Controller, Supervisor

__all__ = [
    "OperatorSignals",
    "ScalingDecision",
    "ScalingPolicy",
    "UtilizationTargetPolicy",
    "SchedulePolicy",
    "Autoscaler",
    "RescaleEvent",
]


# -- signals and decisions ---------------------------------------------------


@dataclass(frozen=True)
class OperatorSignals:
    """One operator's view of the world at one evaluation point.

    utilization      per-subtask processing rate over rated capacity
                     (1.0 = every subtask saturated); from ``op.processed``
                     gauge deltas, so it is exact and deterministic
    backlog          elements arrived (by sim-time) but not yet pulled,
                     attributed to every operator of the job (they all
                     feel the same ingest pressure)
    watermark_lag_s  event-time lag between source frontier and the
                     job's sinks (freshness of results)
    eval_index       ordinal of this evaluation (SchedulePolicy keys
                     planned rescales on it)
    """

    operator: str
    parallelism: int
    utilization: float
    backlog: float = 0.0
    watermark_lag_s: float = 0.0
    eval_index: int = 0


@dataclass(frozen=True)
class ScalingDecision:
    """A policy's verdict for one operator at one evaluation."""

    operator: str
    current: int
    target: int
    reason: str

    @property
    def is_change(self) -> bool:
        return self.target != self.current


# -- policies ----------------------------------------------------------------


class ScalingPolicy:
    """Base contract: a *pure* per-operator decision function.

    ``decide(signals, evals_since_change)`` maps one operator's signals
    to a target parallelism.  ``evals_since_change`` is how many
    evaluations have passed since this operator's width last changed;
    policies hold while it is below ``cooldown`` so a rescale's replay
    transient cannot trigger a second rescale (flapping).  Policies hold
    no mutable state — the :class:`Autoscaler` owns the bookkeeping —
    which is what makes them table-testable.
    """

    min_parallelism = 1

    def clamp(self, parallelism: int) -> int:
        return max(self.min_parallelism,
                   min(self.max_parallelism, int(parallelism)))

    def hold(self, signals: OperatorSignals, reason: str) -> ScalingDecision:
        return ScalingDecision(signals.operator, signals.parallelism,
                               signals.parallelism, reason)

    def decide(self, signals: OperatorSignals,
               evals_since_change: int) -> ScalingDecision:
        raise NotImplementedError


@dataclass(frozen=True)
class UtilizationTargetPolicy(ScalingPolicy):
    """Scale so per-subtask utilization lands near ``target``.

    The hysteresis band ``[low, high]`` brackets the target: utilization
    inside the band is a no-op, above ``high`` scales up to
    ``ceil(p * u / target)``, below ``low`` scales down toward the same
    formula (never below ``p - 1`` per step is *not* enforced — the
    formula may halve in one step; the cooldown window is what prevents
    oscillation).  All decisions clamp to ``[min_parallelism,
    max_parallelism]``.
    """

    target = 0.65
    high = 0.85
    low = 0.35
    cooldown = 2

    max_parallelism: int = 8

    def __post_init__(self) -> None:
        # ``not a >= b`` also refuses NaN, which every clamp would pass
        if not self.max_parallelism >= self.min_parallelism:
            raise ConfigError("max_parallelism must be >= min_parallelism, "
                              f"got {self.max_parallelism!r}")

    def decide(self, signals: OperatorSignals,
               evals_since_change: int) -> ScalingDecision:
        if evals_since_change < self.cooldown:
            return self.hold(signals, "cooldown")
        p = signals.parallelism
        u = signals.utilization
        if u > self.high:
            want = self.clamp(math.ceil(p * u / self.target))
            if want > p:
                return ScalingDecision(
                    signals.operator, p, want,
                    f"utilization {u:.2f} above high band {self.high}")
            return self.hold(signals, "at-max")
        if u < self.low:
            want = self.clamp(min(p - 1,
                                  math.ceil(p * max(u, 1e-9) / self.target)))
            if want < p:
                return ScalingDecision(
                    signals.operator, p, want,
                    f"utilization {u:.2f} below low band {self.low}")
            return self.hold(signals, "at-min")
        return self.hold(signals, "in-band")


@dataclass(frozen=True)
class SchedulePolicy(ScalingPolicy):
    """Planned rescales at fixed evaluation indices.

    ``schedule`` maps ``eval_index -> {operator: target}``.  Signals are
    ignored; this is the deterministic policy the chaos sweeps use so a
    rescale happens at a known point regardless of load.  An empty
    schedule is the fixed-parallelism baseline.
    """

    max_parallelism = 1024
    cooldown = 0

    schedule: dict[int, dict[str, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for step, targets in self.schedule.items():
            for op, width in targets.items():
                if width < 1:
                    raise ConfigError(
                        f"scheduled width {width} for {op!r} at eval "
                        f"{step} must be >= 1")

    def decide(self, signals: OperatorSignals,
               evals_since_change: int) -> ScalingDecision:
        want = self.schedule.get(signals.eval_index, {}).get(
            signals.operator)
        if want is None or want == signals.parallelism:
            return self.hold(signals, "no-op")
        return ScalingDecision(signals.operator, signals.parallelism,
                               self.clamp(want),
                               f"scheduled at eval {signals.eval_index}")


# -- the autoscaler ----------------------------------------------------------


@dataclass
class RescaleEvent:
    """One completed live rescale."""

    eval_index: int
    savepoint_id: int
    old: dict[str, int]
    new: dict[str, int]
    #: source elements re-read because the savepoint cut preceded the
    #: old executor's read positions (the rescale's replay cost)
    replayed: int
    #: phase-crash retries this rescale needed before completing
    attempts: int = 1


class Autoscaler(Controller):
    """Turns registry gauges into per-operator targets and, as a
    controller, rescales.

    Utilization is the per-subtask ``op.processed`` delta per cycle over
    ``rated_capacity`` (the supervisor's source batch); backlog
    comes from a sorted arrival-timestamp array against the SimClock.
    All state the policy contract externalizes lives here: previous
    readings, evaluations-since-change and the decision log.  Targets
    a failed rescale left pending are sticky, so "the rescale completes
    under chaos" is a liveness property.
    """

    def __init__(self, policy: Any, *, slo_s: float | None = None) -> None:
        self.policy = policy
        #: set from the supervisor's source batch at the first ``bind``
        self.rated_capacity: float | None = None
        self.slo_s = slo_s
        self.decisions: list[ScalingDecision] = []
        self._prev_processed: dict[str, float] = {}
        self._evals_since_change: dict[str, int] = {}
        self._eval_index = 0
        self._pending_targets: dict[str, int] | None = None
        self._attempts = 0
        self._committed_seen: dict[str, int] = {}
        #: per-source sorted arrival timestamps (built lazily; the
        #: deterministic arrival model behind the backlog signal)
        self._arrivals: dict[str, np.ndarray] = {}

    @staticmethod
    def _read(registry: MetricsRegistry, name: str, **labels: Any) -> float:
        value = registry.gauge(name, **labels).value
        return 0.0 if math.isnan(value) else float(value)

    def collect(self, registry: MetricsRegistry,
                parallelism: dict[str, int], operators: list[str],
                cycles: float, backlog: float,
                watermark_lag_s: float) -> dict[str, OperatorSignals]:
        """Build one evaluation's signals from the registry.

        ``cycles`` is how many macro cycles elapsed since the previous
        evaluation (the denominator of the processing rate);
        ``backlog`` is the job-wide ingest backlog of the arrival model.
        """
        signals: dict[str, OperatorSignals] = {}
        for op in operators:
            processed = self._read(registry, "op.processed", op=op)
            prev = self._prev_processed.get(op, processed)
            # A restore rewinds the processed gauge below the previous
            # reading; clamp the delta at zero (replay is not new work).
            delta = max(0.0, processed - prev)
            self._prev_processed[op] = processed
            p = max(1, parallelism.get(op, 1))
            rate = delta / max(1.0, cycles)
            utilization = rate / (p * self.rated_capacity)
            signals[op] = OperatorSignals(
                operator=op, parallelism=p, utilization=utilization,
                backlog=backlog, watermark_lag_s=watermark_lag_s,
                eval_index=self._eval_index)
        return signals

    def evaluate(self, signals: dict[str, OperatorSignals]
                 ) -> dict[str, int]:
        """One evaluation: run the policy per operator, return the
        changed targets (empty dict = no rescale wanted)."""
        cooldown = int(getattr(self.policy, "cooldown", 0))
        targets: dict[str, int] = {}
        for op in sorted(signals):
            sig = signals[op]
            since = self._evals_since_change.get(op, cooldown)
            decision = self.policy.decide(sig, since)
            self.decisions.append(decision)
            if decision.is_change:
                targets[op] = decision.target
                self._evals_since_change[op] = 0
            else:
                self._evals_since_change[op] = since + 1
        self._eval_index += 1
        return targets

    # -- the controller hooks ------------------------------------------------

    def bind(self, supervisor: Supervisor) -> None:
        """Rate capacity at the source batch, make sure there is a
        registry to watch, and start from valid scaling units."""
        super().bind(supervisor)
        if self.rated_capacity is None:
            self.rated_capacity = float(supervisor.source_batch)
        if supervisor.metrics is None:
            supervisor.metrics = MetricsRegistry()
        supervisor.report.slo_s = self.slo_s
        supervisor.parallelism = self._normalize(supervisor.parallelism)

    def after_slice(self, done: bool | None) -> None:
        if done is None:
            return  # recovered: re-run before observing anything
        self._observe_latencies()
        if done:
            return
        if self._pending_targets is not None:
            targets = dict(self._pending_targets)
        else:
            sup = self.supervisor
            backlog = self._backlog()
            targets = self.evaluate(self.collect(
                sup.metrics, sup.parallelism, list(sup.job.operators),
                cycles=float(sup.step_cycles), backlog=backlog,
                watermark_lag_s=self._watermark_lag()))
        if targets:
            self._try_rescale(targets)

    def on_reshape(self) -> None:
        # committed visibility was rewound to the restored checkpoint's
        # projected output; re-sync the latency cursor so nothing
        # double-counts
        for name, sink in self.supervisor.executor.sinks.items():
            self._committed_seen[name] = min(
                self._committed_seen.get(name, 0), len(sink))

    # -- scaling units -------------------------------------------------------

    def _normalize(self, parallelism: int | dict[str, int]
                   ) -> dict[str, int]:
        """One explicit width per node (operators and sources)."""
        job = self.supervisor.job
        return self._clamp_widths({
            name: _parallelism_of(parallelism, name)
            for name in [*job.operators, *job.sources]})

    def _clamp_widths(self, widths: dict[str, int]) -> dict[str, int]:
        """Quantize per-operator targets to valid *scaling units*.

        Keyed operators (shuffle boundaries) rescale independently,
        clamped to the key-group count.  Sources follow the widest
        requested operator, bounded by their split count — ingest
        capacity is what rescaling exists to change.  Non-keyed
        operators (the chainable head) follow the source width: a
        narrower head would merge source output in coarse chunks, and a
        watermark generator behind that merge can see event time leap
        past the allowed lateness and drop records a uniform plan keeps.
        Equal widths keep head and source chained (1:1, no merge).
        """
        job: JobGraph = self.supervisor.job
        out = dict(widths)
        width = max((out[name] for name in job.operators), default=1)
        for name, spec in job.sources.items():
            splits = spec.splits if spec.splits is not None else 1
            out[name] = max(1, min(width, splits))
        source_width = max((out[name] for name in job.sources), default=1)
        for name, op in job.operators.items():
            if op.requires_shuffle:
                out[name] = min(out[name], shuffle.KEY_GROUPS)
            else:
                out[name] = source_width
        return out

    # -- deterministic load model --------------------------------------------

    def _arrival_array(self, name: str) -> np.ndarray:
        arr = self._arrivals.get(name)
        if arr is None:
            ts = self.supervisor.executor.sources.timestamps(name)
            arr = np.sort(np.asarray(ts, dtype=np.float64))
            self._arrivals[name] = arr
        return arr

    def _backlog(self) -> float:
        """Items whose event time has passed on the sim clock but which
        no source subtask has pulled yet.  Element timestamps double as
        arrival times: the clock advances one second per macro cycle,
        so intake capacity is ``source_parallelism * source_batch``
        items per second — precisely the knob rescaling turns."""
        sup = self.supervisor
        now = sup.clock.now
        total = 0.0
        for name in sup.job.sources:
            arr = self._arrival_array(name)
            arrived = float(np.searchsorted(arr, now, side="right"))
            pulled = float(sup.executor.sources.pulled(name))
            backlog = max(0.0, arrived - pulled)
            sup.metrics.gauge("source.backlog", source=name).set(backlog)
            total += backlog
        return total

    def _watermark_lag(self) -> float:
        lag = 0.0
        for name in self.supervisor.job.sinks:
            value = self.supervisor.metrics.gauge("sink.watermark_lag_s",
                                                  sink=name).value
            if not math.isnan(value):
                lag = max(lag, value)
        return lag

    def _observe_latencies(self) -> None:
        """Commit-time latency per newly committed sink element:
        sim-clock now minus the element's event timestamp (clamped at
        zero — results cannot be early, only late)."""
        sup = self.supervisor
        now = sup.clock.now
        for name, sink in sup.executor.sinks.items():
            committed = len(sink)
            seen = self._committed_seen.get(name, 0)
            if committed > seen:
                sup.report.latencies.extend(
                    max(0.0, now - ts)
                    for ts in sink.rows_from(seen).timestamps.tolist())
            # (a restore may also have truncated visibility below seen)
            self._committed_seen[name] = committed

    # -- the rescale ---------------------------------------------------------

    def _try_rescale(self, targets: dict[str, int]) -> None:
        sup = self.supervisor
        old = dict(sup.parallelism)
        new = self._clamp_widths({**old, **targets})
        sup.report.rescale_attempts += 1
        self._attempts += 1
        if new != old:
            reshaped = sup.reshape(widths=new)
            if reshaped is None:
                # a failure interrupted the rescale: the ladder
                # recovered the old executor, and the targets stay
                # pending for the next evaluation
                sup.report.rescale_crashes += 1
                self._pending_targets = dict(targets)
                return
            savepoint, replayed = reshaped
            sup.report.rescales.append(RescaleEvent(
                eval_index=self._eval_index,
                savepoint_id=savepoint.checkpoint_id, old=old, new=new,
                replayed=replayed, attempts=self._attempts))
            sup.report.parallelism_trace.append(
                (self._eval_index, dict(new)))
            sup.metrics.counter("autoscaler.rescales").inc()
            sup.metrics.gauge("autoscaler.width").set(max(new.values()))
        self._pending_targets = None
        self._attempts = 0
