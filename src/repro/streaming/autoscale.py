"""Elastic autoscaling control plane: policies, supervisor, shed tier.

The paper's timeliness claim (Sec 4.1) is that an AR backend must keep
overlay updates fresh under bursty, city-scale load — flash crowds and
diurnal mobility.  This module closes the loop over mechanisms the repo
already has: the metrics registry exposes live per-operator gauges, a
:class:`~repro.streaming.execution.ParallelCheckpoint` restores at any
parallelism, and the :class:`~repro.streaming.coordinator
.CheckpointCoordinator` finalizes consistent snapshots while data is in
flight.

Three layers, separable and separately tested:

1. **Policies** — pure decision functions (``decide(signals,
   evals_since_change) -> ScalingDecision``) with hysteresis bands,
   cooldown windows, and min/max parallelism clamps.  Table-tested in
   isolation; no executor needed.
2. **Autoscaler** — watches per-operator gauges in a
   :class:`~repro.util.metrics.MetricsRegistry` (``op.processed``,
   ``source.backlog``, ``sink.watermark_lag_s``), derives utilization
   and backlog-trend signals from *counter deltas on SimClock* — never
   wall-clock — and asks the policy for per-operator targets.
3. **ScalingSupervisor** — executes a rescale as a four-phase state
   machine, ``decide -> savepoint -> recompile -> restore``:
   stop-with-savepoint through the coordinator (a barrier-aligned
   checkpoint of the *running* job), a fresh physical plan from
   :func:`~repro.streaming.plan.compile_execution_graph` at the new
   widths, and a restore of the finalized checkpoint into it.  Chaos can
   kill the supervisor at any phase (``rescale_crash`` via
   :meth:`~repro.chaos.injector.FaultInjector.before_rescale`); the
   rescale is an *action* on the shared
   :class:`~repro.streaming.supervisor.Supervisor` ladder, which
   restores the *old* executor from the last finalized checkpoint, and
   the rescale retries — a crash mid-rescale never loses or duplicates
   committed output.

When even the maximum parallelism cannot keep up, the supervisor falls
back to the **load-shedding tier** (the render compositor's shedding
generalized to operators): a deterministic content-hash filter at the
source admission boundary (see ``SourceReader.set_shedding``), with
shed counts flowing through the existing drop-accounting path and
rewinding with checkpoints, so exactly-once for committed records holds
under shedding too.

Everything runs on :class:`~repro.util.clock.SimClock` (the coordinator
advances it one second per macro cycle) and every signal is a
deterministic count, so an autoscaled run — rescales included — is
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..util.errors import ConfigError
from ..util.metrics import MetricsRegistry
from .coordinator import CheckpointStore
from .execution import ParallelExecutor
from .graph import JobGraph
from .shuffle import DEFAULT_KEY_GROUPS
from .supervisor import SupervisionReport, Supervisor

__all__ = [
    "OperatorSignals",
    "ScalingDecision",
    "ScalingPolicy",
    "UtilizationTargetPolicy",
    "GradientPolicy",
    "SchedulePolicy",
    "ShedPolicy",
    "Autoscaler",
    "RescaleEvent",
    "AutoscaleReport",
    "ScalingSupervisor",
    "run_autoscaled",
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
    backlog_trend    backlog delta since the previous evaluation
    watermark_lag_s  event-time lag between source frontier and the
                     job's sinks (freshness of results)
    eval_index       ordinal of this evaluation (SchedulePolicy keys
                     planned rescales on it)
    """

    operator: str
    parallelism: int
    utilization: float
    backlog: float = 0.0
    backlog_trend: float = 0.0
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

    min_parallelism: int = 1
    max_parallelism: int = 8
    cooldown: int = 2

    def _validate_bounds(self) -> None:
        if self.min_parallelism < 1:
            raise ConfigError("min_parallelism must be >= 1")
        if self.max_parallelism < self.min_parallelism:
            raise ConfigError("max_parallelism must be >= min_parallelism")
        if self.cooldown < 0:
            raise ConfigError("cooldown must be >= 0")

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

    target: float = 0.65
    high: float = 0.85
    low: float = 0.35
    min_parallelism: int = 1
    max_parallelism: int = 8
    cooldown: int = 2

    def __post_init__(self) -> None:
        self._validate_bounds()
        if not 0.0 < self.low < self.target < self.high:
            raise ConfigError(
                f"need 0 < low < target < high, got low={self.low} "
                f"target={self.target} high={self.high}")

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
class GradientPolicy:
    """Scale on the *sign* of the backlog gradient.

    A growing backlog (trend above ``up_slope`` elements/eval) means the
    job is underprovisioned regardless of utilization — multiply width
    by ``factor``.  A shrinking backlog (trend below ``down_slope``,
    which must be negative) means headroom — divide by ``factor``.
    Trends inside the deadband hold.  Useful when rated capacity is
    unknown: the gradient needs no capacity model, only arrival counts.
    """

    up_slope: float = 1.0
    down_slope: float = -1.0
    factor: float = 2.0
    min_parallelism: int = 1
    max_parallelism: int = 8
    cooldown: int = 2

    # reuse the clamp/hold/validation helpers without dataclass
    # inheritance (frozen dataclass bases with defaults fight field
    # ordering); the contract is duck-typed on `decide`.
    _validate_bounds = ScalingPolicy._validate_bounds
    clamp = ScalingPolicy.clamp
    hold = ScalingPolicy.hold

    def __post_init__(self) -> None:
        self._validate_bounds()
        if self.up_slope <= 0 or self.down_slope >= 0:
            raise ConfigError(
                "need up_slope > 0 and down_slope < 0 (a deadband "
                f"around zero), got {self.up_slope}/{self.down_slope}")
        if self.factor <= 1.0:
            raise ConfigError("factor must be > 1")

    def decide(self, signals: OperatorSignals,
               evals_since_change: int) -> ScalingDecision:
        if evals_since_change < self.cooldown:
            return self.hold(signals, "cooldown")
        p = signals.parallelism
        trend = signals.backlog_trend
        if trend > self.up_slope:
            want = self.clamp(math.ceil(p * self.factor))
            if want > p:
                return ScalingDecision(
                    signals.operator, p, want,
                    f"backlog growing ({trend:+.1f}/eval)")
            return self.hold(signals, "at-max")
        if trend < self.down_slope:
            want = self.clamp(math.floor(p / self.factor))
            if want < p:
                return ScalingDecision(
                    signals.operator, p, want,
                    f"backlog shrinking ({trend:+.1f}/eval)")
            return self.hold(signals, "at-min")
        return self.hold(signals, "steady")


@dataclass(frozen=True)
class SchedulePolicy:
    """Planned rescales at fixed evaluation indices.

    ``schedule`` maps ``eval_index -> {operator: target}``.  Signals are
    ignored; this is the deterministic policy the chaos sweeps use so a
    rescale happens at a known point regardless of load.  An empty
    schedule is the fixed-parallelism baseline.
    """

    schedule: dict[int, dict[str, int]] = field(default_factory=dict)
    min_parallelism: int = 1
    max_parallelism: int = 1024
    cooldown: int = 0

    _validate_bounds = ScalingPolicy._validate_bounds
    clamp = ScalingPolicy.clamp
    hold = ScalingPolicy.hold

    def __post_init__(self) -> None:
        self._validate_bounds()
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


@dataclass(frozen=True)
class ShedPolicy:
    """Latency-SLO load-shedding tier configuration.

    When the projected drain time of a source's backlog (backlog over
    current intake capacity, in sim-seconds) exceeds ``trigger_wait_s``,
    the supervisor activates deterministic shedding on that source with
    ratio ``keep/mod``; it deactivates below ``release_wait_s``
    (hysteresis, so the tier does not flap at the boundary).  The tier
    is the last resort for when rescaling cannot keep up — policies
    should set ``trigger_wait_s`` well above the latency SLO so scaling
    gets the first shot.
    """

    trigger_wait_s: float
    release_wait_s: float
    keep: int = 1
    mod: int = 2

    def __post_init__(self) -> None:
        if self.trigger_wait_s < self.release_wait_s:
            raise ConfigError("trigger_wait_s must be >= release_wait_s")
        if self.mod < 1 or not 0 <= self.keep <= self.mod:
            raise ConfigError(
                f"shed ratio needs 0 <= keep <= mod, got "
                f"{self.keep}/{self.mod}")


# -- the autoscaler (registry watcher) ---------------------------------------


class Autoscaler:
    """Derives :class:`OperatorSignals` from registry gauges and asks
    the policy for per-operator targets.

    Watches the *live* gauges the executor now refreshes every macro
    cycle (``op.processed`` per operator, ``source.backlog`` published
    by the supervisor, ``sink.watermark_lag_s``).  Utilization is the
    per-subtask processed-delta per cycle over ``rated_capacity``
    (elements one subtask is rated to process per cycle — the
    supervisor passes its source batch size).  All state the policy
    contract externalizes lives here: previous counter readings, the
    per-operator evaluations-since-change counters, and the decision
    log.
    """

    def __init__(self, policy: Any, *, rated_capacity: float) -> None:
        if rated_capacity <= 0:
            raise ConfigError("rated_capacity must be > 0")
        self.policy = policy
        self.rated_capacity = float(rated_capacity)
        self.decisions: list[ScalingDecision] = []
        self._prev_processed: dict[str, float] = {}
        self._prev_backlog: dict[str, float] = {}
        self._evals_since_change: dict[str, int] = {}
        self._eval_index = 0

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
        ``backlog`` is the job-wide ingest backlog the supervisor
        computed from its arrival model.
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
            trend = backlog - self._prev_backlog.get(op, backlog)
            self._prev_backlog[op] = backlog
            signals[op] = OperatorSignals(
                operator=op, parallelism=p, utilization=utilization,
                backlog=backlog, backlog_trend=trend,
                watermark_lag_s=watermark_lag_s,
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


# -- the scaling supervisor --------------------------------------------------


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


@dataclass
class AutoscaleReport(SupervisionReport):
    """What happened during an autoscaled run."""

    rescales: list[RescaleEvent] = field(default_factory=list)
    rescale_attempts: int = 0
    #: rescale attempts a failure interrupted (each one was retried)
    rescale_crashes: int = 0
    shed_total: int = 0
    dropped_overflow: int = 0
    #: (eval_index, {node: width}) after every completed rescale
    parallelism_trace: list[tuple[int, dict[str, int]]] = \
        field(default_factory=list)
    #: per committed result: sim-time commit latency vs event time
    latencies: list[float] = field(default_factory=list)
    slo_s: float | None = None

    @property
    def slo_compliance(self) -> float:
        """Fraction of committed results within the latency SLO."""
        if self.slo_s is None or not self.latencies:
            return 1.0
        within = sum(1 for lat in self.latencies if lat <= self.slo_s)
        return within / len(self.latencies)

    def latency_p99(self) -> float:
        if not self.latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies), 99))

    @property
    def max_width(self) -> int:
        widths = [max(p.values()) for _, p in self.parallelism_trace]
        return max(widths) if widths else 0


class ScalingSupervisor(Supervisor):
    """Drives an autoscaled job: run, observe, decide, rescale, shed.

    Failure detection and recovery are the shared
    :class:`~repro.streaming.supervisor.Supervisor` ladder; this class
    adds the load model, shed control and the rescale *action*.

    The rescale state machine (each phase is a chaos crash site):

    - **decide**   — the policy produced changed targets
    - **savepoint**— the supervisor's stop-with-savepoint
    - **recompile**— build a fresh :class:`ParallelExecutor` (a new
      physical plan) at the new widths from the same logical job
    - **restore**  — the supervisor adopts the new plan: restores the
      finalized savepoint into it and hands the coordinator over

    A failure at any phase recovers the *old* executor from the last
    finalized checkpoint and re-attempts the rescale at the next
    evaluation — pending targets are sticky, so "rescale completes
    under chaos" is a liveness property the elasticity gate asserts.
    All load signals are deterministic: arrival counts come from a
    sorted timestamp array against the coordinator's SimClock (one
    second per macro cycle), never from wall time.
    """

    def __init__(self, job: JobGraph, policy: Any, *,
                 parallelism: int | dict[str, int] = 1,
                 injector: Any = None,
                 batch_mode: bool = True,
                 num_key_groups: int = DEFAULT_KEY_GROUPS,
                 source_batch: int = 32, step_cycles: int = 2,
                 interval_cycles: int = 4,
                 heartbeat_timeout_s: float = 60.0,
                 metrics: MetricsRegistry | None = None,
                 slo_s: float | None = None,
                 shed_policy: ShedPolicy | None = None,
                 store: CheckpointStore | None = None) -> None:
        self.job = job
        self.policy = policy
        self.injector = injector
        self.batch_mode = batch_mode
        self.num_key_groups = num_key_groups
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.shed_policy = shed_policy
        self.operators = list(job.operators)
        self.current: dict[str, int] = self._normalize(parallelism)
        super().__init__(
            self._build_executor(self.current),
            AutoscaleReport(sink_values={}, slo_s=slo_s), store=store,
            source_batch=source_batch, step_cycles=step_cycles,
            interval_cycles=interval_cycles,
            heartbeat_timeout_s=heartbeat_timeout_s, injector=injector,
            metrics=self.metrics)
        self.autoscaler = Autoscaler(policy,
                                     rated_capacity=float(source_batch))
        self._pending_targets: dict[str, int] | None = None
        self._rescale_attempts_current = 0
        self._committed_seen: dict[str, int] = {}
        #: per-source sorted arrival timestamps (built lazily; the
        #: deterministic arrival model behind backlog and shed control)
        self._arrivals: dict[str, np.ndarray] = {}

    # -- plan construction ---------------------------------------------------

    def _normalize(self, parallelism: int | dict[str, int]
                   ) -> dict[str, int]:
        """One explicit width per node (operators and sources)."""
        names = self.operators + list(self.job.sources)
        if isinstance(parallelism, int):
            widths = {name: parallelism for name in names}
        else:
            default = parallelism.get("default", 1)
            widths = {name: int(parallelism.get(name, default))
                      for name in names}
        return self._clamp_widths(widths)

    def _clamp_widths(self, widths: dict[str, int]) -> dict[str, int]:
        """Quantize per-operator targets to valid *scaling units*.

        Keyed operators (shuffle boundaries) rescale independently,
        clamped to the key-group count.  Sources follow the widest
        requested operator, bounded by their split count — ingest
        capacity is what rescaling exists to change.  Non-keyed
        operators (the chainable head) always follow the source width:
        a head narrower than its source would merge the source
        subtasks' output in coarse per-subtask chunks, and a watermark
        generator downstream of that merge can see event time leap
        beyond the allowed lateness — dropping records a uniform plan
        keeps.  Keeping head and source equal keeps them chained (1:1
        edges, no merge), which is the engine's tested equivalence
        contract.
        """
        out = dict(widths)
        width = max((out[name] for name in self.operators), default=1)
        for name, spec in self.job.sources.items():
            splits = spec.splits if spec.splits is not None else 1
            out[name] = max(1, min(width, splits))
        source_width = max((out[name] for name in self.job.sources),
                           default=1)
        for name, op in self.job.operators.items():
            if op.requires_shuffle:
                out[name] = min(out[name], self.num_key_groups)
            else:
                out[name] = source_width
        return out

    def _build_executor(self, widths: dict[str, int]) -> ParallelExecutor:
        return ParallelExecutor(
            self.job, dict(widths), num_key_groups=self.num_key_groups,
            batch_mode=self.batch_mode,
            injector=self.injector, metrics=self.metrics,
            transactional_sinks=True)

    # -- deterministic load model --------------------------------------------

    def _arrival_array(self, name: str) -> np.ndarray:
        arr = self._arrivals.get(name)
        if arr is None:
            ts = self.executor.sources.timestamps(name)
            arr = np.sort(np.asarray(ts, dtype=np.float64))
            self._arrivals[name] = arr
        return arr

    def _backlog(self) -> float:
        """Items whose event time has passed on the sim clock but which
        no source subtask has pulled yet.  Element timestamps double as
        arrival times: the clock advances one second per macro cycle,
        so intake capacity is ``source_parallelism * source_batch``
        items per second — precisely the knob rescaling turns."""
        now = self.clock.now
        total = 0.0
        for name in self.job.sources:
            arr = self._arrival_array(name)
            arrived = float(np.searchsorted(arr, now, side="right"))
            pulled = float(self.executor.sources.pulled(name))
            backlog = max(0.0, arrived - pulled)
            self.metrics.gauge("source.backlog", source=name).set(backlog)
            total += backlog
        return total

    def _watermark_lag(self) -> float:
        lag = 0.0
        for name in self.job.sinks:
            value = self.metrics.gauge("sink.watermark_lag_s",
                                       sink=name).value
            if not math.isnan(value):
                lag = max(lag, value)
        return lag

    def _observe_latencies(self) -> None:
        """Commit-time latency per newly committed sink element:
        sim-clock now minus the element's event timestamp (clamped at
        zero — results cannot be early, only late)."""
        now = self.clock.now
        for name, sink in self.executor.sinks.items():
            committed = len(sink)
            seen = self._committed_seen.get(name, 0)
            if committed > seen:
                self.report.latencies.extend(
                    max(0.0, now - ts)
                    for ts in sink.rows_from(seen).timestamps.tolist())
            # (a restore may also have truncated visibility below seen)
            self._committed_seen[name] = committed

    def _shed_control(self) -> None:
        """The latency-SLO shed tier: activate deterministic shedding
        when the projected backlog drain time exceeds the trigger,
        release below the hysteresis floor."""
        policy = self.shed_policy
        if policy is None:
            return
        # the executor's plans are the activation state: they rewind
        # with every restore and carry over into an adopted executor
        active = self.executor.sources.shed_state()["plans"]
        for name in self.job.sources:
            backlog = self.metrics.gauge("source.backlog",
                                         source=name).value
            if math.isnan(backlog):
                continue
            p_src = self.current.get(name, 1)
            capacity = max(1.0, p_src * float(self.source_batch))
            projected_wait = backlog / capacity
            if name not in active \
                    and projected_wait > policy.trigger_wait_s:
                self.executor.sources.set_shedding(name, policy.keep,
                                                   policy.mod)
            elif name in active \
                    and projected_wait < policy.release_wait_s:
                self.executor.sources.clear_shedding(name)

    # -- the rescale state machine -------------------------------------------

    def _phase(self, phase: str) -> None:
        if self.injector is not None:
            self.injector.before_rescale(phase)

    def _rescale(self, old: dict[str, int],
                 new: dict[str, int]) -> RescaleEvent:
        self._phase("decide")
        self._phase("savepoint")
        savepoint = self.coordinator.savepoint()

        self._phase("recompile")
        replacement = self._build_executor(new)

        self._phase("restore")
        replayed = self._adopt(replacement, savepoint)
        self.current = new
        self._retire_subtask_gauges(old, new)
        self.report.replayed_total += replayed
        # committed visibility was rewound to the savepoint's projected
        # output; re-sync the latency cursor so nothing double-counts
        for name, sink in self.executor.sinks.items():
            self._committed_seen[name] = min(
                self._committed_seen.get(name, 0), len(sink))
        return RescaleEvent(
            eval_index=self.autoscaler._eval_index,
            savepoint_id=savepoint.checkpoint_id,
            old=old, new=new, replayed=replayed,
            attempts=self._rescale_attempts_current)

    def _retire_subtask_gauges(self, old: dict[str, int],
                               new: dict[str, int]) -> None:
        """Recompile keeps one MetricsRegistry across executors, so
        per-subtask gauges of clones a narrowing rescale removed (e.g.
        ``subtask.processed{op=window_sum[3]}`` after 4→2) would linger
        at their last value in every later snapshot and skew skew/
        utilization reads.  Retire exactly the removed indices; widened
        operators re-instantiate lazily on the next publish."""
        per_subtask = ("subtask.processed", "op.batch_size",
                       "checkpoint.alignment_cycles", "checkpoint.unaligned")
        for name, old_w in old.items():
            for idx in range(new.get(name, old_w), old_w):
                for family in per_subtask:
                    self.metrics.retire(family, op=f"{name}[{idx}]")

    def _try_rescale(self, targets: dict[str, int]) -> None:
        old = dict(self.current)
        new = self._clamp_widths({**old, **targets})
        self.report.rescale_attempts += 1
        self._rescale_attempts_current += 1
        if new != old:
            event = self.attempt(lambda: self._rescale(old, new))
            if event is None:
                # supervisor, subtask or coordinator died mid-rescale:
                # the ladder recovered the old executor, and the targets
                # stay pending for the next evaluation
                self.report.rescale_crashes += 1
                self._pending_targets = dict(targets)
                return
            self.report.rescales.append(event)
            self.report.parallelism_trace.append(
                (event.eval_index, dict(self.current)))
            self.metrics.counter("autoscaler.rescales").inc()
            self.metrics.gauge("autoscaler.width").set(
                max(self.current.values()))
        self._pending_targets = None
        self._rescale_attempts_current = 0

    # -- the control loop ----------------------------------------------------

    def _evaluate(self) -> dict[str, int]:
        if self._pending_targets is not None:
            return dict(self._pending_targets)
        backlog = self._backlog()
        lag = self._watermark_lag()
        signals = self.autoscaler.collect(
            self.metrics, self.current, self.operators,
            cycles=float(self.step_cycles), backlog=backlog,
            watermark_lag_s=lag)
        return self.autoscaler.evaluate(signals)

    def run(self) -> AutoscaleReport:
        """Run the job to completion under the control loop."""
        self._shed_control_initial()
        while True:
            done = self.advance()
            if done is None:
                continue  # recovered: re-run before observing anything
            self._observe_latencies()
            if done:
                break
            targets = self._evaluate()
            self._shed_control()
            if targets:
                self._try_rescale(targets)
        report = self.finish()
        report.shed_total = self.executor.shed_elements
        report.dropped_overflow = self.executor.dropped_overflow
        return report

    def _shed_control_initial(self) -> None:
        """A trigger threshold of zero means "shed from the start" —
        the deterministic activation the shed equivalence suite needs
        (both the golden and the chaos run shed the same set from
        element zero)."""
        policy = self.shed_policy
        if policy is None or policy.trigger_wait_s > 0:
            return
        for name in self.job.sources:
            self.executor.sources.set_shedding(name, policy.keep,
                                               policy.mod)
        # checkpoint zero must carry the plans so any restore — initial
        # included — re-activates them
        self._initial = self.executor.checkpoint()


def run_autoscaled(job: JobGraph, policy: Any,
                   injector: Any = None, **kwargs: Any) -> AutoscaleReport:
    """Convenience wrapper: build a :class:`ScalingSupervisor` and run.

    ``kwargs`` pass through to the supervisor constructor; the common
    shape is ``run_autoscaled(job, SchedulePolicy({...}), injector,
    parallelism=1, batch_mode=True)``.
    """
    supervisor = ScalingSupervisor(job, policy, injector=injector, **kwargs)
    return supervisor.run()
