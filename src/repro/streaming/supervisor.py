"""One supervisor: run -> detect -> recover, and one reshape.

A :class:`Supervisor` owns a running plan — ``job``, ``parallelism``,
``placement`` — and what runs it: the one place a supervised
:class:`ParallelExecutor` is built, its :class:`CheckpointCoordinator`
and :class:`CheckpointStore`, the simulated clock and the fault
counters.  It alone classifies a failure (:meth:`Supervisor.attempt`,
the *ladder*), bounds failures, picks regional vs full restore and
carries listeners and counts across coordinator incarnations
(docs/ARCHITECTURE.md, "Supervision").

:meth:`Supervisor.reshape` is the one action that changes a running
plan: a rescale (new widths), a zone handoff (new placement) and a
region failover (new job from a given checkpoint) run the same four
phases through the ladder, so a fault in any phase restores the *old*
executor and the caller retries.  *When* to reshape is decided by
:class:`Controller` s — the autoscaler, the geo deployment — that the
one :meth:`Supervisor.run` loop consults around every slice; they
compose.  A new policy is a new controller, never a loop or a subclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from ..util.clock import SimClock
from ..util.errors import (
    BrokerDown,
    ChaosError,
    CheckpointError,
    CoordinatorDown,
    DataFaultError,
    JobGraphError,
    OperatorCrash,
)
from .barrier import ParallelCheckpoint
from .coordinator import (
    CheckpointCoordinator,
    CheckpointStore,
    failover_region_of,
)
from .errors import DLQ_SINK
from .execution import ParallelExecutor
from .graph import JobGraph
from .operators import subtask_name
from .plan import ExecutionGraph

__all__ = ["MAX_FAILURES", "Controller", "SupervisionReport", "Supervisor",
           "run_coordinated"]

#: Bounds pathological fault plans and permanent outages: a
#: deterministic schedule cannot re-fire a passed fault, so any finite
#: plan terminates well below it.
MAX_FAILURES = 1000

#: ``reshape``'s default target: a savepoint of the running job
_SAVEPOINT = object()


@dataclass
class SupervisionReport:
    """Everything a supervised run counts, its controllers' included."""

    sink_values: dict[str, list[Any]]
    crashes: int = 0
    coordinator_crashes: int = 0
    broker_faults: int = 0
    #: escalated data faults (FAIL/RETRY policy exhausted) the
    #: supervisor restarted from — the flapping-detection feedstock
    data_failures: int = 0
    dead_detected: int = 0
    checkpoints: int = 0
    aborted: int = 0
    regional_restores: int = 0
    full_restores: int = 0
    #: elements actually replayed across all recoveries and reshapes
    replayed_total: int = 0
    #: of which, by regional restores only
    replayed_regional: int = 0
    #: what whole-job restarts would have replayed at the same recovery
    #: points (the counterfactual the MTTR gate compares against)
    replayed_full_equiv: int = 0
    #: checkpoints the store quarantined for failing integrity checks
    integrity_failures: int = 0
    #: the injector's fired-fault trace (empty without an injector)
    trace: list = field(default_factory=list)
    #: slices :meth:`Supervisor.run` drove
    steps: int = 0
    shed_total: int = 0
    # -- the autoscaler's (repro.streaming.autoscale) --
    #: completed rescales (``RescaleEvent``)
    rescales: list = field(default_factory=list)
    rescale_attempts: int = 0
    #: rescale attempts a failure interrupted (each one was retried)
    rescale_crashes: int = 0
    #: (eval_index, {node: width}) after every completed rescale
    parallelism_trace: list[tuple[int, dict[str, int]]] = \
        field(default_factory=list)
    #: per committed result: sim-time commit latency vs event time
    latencies: list[float] = field(default_factory=list)
    slo_s: float | None = None
    # -- the geo deployment's (repro.geo) --
    mirror_pumped: int = 0
    #: completed zone handoffs (``HandoffReport``)
    handoffs: list = field(default_factory=list)
    #: the region failover (``FailoverReport``), if one happened
    failover: Any = None

    @property
    def failures(self) -> int:
        return (self.crashes + self.coordinator_crashes
                + self.broker_faults + self.data_failures
                + self.dead_detected)

    @property
    def restores(self) -> int:
        return self.regional_restores + self.full_restores

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


#: failure class (the ``chaos.faults{kind=}`` label) -> report counter
_COUNTER = {"crash": "crashes", "data": "data_failures",
            "coordinator": "coordinator_crashes",
            "broker": "broker_faults", "dead": "dead_detected"}


class Controller:
    """A control policy :meth:`Supervisor.run` consults; every hook is
    a no-op here."""

    supervisor: "Supervisor"

    def bind(self, supervisor: "Supervisor") -> None:
        """Once, before the first plan compiles: a controller may set
        the supervisor's widths, placement or clock here."""
        self.supervisor = supervisor

    def start(self) -> None:
        """Once the first executor exists, before checkpoint zero."""

    def before_slice(self) -> None:
        """Before every slice."""

    def after_slice(self, done: bool | None) -> None:
        """After every slice; ``done`` is :meth:`Supervisor.advance`'s."""

    def on_reshape(self) -> None:
        """After every completed reshape, whichever controller asked."""


class Supervisor:
    """Owns plan + executor + coordinator + store + clock + counters.

    ``controllers`` decide when the plan changes; the report is a
    :class:`SupervisionReport`.  ``metrics`` gets a ``chaos.faults``
    counter, so a chaos run shows recovery structure.  ``restart_budget`` (a
    :class:`~repro.streaming.errors.RestartBudget`) is consulted before
    every restore: backoff runs on this supervisor's clock and
    "progress" means a checkpoint finalized since the previous failure.
    """

    def __init__(self, job: JobGraph, *,
                 controllers: Iterable[Controller] = (),
                 parallelism: int | dict[str, int] = 1,
                 placement: Any = None, batch_mode: bool = True,
                 source_batch: int = 32, step_cycles: int = 2,
                 interval_cycles: int = 4,
                 store: CheckpointStore | None = None, injector: Any = None,
                 metrics: Any = None,
                 restart_budget: Any = None) -> None:
        if source_batch < 1:
            raise JobGraphError(
                f"source_batch must be >= 1, got {source_batch!r}")
        if step_cycles < 1:
            raise JobGraphError(
                f"step_cycles must be >= 1, got {step_cycles!r}")
        self.job = job
        self.parallelism = parallelism
        self.placement = placement
        self.batch_mode = batch_mode
        self.source_batch = source_batch
        self.step_cycles = step_cycles
        self.interval_cycles = interval_cycles
        self.store = store if store is not None else CheckpointStore()
        self.clock = SimClock()
        self.injector = injector
        self.metrics = metrics
        self.restart_budget = restart_budget
        self.report = SupervisionReport(sink_values={})
        self.controllers = list(controllers)
        for controller in self.controllers:
            controller.bind(self)
        if restart_budget is not None:
            restart_budget.bind_clock(self.clock)
        self.executor = self._build_executor(self.job, self.parallelism,
                                             self.placement)
        self.coordinator = self._build_coordinator()
        for controller in self.controllers:
            controller.start()
        # Checkpoint zero: the initial state is always a valid restore
        # point, so a crash before the first finalize restarts from
        # scratch.
        self._initial = self.executor.checkpoint()
        self._progress_mark = 0

    def _build_executor(self, job: JobGraph,
                        parallelism: int | dict[str, int],
                        placement: Any) -> ParallelExecutor:
        return ParallelExecutor(
            job, parallelism, batch_mode=self.batch_mode, injector=self.injector,
            metrics=self.metrics, placement=placement)

    def _build_coordinator(self) -> CheckpointCoordinator:
        return CheckpointCoordinator(
            self.executor, store=self.store, clock=self.clock,
            interval_cycles=self.interval_cycles,
            injector=self.injector, metrics=self.metrics)

    # -- the loop ------------------------------------------------------------

    def run(self) -> SupervisionReport:
        """Supervise to completion: every controller is consulted before
        and after each slice."""
        done: bool | None = False
        while not done:
            self.report.steps += 1
            for controller in self.controllers:
                controller.before_slice()
            done = self.advance()
            for controller in self.controllers:
                controller.after_slice(done)
        return self.finish()

    # -- the ladder ----------------------------------------------------------

    def advance(self) -> bool | None:
        """One ``step_cycles`` slice of the job.  True once the job has
        drained and its tail is committed, False while it runs, None
        when the slice failed and was recovered."""
        return self.attempt(self._run_slice, regional=True)

    def _run_slice(self) -> bool:
        self.executor.run(source_batch=self.source_batch,
                          max_cycles=self.step_cycles)
        if self.executor.done:
            self.coordinator.savepoint()
        return self.executor.done

    def attempt(self, action: Callable[[], Any], *,
                regional: bool = False) -> Any:
        """Run ``action`` inside the failure ladder.

        Returns the action's result (actions return non-None), or None
        when a failure was caught, counted and recovered — the caller
        retries.  ``regional`` allows a failover-region restore; only
        the plain run slice passes it, because an action in flight
        (half-drained savepoint, half-restored replacement) has no
        region-local consistent state to keep.
        """
        try:
            result = action()
        except OperatorCrash as exc:
            self.record_failure("crash", exc)
            self._recover(exc.op_name if regional else None)
        except DataFaultError as exc:
            # An injected data fault escalated through a FAIL or
            # exhausted RETRY policy: the task died on a poisoned
            # record.  Restoring rewinds the data-fault counters, so
            # replay re-poisons the *same* record — a persistent fault
            # loops here until the restart budget's flapping detection
            # (or MAX_FAILURES) makes it terminal.
            self.record_failure("data", exc)
            self._recover(None)
        except CoordinatorDown as exc:
            # subtask state is intact: the in-progress checkpoint is
            # lost, but no executor restore happens at all
            self.record_failure("coordinator", exc)
            self._rebuild_coordinator()
        except BrokerDown as exc:
            # The source fetch hit a fault window; restoring resets
            # in-flight state, then the retry re-reads the log.
            self.record_failure("broker", exc)
            self._recover(None)
        else:
            dead = ([] if self.executor.done
                    else self.coordinator.monitor.dead())
            if not dead:
                return result
            # fail-silent subtask: the heartbeat detector is the only
            # witness, and it is treated as a crash of that subtask
            self.record_failure("dead", OperatorCrash(
                f"fail-silent subtask {dead[0]!r}", op_name=dead[0]))
            self._recover(dead[0] if regional else None)
        return None

    def record_failure(self, kind: str, exc: Exception) -> None:
        """Count one failure of class ``kind``, then consume one restart
        attempt: raises ChaosError past MAX_FAILURES, RestartsExhausted
        when the budget is spent or the job is flapping."""
        counter = _COUNTER[kind]
        setattr(self.report, counter, getattr(self.report, counter) + 1)
        if self.metrics is not None:
            self.metrics.counter("chaos.faults", kind=kind).inc()
        # the one give-up rule of every entry point; the module global
        # is read here, per failure, so rebinding it takes effect
        if self.report.failures > MAX_FAILURES:
            raise ChaosError(
                f"gave up after {self.report.failures} failures; the "
                f"last was {type(exc).__name__}: {exc}") from exc
        if self.restart_budget is not None:
            finalized = self.report.checkpoints + self.coordinator.finalized
            made = finalized > self._progress_mark
            self._progress_mark = finalized
            self.restart_budget.on_failure(exc, made_progress=made)

    # -- recovery ------------------------------------------------------------

    def _full_equiv(self, checkpoint: ParallelCheckpoint) -> int:
        """What a whole-job restart to ``checkpoint`` would replay."""
        total = 0
        for source, splits in \
                self.executor.sources.positions().items():
            recorded = checkpoint.source_positions.get(source, {})
            for split, pos in splits.items():
                total += max(0, pos - recorded.get(split, 0))
        return total

    def _restore(self, restore: Callable[[], Any]) -> Any:
        # A log-backed source restore re-reads the log, so the restore
        # itself can land in an unavailability window; the counters
        # only move forward, so retrying walks out of any finite one.
        while True:
            try:
                return restore()
            except BrokerDown as exc:
                self.record_failure("broker", exc)

    def _recover(self, op_name: str | None) -> None:
        """Restore the executor from the last finalized checkpoint (or
        checkpoint zero): only ``op_name``'s failover region when the
        plan decomposes, else the whole job.

        When the plan carries data faults, or the job dead-letters into
        the transactional DLQ, recovery always restores the *whole*
        job: a regional restore cannot rewind data-fault counters
        outside the region, and the DLQ's committed projection spans
        every dead-letter feeder — partial rewinds would break the
        exactly-once accounting between sink, DLQ and fault windows.
        """
        executor, report = self.executor, self.report
        checkpoint = self.store.latest()
        target = checkpoint if checkpoint is not None else self._initial
        full_equiv = self._full_equiv(target)
        force_full = (DLQ_SINK in executor.sinks
                      or getattr(self.injector, "has_data_faults", False))
        region = None
        if checkpoint is not None and op_name is not None \
                and not force_full:
            try:
                candidate = failover_region_of(executor.graph, op_name)
            except CheckpointError:
                candidate = None
            total_nodes = (len(executor.graph.nodes)
                           + len(executor.graph.source_parallelism)
                           + len(executor.job.sinks))
            # A region is a connected component, so it holds the sources
            # its input replays from; one spanning the whole plan is
            # just a full restore with extra bookkeeping.
            if candidate is not None and len(candidate) < total_nodes:
                region = candidate
        replayed = self._restore(lambda: executor.restore(target, region))
        if region is not None:
            report.regional_restores += 1
            report.replayed_regional += replayed
        else:
            report.full_restores += 1
        report.replayed_total += replayed
        report.replayed_full_equiv += full_equiv
        if self.metrics is not None:
            self.metrics.summary(
                "recovery.replayed_elements").observe(replayed)
            self.metrics.summary("recovery.replay_saved").observe(
                full_equiv - replayed)

    def _next_coordinator(self) -> None:
        # Counters accumulate across incarnations: the replacement
        # coordinator starts at zero, but the checkpoints the old one
        # finalized (and the pending one it abandoned) still happened.
        # Listeners and the store carry over, so commit hooks keep
        # firing and checkpoint ids stay monotonic.
        self.report.checkpoints += self.coordinator.finalized
        self.report.aborted += self.coordinator.aborted
        listeners = list(self.coordinator.listeners)
        self.coordinator = self._build_coordinator()
        self.coordinator.listeners.extend(listeners)

    def _rebuild_coordinator(self) -> None:
        """Coordinator loss: abandon the in-progress checkpoint (2PC
        abort) and start a fresh incarnation over the same executor."""
        self.coordinator.abandon_pending()
        self._next_coordinator()

    # -- the one plan change -------------------------------------------------

    def reshape(self, *, widths: int | dict[str, int] | None = None,
                placement: Any = None, job: JobGraph | None = None,
                target: Any = _SAVEPOINT
                ) -> tuple[ParallelCheckpoint | None, int] | None:
        """Replace the running plan with new ``widths``, ``placement``
        or ``job`` (each defaults to the current one), restored from a
        savepoint of the running job — or from ``target``: a given
        checkpoint, or ``None`` for a cold start.

        Runs decide / savepoint / recompile / restore (each a
        ``before_rescale`` chaos site) through the ladder; returns
        ``(checkpoint restored, elements replayed)``, or None when a
        failure interrupted it and the *old* executor was recovered.
        """
        return self.attempt(
            lambda: self._reshape(widths, placement, job, target))

    def _phase(self, phase: str) -> None:
        if self.injector is not None:
            self.injector.before_rescale(phase)

    def _reshape(self, widths: Any, placement: Any, job: Any,
                 target: Any) -> tuple[ParallelCheckpoint | None, int]:
        self._phase("decide")
        self._phase("savepoint")
        if target is _SAVEPOINT:
            target = self.coordinator.savepoint()
        self._phase("recompile")
        job = job if job is not None else self.job
        widths = widths if widths is not None else self.parallelism
        placement = placement if placement is not None else self.placement
        replacement = self._build_executor(job, widths, placement)
        self._phase("restore")
        # Until the swap the old executor is untouched, so a crash
        # mid-restore recovers it.
        if target is not None:
            replayed = self._restore(lambda: replacement.restore(target))
        else:  # cold start: every element the new sources hold
            replayed = sum(len(replacement.sources.timestamps(name))
                           for name in job.sources)
        old = self.executor.graph
        self.executor = replacement
        self.job, self.parallelism, self.placement = job, widths, placement
        self._next_coordinator()
        self._retire_removed_subtasks(old, replacement.graph)
        self.report.replayed_total += replayed
        for controller in self.controllers:
            controller.on_reshape()
        return target, replayed

    def _retire_removed_subtasks(self, old: ExecutionGraph,
                                 new: ExecutionGraph) -> None:
        """One MetricsRegistry spans every executor, so per-subtask
        gauges of clones a narrowing reshape removed (e.g.
        ``subtask.processed{op=window_sum[3]}`` after 4→2) would linger
        at their last value in every later snapshot and skew skew/
        utilization reads.  Retire exactly the removed indices; widened
        operators re-instantiate lazily on the next publish."""
        if self.metrics is None:
            return
        per_subtask = ("subtask.processed", "op.batch_size",
                       "checkpoint.alignment_cycles")
        for name, node in old.rename.items():
            width = old.width(node)
            now = new.width(new.rename[name]) if name in new.rename else width
            for idx in range(now, width):
                for family in per_subtask:
                    self.metrics.retire(family, op=subtask_name(name, idx))

    # -- completion ----------------------------------------------------------

    def finish(self) -> SupervisionReport:
        """Fold the live coordinator's counts, the store's quarantine
        count, the shed counter, the fault trace and the committed
        sink output into the report (call once, at end of run)."""
        report, executor = self.report, self.executor
        report.checkpoints += self.coordinator.finalized
        report.aborted += self.coordinator.aborted
        report.integrity_failures = self.store.integrity_failures
        report.shed_total = executor.shed_elements
        if self.injector is not None:
            report.trace = list(self.injector.trace)
        report.sink_values = {name: list(sink.values)
                              for name, sink in executor.sinks.items()}
        return report


def run_coordinated(job: JobGraph, injector: Any = None, *,
                    source_batch: int = 64,
                    on_coordinator: Any = None,
                    **supervision: Any) -> SupervisionReport:
    """Run ``job`` for real under a controller-less :class:`Supervisor`
    with finer slices; ``supervision`` passes through.

    ``injector`` (duck-typed, see :mod:`repro.chaos`; ``None`` in
    production) threads faults through every layer.  ``on_coordinator``
    gets the coordinator after construction — the place to register
    commit listeners (e.g. a
    :class:`~repro.streaming.txn_sink.TransactionalLogSink`), which
    survive coordinator rebuilds.
    """
    supervisor = Supervisor(job, injector=injector,
                            source_batch=source_batch,
                            step_cycles=1,
                            **supervision)
    if on_coordinator is not None:
        on_coordinator(supervisor.coordinator)
    return supervisor.run()
