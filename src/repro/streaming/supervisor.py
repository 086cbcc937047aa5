"""One supervision loop: step -> detect -> recover -> adopt.

``run_coordinated``, ``ScalingSupervisor`` and ``GeoDeployment`` all
supervise the same thing: a :class:`ParallelExecutor` with transactional
sinks, a :class:`CheckpointCoordinator` snapshotting it while data is in
flight, and a :class:`CheckpointStore` to recover from.
:class:`Supervisor` owns those plus the simulated clock and the shared
fault counters, and is the only place that classifies a failure
(:meth:`Supervisor.attempt`, the *ladder*), bounds failures, picks
regional vs full restore, carries commit listeners and checkpoint
counts across coordinator incarnations and adopts a replacement
executor (docs/ARCHITECTURE.md, "Supervision"); the coordinator's
``savepoint`` is the one loop that drives a cut to finalize.

Rescale, zone handoff and region failover are *actions*: callables run
through :meth:`Supervisor.attempt`, so a fault in any phase of any
action takes the same recovery path as a fault in a plain run step —
the old executor is restored from the last finalized checkpoint and
the caller retries.  New control-plane behaviour is a new action, never
a new loop.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

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

__all__ = ["MAX_FAILURES", "SupervisionReport", "Supervisor",
           "run_coordinated"]

#: Bounds pathological fault plans: a deterministic schedule cannot
#: re-fire a passed fault, so any finite plan terminates well below it.
MAX_FAILURES = 1000


@dataclass
class SupervisionReport:
    """Counters every coordinated supervisor reports."""

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
    #: elements actually replayed across all recoveries
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

    @property
    def failures(self) -> int:
        return (self.crashes + self.coordinator_crashes
                + self.broker_faults + self.data_failures
                + self.dead_detected)

    @property
    def restores(self) -> int:
        return self.regional_restores + self.full_restores


#: failure class (the ``chaos.faults{kind=}`` label) -> report counter
_COUNTER = {"crash": "crashes", "data": "data_failures",
            "coordinator": "coordinator_crashes",
            "broker": "broker_faults", "dead": "dead_detected"}


class Supervisor:
    """Owns executor + coordinator + store + clock + fault counters.

    ``report`` is the caller's :class:`SupervisionReport` (subclass);
    ``span`` (a duck-typed tracer span) gets one event per fault and
    ``metrics`` a ``chaos.faults`` counter, so a chaos trace shows
    recovery structure.  ``restart_budget`` (a
    :class:`~repro.streaming.errors.RestartBudget`) is consulted before
    every restore: backoff runs on this supervisor's clock and
    "progress" means a checkpoint finalized since the previous failure.
    """

    def __init__(self, executor: ParallelExecutor,
                 report: SupervisionReport, *, source_batch: int,
                 step_cycles: int, interval_cycles: int,
                 heartbeat_timeout_s: float,
                 store: CheckpointStore | None = None,
                 clock: SimClock | None = None, injector: Any = None,
                 metrics: Any = None, span: Any = None,
                 replayable: frozenset | set = frozenset(),
                 restart_budget: Any = None) -> None:
        if source_batch < 1:
            raise JobGraphError(
                f"source_batch must be >= 1, got {source_batch!r}")
        self.executor = executor
        self.report = report
        self.store = store if store is not None else CheckpointStore()
        self.clock = clock if clock is not None else SimClock()
        self.source_batch = source_batch
        self.step_cycles = step_cycles
        self.interval_cycles = interval_cycles
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.injector = injector
        self.metrics = metrics
        self.span = span
        self.replayable = replayable
        self.restart_budget = restart_budget
        if restart_budget is not None:
            restart_budget.bind_clock(self.clock)
        self.coordinator = self._build_coordinator()
        # Checkpoint zero: the initial state is always a valid restore
        # point, so a crash before the first finalize restarts from
        # scratch.
        self._initial = executor.checkpoint()
        self._progress_mark = 0

    def _build_coordinator(self) -> CheckpointCoordinator:
        return CheckpointCoordinator(
            self.executor, store=self.store, clock=self.clock,
            interval_cycles=self.interval_cycles,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            injector=self.injector, metrics=self.metrics)

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
            self._failed("crash", exc)
            self._recover(exc.op_name if regional else None)
        except DataFaultError as exc:
            # An injected data fault escalated through a FAIL or
            # exhausted RETRY policy: the task died on a poisoned
            # record.  Restoring rewinds the data-fault counters, so
            # replay re-poisons the *same* record — a persistent fault
            # loops here until the restart budget's flapping detection
            # (or MAX_FAILURES) makes it terminal.
            self._failed("data", exc)
            self._recover(None)
        except CoordinatorDown as exc:
            # subtask state is intact: the in-progress checkpoint is
            # lost, but no executor restore happens at all
            self._failed("coordinator", exc)
            self._rebuild_coordinator()
        except BrokerDown as exc:
            # The source fetch hit a fault window; restoring resets
            # in-flight state, then the retry re-reads the log.
            self._failed("broker", exc)
            self._recover(None)
        else:
            dead = ([] if self.executor.done
                    else self.coordinator.monitor.dead())
            if not dead:
                return result
            # fail-silent subtask: the heartbeat detector is the only
            # witness, and it is treated as a crash of that subtask
            self._failed("dead", OperatorCrash(
                f"fail-silent subtask {dead[0]!r}", op_name=dead[0]))
            self._recover(dead[0] if regional else None)
        return None

    def _failed(self, kind: str, exc: Exception) -> None:
        """Count one failure, then consume one restart attempt: raises
        ChaosError past MAX_FAILURES, RestartsExhausted when the budget
        is spent or the job is flapping."""
        counter = _COUNTER[kind]
        setattr(self.report, counter, getattr(self.report, counter) + 1)
        if self.span is not None:
            self.span.add_event("fault", kind=kind)
        if self.metrics is not None:
            self.metrics.counter("chaos.faults", kind=kind).inc()
        # the one give-up rule of every entry point; the module global
        # is read here, per failure, so rebinding it takes effect
        if self.report.failures > MAX_FAILURES:
            raise ChaosError(
                f"gave up after {self.report.failures} failures; the "
                "fault plan appears to re-fire indefinitely")
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
                self._failed("broker", exc)

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
                candidate = failover_region_of(executor.graph, op_name,
                                               self.replayable)
            except CheckpointError:
                candidate = None
            total_nodes = (len(executor.graph.nodes)
                           + len(executor.graph.source_parallelism)
                           + len(executor.job.sinks))
            # Regional restore needs the region to contain its own
            # sources (its input replays from them) and to be a strict
            # subset — a region spanning the whole plan is just a full
            # restore with extra bookkeeping.
            if (candidate is not None and len(candidate) < total_nodes
                    and candidate
                    & set(executor.graph.source_parallelism)):
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

    # -- action primitives ---------------------------------------------------

    def _adopt(self, replacement: ParallelExecutor,
               checkpoint: ParallelCheckpoint | None) -> int:
        """Restore ``checkpoint`` into ``replacement`` (None = cold
        start) and swap it in under a fresh coordinator incarnation.
        Until the swap the old executor is untouched, so a crash
        mid-adopt recovers it.  Returns the elements the restore
        will re-read."""
        replayed = 0
        if checkpoint is not None:
            replayed = self._restore(lambda: replacement.restore(checkpoint))
        self.executor = replacement
        self._next_coordinator()
        return replayed

    # -- completion ----------------------------------------------------------

    def finish(self) -> Any:
        """Fold the live coordinator's counts, the store's quarantine
        count, the fault trace and the committed sink output into the
        report (call once, at end of run)."""
        report = self.report
        report.checkpoints += self.coordinator.finalized
        report.aborted += self.coordinator.aborted
        report.integrity_failures = self.store.integrity_failures
        if self.injector is not None:
            report.trace = list(self.injector.trace)
        report.sink_values = {name: list(sink.values)
                              for name, sink in self.executor.sinks.items()}
        return report


def run_coordinated(job: JobGraph, injector: Any = None,
                    *, parallelism: int | dict[str, int] = 1,
                    batch_mode: bool = True,
                    source_batch: int = 64, step_cycles: int = 1,
                    interval_cycles: int = 4,
                    unaligned_after: int | None = None,
                    heartbeat_timeout_s: float = 5.0,
                    replayable: frozenset | set = frozenset(),
                    store: Any = None,
                    tracer: Any = None, metrics: Any = None,
                    on_coordinator: Any = None,
                    restart_budget: Any = None) -> SupervisionReport:
    """Run ``job`` for real: the one production wiring of executor,
    2PC sinks, coordinator and store.

    The job runs under a :class:`Supervisor`, whose
    :class:`~repro.streaming.coordinator.CheckpointCoordinator`
    snapshots *while data is in flight* via barrier alignment, commits
    sink output through 2PC, and recovers regionally — the failure
    classes and what each restores are the supervisor's ladder.
    ``injector`` (duck-typed, see :mod:`repro.chaos`; ``None`` in
    production) threads faults through every layer.

    ``on_coordinator`` (if given) is called with the coordinator after
    construction — the place to register commit listeners such as
    :class:`~repro.streaming.txn_sink.TransactionalLogSink`.  Listeners
    survive coordinator rebuilds.

    ``restart_budget`` bounds recovery (backoff runs on the
    supervisor's simulated clock; "progress" means a newly finalized
    checkpoint).
    """
    executor = ParallelExecutor(job, parallelism, batch_mode=batch_mode,
                                injector=injector, tracer=tracer,
                                metrics=metrics,
                                transactional_sinks=True,
                                unaligned_after=unaligned_after)
    supervised = (tracer.start_span(f"coordinated:{job.name}")
                  if tracer is not None else None)
    report = SupervisionReport(sink_values={})
    supervisor = Supervisor(
        executor, report, store=store, source_batch=source_batch,
        step_cycles=step_cycles, interval_cycles=interval_cycles,
        heartbeat_timeout_s=heartbeat_timeout_s, injector=injector,
        metrics=metrics, span=supervised, replayable=replayable,
        restart_budget=restart_budget)
    if on_coordinator is not None:
        on_coordinator(supervisor.coordinator)
    with (tracer.activate(supervised) if supervised is not None
          else nullcontext()):
        while not supervisor.advance():
            pass
    if supervised is not None:
        for attr in ("crashes", "coordinator_crashes", "regional_restores",
                     "full_restores", "replayed_total"):
            supervised.set_attr(attr, getattr(report, attr))
        supervised.end()
    return supervisor.finish()
