"""Geo-distributed deployment supervisor.

One :class:`GeoDeployment` owns a parallel streaming job placed across
regions, the cross-region log mirror feeding a standby cluster, and a
:class:`~repro.geo.controller.RegionController` watching region health
on the simnet topology.  Failure detection and recovery are the shared
:class:`~repro.streaming.supervisor.Supervisor` ladder; this module adds
two geo-level *actions* on top of it:

**Session handoff** (:meth:`GeoDeployment.handoff`) — a user crossed a
zone boundary, so their operators should follow: stop-with-savepoint
(the supervisor's rescale primitive), recompile the *same* job under a
placement with the moved nodes re-pinned, restore.  Keyed state
migrates through the ordinary key-group snapshot path; committed sink
output is carried in the checkpoint, so the move is exactly-once.

**Region failover** (:meth:`GeoDeployment.failover`) — the primary
region is gone (loss or partition).  The deployment fences the mirror
epoch so a zombie primary can no longer mirror, picks the newest
finalized checkpoint whose source positions the replica actually
covers, rebuilds the job against the standby cluster with every node
pinned to the surviving region, and restores.  Because mirrored
sequence numbers *are* replica offsets (strict prefix), the primary's
checkpoint positions are valid replica positions — failover replays
only the post-checkpoint suffix, and the report proves it by also
computing what a cold restart would have replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..eventlog.broker import LogCluster
from ..eventlog.mirror import ReplicatedTopic
from ..streaming.barrier import ParallelCheckpoint
from ..streaming.coordinator import CheckpointStore
from ..streaming.execution import ParallelExecutor
from ..streaming.placement import RegionPlacement
from ..streaming.supervisor import SupervisionReport, Supervisor
from ..util.clock import SimClock
from ..util.errors import (
    BrokerDown,
    ChaosError,
    CheckpointError,
    LogError,
    NetworkError,
)
from ..util.metrics import MetricsRegistry
from .controller import RegionController

__all__ = ["GeoDeployment", "GeoReport", "FailoverReport", "HandoffReport"]


@dataclass
class HandoffReport:
    """One session handoff: which nodes moved where, and what it cost."""

    savepoint_id: int
    nodes: tuple[str, ...]
    to_region: str
    replayed: int
    attempts: int = 1


@dataclass
class FailoverReport:
    """One region failover, with the replay-volume proof.

    ``replayed`` is what the standby actually re-read past the restored
    checkpoint; ``full_restart_equiv`` is what a from-scratch replay of
    the replica would have read.  ``mttr_s`` runs from the last healthy
    observation of the lost region to service resumption on the
    standby.
    """

    lost_region: str
    to_region: str
    checkpoint_id: int | None
    replayed: int
    full_restart_equiv: int
    mttr_s: float
    mirror_lag: dict[int, int] | None


@dataclass
class GeoReport(SupervisionReport):
    """Outcome of a supervised geo run."""

    steps: int = 0
    mirror_pumped: int = 0
    handoffs: list[HandoffReport] = field(default_factory=list)
    failover: FailoverReport | None = None


class GeoDeployment(Supervisor):
    """Supervise a region-placed job with mirror, handoff, failover.

    ``build_job`` is called with a :class:`LogCluster` and must return
    the job graph bound to that cluster's copy of ``topic`` — the same
    logical job compiles against primary and standby because the
    replica is a strict prefix of the source.
    """

    def __init__(self, build_job: Callable[[LogCluster], Any], *,
                 primary_cluster: LogCluster,
                 standby_cluster: LogCluster,
                 topic: str,
                 primary_region: str = "edge-a",
                 standby_region: str = "core",
                 placement: RegionPlacement | None = None,
                 parallelism: int | dict[str, int] = 2,
                 source_batch: int = 32,
                 step_cycles: int = 2,
                 interval_cycles: int = 4,
                 heartbeat_timeout_s: float = 60.0,
                 region_timeout_s: float = 5.0,
                 step_wall_s: float = 1.0,
                 injector: Any = None,
                 topology: Any = None,
                 simulator: Any = None,
                 observer: str | None = None,
                 mirror_producer_id: int = 9_000) -> None:
        self.build_job = build_job
        self.primary_cluster = primary_cluster
        self.standby_cluster = standby_cluster
        self.topic = topic
        self.primary_region = primary_region
        self.standby_region = standby_region
        self.placement = (placement if placement is not None
                          else RegionPlacement(
                              regions={},
                              default_region=primary_region))
        self.parallelism = parallelism
        self.step_wall_s = step_wall_s
        self.injector = injector
        self.topology = topology
        self.simulator = simulator

        clock = simulator.clock if simulator is not None else SimClock()
        self.mirror = ReplicatedTopic(primary_cluster, standby_cluster,
                                      topic,
                                      producer_id=mirror_producer_id)
        self.controller = RegionController(
            clock, timeout_s=region_timeout_s, observer=observer)
        self.controller.register(primary_region)
        self.controller.register(standby_region)

        self.job = build_job(primary_cluster)
        self.active_region = primary_region
        self.failed_over = False
        super().__init__(
            self._build_executor(self.job, self.placement),
            GeoReport(sink_values={}), store=CheckpointStore(keep=4),
            clock=clock, source_batch=source_batch,
            step_cycles=step_cycles, interval_cycles=interval_cycles,
            heartbeat_timeout_s=heartbeat_timeout_s, injector=injector,
            metrics=MetricsRegistry())

    # -- construction -------------------------------------------------------

    def _build_executor(self, job: Any,
                        placement: RegionPlacement) -> ParallelExecutor:
        return ParallelExecutor(job, self.parallelism,
                                batch_mode=True,
                                injector=self.injector,
                                transactional_sinks=True,
                                placement=placement)

    # -- session handoff -----------------------------------------------------

    def handoff(self, nodes: Any, to_region: str) -> HandoffReport:
        """Move ``nodes`` (logical operator/source/sink names) to
        ``to_region`` with exactly-once semantics.  Retries from the
        last finalized checkpoint if chaos kills the move mid-flight."""
        names = tuple(nodes)
        attempts = 1
        while (report := self.attempt(
                lambda: self._do_handoff(names, to_region, attempts))) is None:
            attempts += 1
        self.report.handoffs.append(report)
        return report

    def _do_handoff(self, names: tuple[str, ...], to_region: str,
                    attempts: int) -> HandoffReport:
        savepoint = self.coordinator.savepoint()
        placement = self.placement
        for name in names:
            placement = placement.moved(name, to_region)
        replayed = self._adopt(self._build_executor(self.job, placement),
                               savepoint)
        self.placement = placement
        return HandoffReport(savepoint_id=savepoint.checkpoint_id,
                             nodes=names, to_region=to_region,
                             replayed=replayed, attempts=attempts)

    # -- region failover -----------------------------------------------------

    def _covered_checkpoint(self) -> ParallelCheckpoint | None:
        """Newest finalized checkpoint whose every source position the
        replica covers.  Positions per split are record counts; splits
        map one-to-one onto partitions (the parallel_log_source
        default), and mirrored sequence numbers are replica offsets, so
        coverage is a plain per-partition comparison."""
        ends = {p: self.standby_cluster.end_offset(self.topic, p)
                for p in range(
                    self.standby_cluster.partition_count(self.topic))}
        for cid in sorted(self.store.retained_ids(), reverse=True):
            snapshot = self.store.snapshot(cid)
            if snapshot is None:
                continue
            covered = all(
                pos <= ends.get(split, 0)
                for splits in snapshot.source_positions.values()
                for split, pos in splits.items())
            if covered:
                return snapshot
        return None

    def failover(self) -> FailoverReport:
        """Fail the whole deployment over to the standby region."""
        if self.failed_over:
            raise CheckpointError("already failed over once")
        lost = self.active_region
        outage_start = self.controller.last_seen.get(lost, self.clock.now)
        try:
            lag = self.mirror.lag()
        except (BrokerDown, LogError, NetworkError):
            lag = None  # primary broker unreachable — lag unknowable
        self.mirror.fence()
        while (report := self.attempt(
                lambda: self._do_failover(lost, outage_start, lag))) is None:
            pass
        self.report.failover = report
        return report

    def _do_failover(self, lost: str, outage_start: float,
                     lag: dict[int, int] | None) -> FailoverReport:
        target = self._covered_checkpoint()
        job = self.build_job(self.standby_cluster)
        placement = self.placement.moved_all(
            self.standby_region,
            list(job.sources) + list(job.operators) + list(job.sinks))
        full_equiv = sum(
            self.standby_cluster.end_offset(self.topic, p)
            for p in range(
                self.standby_cluster.partition_count(self.topic)))
        replayed = self._adopt(self._build_executor(job, placement), target)
        if target is None:
            replayed = full_equiv  # cold start: replay everything
        self.job = job
        self.placement = placement
        self.active_region = self.standby_region
        self.failed_over = True
        self.report.replayed_total += replayed
        return FailoverReport(
            lost_region=lost, to_region=self.standby_region,
            checkpoint_id=(target.checkpoint_id
                           if target is not None else None),
            replayed=replayed, full_restart_equiv=full_equiv,
            mttr_s=max(0.0, self.clock.now - outage_start),
            mirror_lag=lag)

    # -- the supervision loop ------------------------------------------------

    def _pump_mirror(self) -> None:
        if self.failed_over:
            return  # fenced; the replica is now the source of truth
        try:
            self.report.mirror_pumped += self.mirror.pump()
        except (BrokerDown, LogError, NetworkError) as exc:
            self._failed("broker", exc)

    def _observe_regions(self) -> None:
        if self.topology is not None:
            self.controller.observe(self.topology)
        else:
            # no topology wired: regions are assumed healthy unless
            # failover is triggered explicitly
            for region in self.controller.regions:
                self.controller.beat(region)

    def step(self) -> bool:
        """One supervision step.  Returns True while the job runs."""
        self.report.steps += 1
        if self.simulator is not None:
            # the simulator owns the clock: fire due topology events
            # (region loss, heal) and land exactly on the step boundary
            self.simulator.run(until=self.clock.now + self.step_wall_s)
        else:
            self.clock.advance(self.step_wall_s)
        self._observe_regions()
        if (not self.failed_over
                and self.active_region in self.controller.lost()):
            self.failover()
        if self.advance():
            return False
        self._pump_mirror()
        return True

    def run(self, *, max_steps: int = 10_000,
            on_step: Callable[["GeoDeployment", int], None] | None = None,
            ) -> GeoReport:
        """Supervise to completion.  ``on_step(deployment, step)`` runs
        after each step — the hook tests and demos use to inject
        handoffs or region failures at deterministic points."""
        for index in range(max_steps):
            alive = self.step()
            if on_step is not None:
                on_step(self, index)
            if not alive:
                break
        else:
            raise ChaosError(
                f"job did not finish within {max_steps} steps")
        return self.finish()
