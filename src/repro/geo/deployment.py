"""Geo-distributed deployment: a controller for the one supervisor.

A :class:`GeoController` watches region health through a
:class:`~repro.geo.controller.RegionController`, pumps the cross-region
log mirror to a standby cluster, and asks its
:class:`~repro.streaming.supervisor.Supervisor` for two reshapes:

**Session handoff** (:meth:`GeoController.handoff`) — a user crossed a
zone boundary, so their operators follow: the same job, the moved nodes
re-pinned, restored from a savepoint.  Keyed state and committed sink
output travel in the checkpoint, so the move is exactly-once.

**Region failover** (:meth:`GeoController.failover`) — the primary
region is gone (loss or partition).  The mirror epoch is fenced against
a zombie primary, and the job is rebuilt against the standby cluster,
every node in the surviving region, restored from the newest finalized
checkpoint the replica covers.  Mirrored sequence numbers *are* replica
offsets, so failover replays only the post-checkpoint suffix; the
report proves it against what a cold restart would replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..eventlog.broker import LogCluster
from ..eventlog.mirror import ReplicatedTopic
from ..streaming.barrier import ParallelCheckpoint
from ..streaming.coordinator import CheckpointStore
from ..streaming.placement import RegionPlacement
from ..streaming.supervisor import Controller, Supervisor
from ..util.errors import BrokerDown, CheckpointError, LogError, NetworkError
from ..util.metrics import MetricsRegistry
from .controller import RegionController

__all__ = ["GeoController", "GeoDeployment", "FailoverReport",
           "HandoffReport"]


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


class GeoController(Controller):
    """Mirror, region observation, handoff and failover for a
    region-placed job.

    ``build_job`` is called with a :class:`LogCluster` and must return
    the job graph bound to that cluster's copy of ``topic`` — the same
    logical job compiles against primary and standby because the
    replica is a strict prefix of the source.  With a ``simulator`` the
    simulator's clock becomes the supervisor's.
    """

    #: the region the job starts in, and the one it fails over to
    primary_region = "edge-a"
    standby_region = "core"
    #: simulated seconds that pass before each supervision slice
    step_wall_s = 1.0

    def __init__(self, build_job: Callable[[LogCluster], Any], *,
                 primary_cluster: LogCluster,
                 standby_cluster: LogCluster, topic: str,
                 region_timeout_s: float = 5.0,
                 topology: Any = None, simulator: Any = None,
                 observer: str | None = None) -> None:
        self.build_job = build_job
        self.primary_cluster = primary_cluster
        self.standby_cluster = standby_cluster
        self.topic = topic
        self.region_timeout_s = region_timeout_s
        self.topology = topology
        self.simulator = simulator
        self.observer = observer
        self.mirror = ReplicatedTopic(primary_cluster, standby_cluster,
                                      topic)
        self.active_region = self.primary_region
        self.failed_over = False

    def bind(self, supervisor: Supervisor) -> None:
        super().bind(supervisor)
        if self.simulator is not None:
            supervisor.clock = self.simulator.clock
        if supervisor.placement is None:
            supervisor.placement = RegionPlacement(
                regions={}, default_region=self.primary_region)
        self.regions = RegionController(
            supervisor.clock, timeout_s=self.region_timeout_s,
            observer=self.observer)
        self.regions.register(self.primary_region)
        self.regions.register(self.standby_region)

    # -- the supervision hooks -----------------------------------------------

    def before_slice(self) -> None:
        """Let one step of wall time pass, observe the regions, and fail
        over if the active one is lost."""
        if self.simulator is not None:
            # the simulator owns the clock: fire due topology events
            # (region loss, heal) and land exactly on the step boundary
            self.simulator.run(
                until=self.supervisor.clock.now + self.step_wall_s)
        else:
            self.supervisor.clock.advance(self.step_wall_s)
        if self.topology is not None:
            self.regions.observe(self.topology)
        else:
            # no topology wired: regions are assumed healthy unless
            # failover is triggered explicitly
            for region in self.regions.regions:
                self.regions.beat(region)
        if (not self.failed_over
                and self.active_region in self.regions.lost()):
            self.failover()

    def after_slice(self, done: bool | None) -> None:
        if done or self.failed_over:
            return  # fenced after failover: the replica is the source
        try:
            self.supervisor.report.mirror_pumped += self.mirror.pump()
        except (BrokerDown, LogError, NetworkError) as exc:
            self.supervisor.record_failure("broker", exc)

    # -- the two reshapes ----------------------------------------------------

    def handoff(self, nodes: Any, to_region: str) -> HandoffReport:
        """Move ``nodes`` (logical operator/source/sink names) to
        ``to_region`` with exactly-once semantics.  Retries from the
        last finalized checkpoint if chaos kills the move mid-flight."""
        names = tuple(nodes)
        placement = self.supervisor.placement
        for name in names:
            placement = placement.moved(name, to_region)
        attempts = 1
        while (reshaped := self.supervisor.reshape(
                placement=placement)) is None:
            attempts += 1
        savepoint, replayed = reshaped
        report = HandoffReport(savepoint_id=savepoint.checkpoint_id,
                               nodes=names, to_region=to_region,
                               replayed=replayed, attempts=attempts)
        self.supervisor.report.handoffs.append(report)
        return report

    def _covered_checkpoint(self) -> ParallelCheckpoint | None:
        """Newest finalized checkpoint whose every source position the
        replica covers.  Positions per split are record counts; splits
        map one-to-one onto partitions (the parallel_log_source
        default), and mirrored sequence numbers are replica offsets, so
        coverage is a plain per-partition comparison."""
        ends = self._replica_ends()
        store = self.supervisor.store
        for cid in sorted(store.retained_ids(), reverse=True):
            snapshot = store.snapshot(cid)
            if snapshot is not None and all(
                    pos <= ends.get(split, 0)
                    for splits in snapshot.source_positions.values()
                    for split, pos in splits.items()):
                return snapshot
        return None

    def _replica_ends(self) -> dict[int, int]:
        cluster = self.standby_cluster
        return {p: cluster.end_offset(self.topic, p)
                for p in range(cluster.partition_count(self.topic))}

    def failover(self) -> FailoverReport:
        """Fail the whole deployment over to the standby region."""
        if self.failed_over:
            raise CheckpointError("already failed over once")
        sup = self.supervisor
        lost = self.active_region
        outage_start = self.regions.last_seen.get(lost, sup.clock.now)
        try:
            lag = self.mirror.lag()
        except (BrokerDown, LogError, NetworkError):
            lag = None  # primary broker unreachable — lag unknowable
        self.mirror.fence()
        job = self.build_job(self.standby_cluster)
        placement = sup.placement.moved_all(
            self.standby_region,
            list(job.sources) + list(job.operators) + list(job.sinks))
        while (reshaped := sup.reshape(
                job=job, placement=placement,
                target=self._covered_checkpoint())) is None:
            pass
        target, replayed = reshaped
        self.active_region = self.standby_region
        self.failed_over = True
        sup.report.failover = FailoverReport(
            lost_region=lost, to_region=self.standby_region,
            checkpoint_id=(target.checkpoint_id
                           if target is not None else None),
            replayed=replayed,
            full_restart_equiv=sum(self._replica_ends().values()),
            mttr_s=max(0.0, sup.clock.now - outage_start),
            mirror_lag=lag)
        return sup.report.failover


def GeoDeployment(build_job: Callable[[LogCluster], Any], *,
                  placement: Any = None, injector: Any = None,
                  source_batch: int = 32, interval_cycles: int = 4,
                  **geo: Any) -> Supervisor:
    """A :class:`Supervisor` running ``build_job(primary_cluster)`` two
    wide, two cycles a slice, under one :class:`GeoController` (``geo``
    are its options), keeping four checkpoints and a metrics registry."""
    controller = GeoController(build_job, **geo)
    return Supervisor(
        build_job(controller.primary_cluster), controllers=[controller],
        parallelism=2, placement=placement, injector=injector,
        source_batch=source_batch, step_cycles=2,
        interval_cycles=interval_cycles, store=CheckpointStore(keep=4),
        metrics=MetricsRegistry())
