"""Geo chaos suite: exactly-once session output across zone handoff
and whole-region loss.

The property (the PR's acceptance bar): a keyed windowed job pinned to
an edge region — with its input topic asynchronously mirrored to the
core region — is subjected to (a) session handoffs that migrate keyed
operators across a zone boundary mid-job, with operator and
coordinator crashes landing before, during, and after the move, and
(b) a whole-region loss that the :class:`~repro.geo.RegionController`
must detect from simnet heartbeats and survive by failing over to the
replica cluster.  At parallelism 1, 2 and 4 the committed sink output
is **bit-identical** to the fault-free run, and failover restores from
a finalized checkpoint so it replays **strictly less** than a full
restart of the replica.

Marked ``geo``: run via ``make geo`` / ``tools/check_geo.py``,
excluded from tier 1.  The fast placement/controller seams stay
covered in tier 1 by ``tests/unit/test_geo_placement.py`` and
``tests/unit/test_offload_tiers.py``.
"""

import pytest

from functools import partial

from repro.chaos import (
    SITE_COORDINATOR,
    SITE_DATA,
    SITE_OPERATOR,
    SITE_RESCALE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    canonical_sinks,
    fault_free_sinks,
)
from repro.eventlog import LogCluster, Producer, TopicConfig
from repro.geo import GeoController, GeoDeployment
from repro.simnet import (
    FailureInjector,
    RegionFailureEvent,
    Simulator,
    region_topology,
)
from repro.streaming import (
    DEAD_LETTER,
    FAIL,
    Autoscaler,
    CheckpointStore,
    Controller,
    JobBuilder,
    SchedulePolicy,
    Supervisor,
    parallel_log_source,
)
from repro.streaming import supervisor as supervisor_module
from repro.streaming.placement import placement_from_topology
from repro.streaming.windows import TumblingWindows
from repro.util.errors import ChaosError
from repro.util.metrics import MetricsRegistry
from repro.util.rng import make_rng

pytestmark = pytest.mark.geo

TOPIC = "geo.events"
N_RECORDS = 240
KEYS = 8
PINS = {TOPIC: "edge-a", "by_key": "edge-a",
        "window_sum": "edge-a", "out": "edge-a"}
MOVABLE = ("by_key", "window_sum", "out")


def _fill(cluster: LogCluster) -> None:
    cluster.create_topic(TopicConfig(name=TOPIC, partitions=4))
    producer = Producer(cluster, idempotent=True)
    for i in range(N_RECORDS):
        producer.send(TOPIC, {"k": i % KEYS, "v": float(i)},
                      key=f"k-{i % KEYS}", timestamp=float(i))


def _build_job(cluster: LogCluster, udf_policy=None):
    builder = JobBuilder("geo-chaos")
    factory, splits = parallel_log_source(cluster, TOPIC)
    stream = builder.source(TOPIC, splits=splits, split_factory=factory)
    head = TOPIC
    if udf_policy is not None:
        # an identity UDF for data faults to target, pinned with the
        # source; the golden output is the plain job's
        head = "scale"
        stream = stream.map(lambda v: v, name=head).on_error(udf_policy)
        builder.pin_region(head, "edge-a")
    (stream.key_by(lambda v: v["k"], name="by_key")
            .window(TumblingWindows(20.0), "sum",
                    value_fn=lambda v: v["v"], name="window_sum")
            .sink("out"))
    for node, region in PINS.items():
        builder.pin_region(node, region)
    # the edge a zone handoff may stretch across regions — declared up
    # front, per the job-graph contract (cross-region is never inferred)
    builder.declare_cross_region(head, "by_key")
    return builder.build()


def _golden(parallelism: int):
    primary = LogCluster(num_brokers=1)
    _fill(primary)
    return canonical_sinks(fault_free_sinks(
        lambda: _build_job(primary), parallelism=parallelism))


def _geo(supervisor):
    (geo,) = [c for c in supervisor.controllers
              if isinstance(c, GeoController)]
    return geo


class _AfterSlice(Controller):
    """Calls ``act(supervisor, step)`` after every slice, once every
    other controller has had its turn: how a test acts at a
    deterministic point of a supervised run."""

    def __init__(self, act):
        self.act = act

    def after_slice(self, done):
        self.act(self.supervisor, self.supervisor.report.steps - 1)


def _run(supervisor, act):
    hook = _AfterSlice(act)
    hook.bind(supervisor)
    supervisor.controllers.append(hook)
    return supervisor.run()


def _deployment(parallelism: int, *, injector=None,
                region_event: RegionFailureEvent | None = None,
                region_timeout_s: float = 2.0,
                build_job=_build_job):
    primary = LogCluster(num_brokers=1)
    standby = LogCluster(num_brokers=1)
    _fill(primary)
    topo = region_topology(make_rng(11))
    sim = Simulator()
    if region_event is not None:
        FailureInjector(sim, topo).schedule_region(region_event)
    placement = placement_from_topology(topo, dict(PINS),
                                        default_region="core")
    geo = dict(primary_cluster=primary, standby_cluster=standby,
               topic=TOPIC, region_timeout_s=region_timeout_s,
               topology=topo, simulator=sim, observer="core")
    if parallelism == 2:  # GeoDeployment's width
        return GeoDeployment(build_job, placement=placement,
                             injector=injector, source_batch=8,
                             interval_cycles=2, **geo)
    # what GeoDeployment builds, at another width
    controller = GeoController(build_job, **geo)
    return Supervisor(
        build_job(controller.primary_cluster), controllers=[controller],
        parallelism=parallelism, placement=placement, injector=injector,
        source_batch=8, step_cycles=2, interval_cycles=2,
        store=CheckpointStore(keep=4), metrics=MetricsRegistry())


class TestZoneHandoff:
    """Keyed state follows the user across the zone boundary."""

    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_handoff_is_exactly_once(self, parallelism):
        golden = _golden(parallelism)
        deployment = _deployment(parallelism)

        def cross_zone(dep, step):
            if step == 1:
                _geo(dep).handoff(MOVABLE, "edge-b")

        report = _run(deployment, cross_zone)
        assert canonical_sinks(report.sink_values) == golden
        assert len(report.handoffs) == 1
        handoff = report.handoffs[0]
        assert handoff.to_region == "edge-b"
        assert handoff.nodes == MOVABLE
        # the moved plan pays the declared cross-region link
        assert deployment.executor.cross_region_packets > 0

    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_handoff_under_crashes(self, parallelism):
        golden = _golden(parallelism)
        plan = FaultPlan(specs=(
            FaultSpec("operator_crash", SITE_OPERATOR, at=5,
                      target="window_sum"),
            FaultSpec("operator_crash", SITE_OPERATOR, at=40,
                      target="by_key"),
            FaultSpec("coordinator_crash", SITE_COORDINATOR, at=2),
        ))
        deployment = _deployment(parallelism,
                                 injector=FaultInjector(plan))

        def cross_zone(dep, step):
            if step == 2:
                _geo(dep).handoff(MOVABLE, "edge-b")

        report = _run(deployment, cross_zone)
        assert canonical_sinks(report.sink_values) == golden
        assert report.crashes + report.coordinator_crashes > 0
        assert len(report.handoffs) == 1

    def test_handoff_back_and_forth(self):
        golden = _golden(2)
        deployment = _deployment(2)

        def roam(dep, step):
            if step == 1:
                _geo(dep).handoff(MOVABLE, "edge-b")
            elif step == 3:
                _geo(dep).handoff(MOVABLE, "edge-a")

        report = _run(deployment, roam)
        assert canonical_sinks(report.sink_values) == golden
        assert [h.to_region for h in report.handoffs] == \
            ["edge-b", "edge-a"]


class TestRegionFailover:
    """Whole-region loss: detected by heartbeat, survived from the
    replica plus the newest covered checkpoint."""

    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_failover_is_exactly_once(self, parallelism):
        golden = _golden(parallelism)
        deployment = _deployment(
            parallelism,
            region_event=RegionFailureEvent("edge-a", down_at=4.0,
                                            up_at=1e9))
        report = deployment.run()
        assert canonical_sinks(report.sink_values) == golden
        failover = report.failover
        assert failover is not None
        assert failover.lost_region == "edge-a"
        assert failover.to_region == "core"
        assert _geo(deployment).active_region == "core"

    @pytest.mark.parametrize("down_at", [4.3, 7.25, 20.0])
    def test_loss_inside_a_slice_is_exactly_once(self, down_at):
        # the supervisor's slices move the shared clock past the loss
        # (slices run 3 s here): the simulator fires it overdue
        golden = _golden(2)
        deployment = _deployment(
            2, region_event=RegionFailureEvent("edge-a", down_at=down_at,
                                               up_at=1e9))
        report = deployment.run()
        assert canonical_sinks(report.sink_values) == golden
        assert report.failover is not None
        assert report.failover.lost_region == "edge-a"

    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_failover_replays_strictly_less_than_restart(
            self, parallelism):
        deployment = _deployment(
            parallelism,
            region_event=RegionFailureEvent("edge-a", down_at=4.0,
                                            up_at=1e9))
        report = deployment.run()
        failover = report.failover
        assert failover is not None
        assert failover.checkpoint_id is not None
        assert failover.full_restart_equiv == N_RECORDS
        assert failover.replayed < failover.full_restart_equiv
        assert failover.mttr_s > 0.0

    def test_failover_under_crashes(self):
        golden = _golden(2)
        plan = FaultPlan(specs=(
            FaultSpec("operator_crash", SITE_OPERATOR, at=8,
                      target="window_sum"),
            FaultSpec("coordinator_crash", SITE_COORDINATOR, at=1),
        ))
        deployment = _deployment(
            2, injector=FaultInjector(plan),
            region_event=RegionFailureEvent("edge-a", down_at=4.0,
                                            up_at=1e9))
        report = deployment.run()
        assert canonical_sinks(report.sink_values) == golden
        assert report.failover is not None
        assert report.crashes + report.coordinator_crashes > 0

    def test_mirror_caught_up_before_loss(self):
        deployment = _deployment(
            2, region_event=RegionFailureEvent("edge-a", down_at=4.0,
                                               up_at=1e9))
        report = deployment.run()
        # bounded-lag pumping had fully mirrored the topic
        assert report.mirror_pumped == N_RECORDS
        assert report.failover.mirror_lag in (
            None, {p: 0 for p in range(4)})

    def test_deterministic_across_runs(self):
        def once():
            deployment = _deployment(
                2, region_event=RegionFailureEvent("edge-a", down_at=4.0,
                                                   up_at=1e9))
            report = deployment.run()
            failover = report.failover
            return (canonical_sinks(report.sink_values),
                    failover.checkpoint_id, failover.replayed,
                    failover.mttr_s, report.steps)

        assert once() == once()


class TestHandoffThenFailover:
    def test_zone_move_then_region_loss(self):
        """A session roams to edge-b, then edge-a (source region) is
        lost: the failover must still be exactly-once."""
        golden = _golden(2)
        deployment = _deployment(
            2, region_event=RegionFailureEvent("edge-a", down_at=8.0,
                                               up_at=1e9))

        def roam(dep, step):
            if step == 0:
                _geo(dep).handoff(MOVABLE, "edge-b")

        report = _run(deployment, roam)
        assert canonical_sinks(report.sink_values) == golden
        assert len(report.handoffs) == 1
        assert report.failover is not None
        # failover consolidates everything in the surviving region
        regions = set(deployment.executor.graph.node_regions.values())
        assert regions == {"core"}


class TestDataFaultsUnderGeo:
    """The shared ladder handles data faults under geo supervision."""

    POISON = FaultSpec("udf_exception", SITE_DATA, at=30, count=2,
                       target="scale")

    @staticmethod
    def _cross_zone(dep, step):
        if step == 1:
            _geo(dep).handoff(MOVABLE, "edge-b")

    def test_dead_lettered_poison_is_exactly_once_across_handoff(self):
        build = partial(_build_job, udf_policy=DEAD_LETTER)

        def once(*infra):
            plan = FaultPlan(specs=(self.POISON,) + infra, name="geo-dlq")
            deployment = _deployment(2, injector=FaultInjector(plan),
                                     build_job=build)
            return _run(deployment, self._cross_zone)

        clean = once()
        chaosed = once(
            FaultSpec("operator_crash", SITE_OPERATOR, at=40,
                      target="window_sum"),
            FaultSpec("coordinator_crash", SITE_COORDINATOR, at=1))
        assert chaosed.crashes + chaosed.coordinator_crashes == 2
        assert len(clean.handoffs) == len(chaosed.handoffs) == 1
        assert clean.sink_values["__dlq__"], "poison never fired"
        assert {name: sorted(map(repr, values))
                for name, values in chaosed.sink_values.items()} \
            == {name: sorted(map(repr, values))
                for name, values in clean.sink_values.items()}

    def test_unguarded_poison_ends_in_a_diagnostic(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "MAX_FAILURES", 4)
        deployment = _deployment(
            2, injector=FaultInjector(FaultPlan(specs=(self.POISON,),
                                                name="geo-poison")),
            build_job=partial(_build_job, udf_policy=FAIL))
        with pytest.raises(ChaosError, match="gave up"):
            _run(deployment, self._cross_zone)
        assert deployment.report.data_failures == 5



@pytest.mark.chaos
class TestAutoscaleHandoffFailover:
    """The two controllers compose on one supervisor: a job autoscales
    1 -> 2 -> 4, hands its keyed operators off to edge-b, then loses
    edge-a and fails over to core — under an operator crash, a
    coordinator crash and a supervisor crash in the handoff's recompile
    phase — and commits exactly the fault-free output.  The autoscaler's
    arrival arrays and commit cursor outlive reshapes another controller
    made, and each reshape keeps what it does not change."""

    def test_composed_run_is_exactly_once(self):
        golden = _golden(1)
        primary, standby = LogCluster(num_brokers=1), LogCluster(num_brokers=1)
        _fill(primary)
        topo = region_topology(make_rng(11))
        sim = Simulator()
        # lands on a step boundary after the handoff (the coordinator
        # moves the shared clock inside a slice, the simulator between)
        FailureInjector(sim, topo).schedule_region(
            RegionFailureEvent("edge-a", down_at=22.0, up_at=1e9))
        geo = GeoController(
            _build_job, primary_cluster=primary, standby_cluster=standby,
            topic=TOPIC, region_timeout_s=2.0, topology=topo,
            simulator=sim, observer="core")
        plan = FaultPlan(specs=(
            FaultSpec("operator_crash", SITE_OPERATOR, at=40,
                      target="window_sum"),
            FaultSpec("coordinator_crash", SITE_COORDINATOR, at=3),
            # the two rescales enter recompile first: the third entry
            # is the handoff's
            FaultSpec("rescale_crash", SITE_RESCALE, at=2,
                      target="recompile"),
        ), name="autoscale-handoff-failover")
        supervisor = Supervisor(
            _build_job(primary),
            controllers=[Autoscaler(SchedulePolicy(
                {1: {"window_sum": 2}, 3: {"window_sum": 4}})), geo],
            placement=placement_from_topology(topo, dict(PINS),
                                              default_region="core"),
            parallelism=1, source_batch=4, step_cycles=2,
            interval_cycles=2, store=CheckpointStore(keep=4),
            injector=FaultInjector(plan))

        def roam(sup, step):
            if len(sup.report.rescales) == 2 and not sup.report.handoffs:
                geo.handoff(MOVABLE, "edge-b")

        report = _run(supervisor, roam)
        assert canonical_sinks(report.sink_values) == golden
        assert [(e.old["window_sum"], e.new["window_sum"])
                for e in report.rescales] == [(1, 2), (2, 4)]
        assert report.rescale_crashes == 0
        assert report.handoffs[0].attempts == 2
        assert {f.kind for f in report.trace} == {
            "operator_crash", "coordinator_crash", "rescale_crash"}
        assert report.coordinator_crashes == 1 and report.crashes == 2
        assert report.failover is not None
        assert geo.active_region == "core"
        # the failover kept the widths the autoscaler chose
        assert supervisor.parallelism["window_sum"] == 4
        assert set(supervisor.executor.graph.node_regions.values()) \
            == {"core"}
        # every committed result was observed by the latency cursor
        assert len(report.latencies) >= len(report.sink_values["out"]) > 0
