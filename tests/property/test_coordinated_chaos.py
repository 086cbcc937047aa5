"""The headline chaos property: recovery reproduces the fault-free run.

There is one runner, so this is the one recovery suite: with
checkpoints taken *while data is in flight* (barrier alignment, 2PC
sinks) and recovery that may be *regional* (only the failed subtask's
failover region restarts), any seeded schedule of subtask crashes —
aimed at a logical operator (any of its subtasks may fire it) or one
pinned clone like ``window_sum[1]`` — mid-snapshot crashes, coordinator
crashes, fetch faults on a log-backed source, fail-silent stalls and
network faults (delay / duplicate / reorder / partition on channels)
must yield transactional-sink output equal to the fault-free run — no
element lost, none exposed twice — in per-item, batched and chained
execution, at every parallelism.  And the same seed must reproduce the
same fault trace, or none of it is debuggable.

Crash-only schedules replay deterministically, so raw sink order is
compared.  Network faults and stalls legitimately shift *when* windows
fire (permuting cross-subtask interleave at a merge sink), so those
sweeps compare :func:`~repro.chaos.harness.canonical_sinks` — exact on
values and multiplicities, forgiving of interleave.

A few fixed-schedule smokes stay unmarked for tier 1; the sweeps are
``chaos``-marked and run via ``make chaos`` / ``make chaos-parallel``.
"""

import pytest

from repro.chaos import (
    SITE_APPEND,
    SITE_COORDINATOR,
    SITE_OPERATOR,
    SITE_STALL,
    ChaosLogCluster,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    canonical_sinks,
    fault_free_sinks,
    reference_events,
    reference_job,
    reference_operator_names,
    run_coordinated,
    two_region_job,
)
from repro.eventlog.broker import LogCluster, TopicConfig
from repro.eventlog.producer import Producer
from repro.streaming import (
    Autoscaler,
    JobBuilder,
    SchedulePolicy,
    ShedPolicy,
    Supervisor,
)
from repro.streaming.connectors import log_source
from repro.streaming.txn_sink import TransactionalLogSink
from repro.util.clock import SimClock
from tests.chaos_plans import random_plan

MODES = (False, True)  # batch_mode: the per-item oracle, then batched
SOURCE_BATCH = 16


def _run(build, plan, *, parallelism=2, exact=True, batch_mode=True,
         source_batch=SOURCE_BATCH, **kwargs):
    golden = fault_free_sinks(build, parallelism=parallelism,
                              source_batch=source_batch,
                              batch_mode=batch_mode)
    injector = FaultInjector(plan) if plan is not None else None
    report = run_coordinated(build(), injector, parallelism=parallelism,
                             source_batch=source_batch,
                             batch_mode=batch_mode, **kwargs)
    if plan is not None:
        # network faults and short stalls fire without raising, so the
        # injector trace — not report.failures — is the fired predicate
        assert report.trace, f"schedule {plan.name} never fired"
    if exact:
        assert report.sink_values == golden, (
            f"coordinated recovery diverged (plan="
            f"{plan.name if plan else 'none'}, parallelism={parallelism})")
    else:
        assert canonical_sinks(report.sink_values) \
            == canonical_sinks(golden), (
                f"exactly-once violated (plan="
                f"{plan.name if plan else 'none'}, "
                f"parallelism={parallelism})")
    return report


def _crashes(name, *sites):
    return FaultPlan(specs=tuple(
        FaultSpec("operator_crash", SITE_OPERATOR, at=at, target=target)
        for target, at in sites), name=name)


def _random_crashes(seed, horizon, crashes, **kwargs):
    """A seeded schedule of ``crashes`` operator crashes and nothing
    else, unless ``kwargs`` turns another fault class on."""
    quiet = dict(torn_appends=0, unavailable_windows=0,
                 duplicate_deliveries=0, task_timeouts=0)
    return random_plan(
        seed, horizon=horizon, operators=reference_operator_names(),
        crashes=crashes, **{**quiet, **kwargs})


def _run_all_modes(build, plan, **kwargs):
    """Crash-only: raw sink order, a barrier every cycle, every mode."""
    kwargs.setdefault("interval_cycles", 1)
    for batch_mode in MODES:
        _run(build, plan, batch_mode=batch_mode, **kwargs)


#: name -> (events seed, parallelism, crash sites)
FIXED_CRASHES = {
    "mid_batch_p1": (3, 1, (("double", 57), ("window_sum", 211))),
    # a logical target: any of the operator's subtasks may fire it
    "logical_target_p4": (5, 4, (("double", 41), ("window_sum", 160))),
    # "window_sum[1]" names one physical clone; only it can trip
    "pinned_subtask_p4": (5, 4, (("window_sum[1]", 23),)),
}


class TestCoordinatedSmoke:
    """Unmarked: the coordinated machinery stays inside tier 1."""

    @pytest.mark.parametrize("name", sorted(FIXED_CRASHES))
    def test_fixed_crashes(self, name):
        seed, parallelism, sites = FIXED_CRASHES[name]
        events = reference_events(seed=seed)
        _run_all_modes(lambda: reference_job(events), _crashes(name, *sites),
                       parallelism=parallelism, source_batch=32)

    def test_same_seed_same_trace(self):
        events = reference_events(seed=3)
        plan = _random_crashes(21, 300, 2)

        def trace_once():
            injector = FaultInjector(plan)
            run_coordinated(reference_job(events), injector)
            return injector.trace_tuples()

        first = trace_once()
        assert first  # the schedule actually fired
        assert trace_once() == first

    def test_no_faults_all_modes(self):
        events = reference_events(seed=3, n=200)
        for batch_mode in MODES:
            report = _run(lambda: reference_job(events), None,
                          batch_mode=batch_mode, interval_cycles=2)
            assert report.checkpoints >= 1

    def test_subtask_and_coordinator_crash(self):
        events = reference_events(seed=3, n=200)
        plan = FaultPlan(specs=(
            FaultSpec("operator_crash", SITE_OPERATOR, at=40,
                      target="window_sum[1]"),
            FaultSpec("coordinator_crash", SITE_COORDINATOR, at=1),
        ), name="coordinated-smoke")
        report = _run(lambda: reference_job(events), plan,
                      interval_cycles=2)
        assert report.crashes == 1
        assert report.coordinator_crashes == 1
        assert report.aborted >= 1

    def test_regional_recovery_replays_less(self):
        # the two-region plan: a crash in pipeline A must not rewind
        # pipeline B, and must replay strictly less than a full restart
        def build():
            return two_region_job(reference_events(seed=11, n=200),
                                  reference_events(seed=13, n=200))

        plan = FaultPlan(specs=(
            FaultSpec("operator_crash", SITE_OPERATOR, at=150,
                      target="window_a"),
        ), name="regional-smoke")
        report = _run(build, plan, interval_cycles=2)
        assert report.regional_restores == 1
        assert report.full_restores == 0
        assert report.replayed_total < report.replayed_full_equiv


@pytest.mark.chaos
class TestCoordinatedCrashSweeps:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_crash_schedules(self, seed):
        events = reference_events(seed=seed % 3, n=240)
        plan = _random_crashes(seed + 700, 70, 2, barrier_crashes=1,
                               coordinator_crashes=1,
                               name=f"coordinated-{seed}")
        _run(lambda: reference_job(events), plan, interval_cycles=2)

    @pytest.mark.parametrize("seed", range(12))
    def test_crash_only_schedules_at_p1(self, seed):
        events = reference_events(seed=seed % 5)
        plan = _random_crashes(seed, 360, 3, name=f"crashes-{seed}")
        _run_all_modes(lambda: reference_job(events), plan, parallelism=1,
                       source_batch=32)

    @pytest.mark.parametrize("seed", range(6))
    def test_varied_source_batches(self, seed):
        events = reference_events(seed=1, n=250)
        plan = _random_crashes(seed + 100, 240, 2)
        for source_batch in (5, 17, 64):
            _run_all_modes(lambda: reference_job(events), plan,
                           parallelism=1, source_batch=source_batch)

    @pytest.mark.parametrize("seed", range(8))
    def test_crash_only_schedules_at_p4(self, seed):
        events = reference_events(seed=seed % 4)
        # Each subtask sees ~1/parallelism of the stream, so fault
        # offsets must sit well inside a single subtask's progress.
        plan = _random_crashes(seed + 300, 80, 3, name=f"parallel-{seed}")
        _run(lambda: reference_job(events), plan, parallelism=4,
             source_batch=32, interval_cycles=1)

    @pytest.mark.parametrize("target",
                             ["double[0]", "window_sum[3]", "watermarks[2]"])
    def test_every_pinned_subtask_recovers(self, target):
        events = reference_events(seed=2)
        _run(lambda: reference_job(events),
             _crashes(f"pin-{target}", (target, 19)), parallelism=4,
             source_batch=32, interval_cycles=1)

    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_all_parallelisms_and_modes(self, parallelism):
        events = reference_events(seed=7, n=240)
        plan = FaultPlan(specs=(
            FaultSpec("operator_crash", SITE_OPERATOR, at=19,
                      target="window_sum"),
            FaultSpec("barrier_crash", "streaming.barrier", at=1,
                      target="double"),
            FaultSpec("coordinator_crash", SITE_COORDINATOR, at=2),
        ), name=f"modes-p{parallelism}")
        _run_all_modes(lambda: reference_job(events), plan,
                       parallelism=parallelism, interval_cycles=2)

    @pytest.mark.parametrize("parallelism", [2, 3, 4])
    def test_crash_only_at_all_parallelisms_and_modes(self, parallelism):
        events = reference_events(seed=7)
        plan = _crashes(f"crash-modes-p{parallelism}",
                        ("window_sum", 77), ("watermarks", 150))
        _run_all_modes(lambda: reference_job(events), plan,
                       parallelism=parallelism, source_batch=32)


@pytest.mark.chaos
class TestLogBackedRecovery:
    """The stream reads a chaos-wrapped log: fetch faults + crashes."""

    def _seeded_topic(self, injector=None, partitions=2):
        cluster = LogCluster(num_brokers=3)
        cluster.create_topic(TopicConfig("events", partitions=partitions,
                                         replication=2))
        producer = Producer(cluster, clock=SimClock(), idempotent=True)
        for element in reference_events(seed=2, n=200):
            producer.send("events", element.value,
                          key=str(element.value["k"]),
                          timestamp=element.timestamp)
        if injector is None:
            return cluster
        return ChaosLogCluster(cluster, injector)

    @pytest.mark.parametrize("seed", range(8))
    def test_fetch_faults_and_crashes_recover(self, seed):
        golden_cluster = self._seeded_topic()
        plan = _random_crashes(seed, 200, 2, unavailable_windows=1,
                               duplicate_deliveries=2, name=f"log-{seed}")
        # Keep the faults on the fetch path: appends already happened.
        plan = FaultPlan(
            specs=tuple(s for s in plan.specs if s.site != SITE_APPEND),
            seed=plan.seed, name=plan.name)
        for batch_mode in MODES:
            golden = fault_free_sinks(
                lambda: reference_job(log_source(golden_cluster, "events")),
                batch_mode=batch_mode)
            chaos_cluster = self._seeded_topic(FaultInjector(plan))
            report = run_coordinated(
                reference_job(log_source(chaos_cluster, "events")),
                chaos_cluster.injector, batch_mode=batch_mode,
                interval_cycles=1)
            assert report.sink_values == golden, (
                f"log-backed recovery diverged (batch_mode={batch_mode}, "
                f"seed={seed})")


@pytest.mark.chaos
class TestNetworkFaultSweeps:
    @pytest.mark.parametrize("seed", range(6))
    def test_channel_faults_masked(self, seed):
        # delay / duplicate / reorder / partition on physical channels:
        # the reliable-transport layer masks them, exactly-once holds
        events = reference_events(seed=seed % 3, n=240)
        plan = _random_crashes(seed + 900, 60, 0, channel_faults=4,
                               name=f"net-{seed}")
        _run(lambda: reference_job(events), plan, exact=False,
             interval_cycles=2)

    @pytest.mark.parametrize("seed", range(4))
    def test_crashes_and_network_together(self, seed):
        events = reference_events(seed=seed % 2, n=240)
        plan = _random_crashes(seed + 1100, 60, 1, channel_faults=3,
                               coordinator_crashes=1,
                               name=f"net-crash-{seed}")
        _run(lambda: reference_job(events), plan, exact=False,
             interval_cycles=2)


@pytest.mark.chaos
class TestFailureDetector:
    def test_stalled_subtask_detected_and_recovered(self):
        # fail-silent: the subtask neither drains nor heartbeats; only
        # the deadline detector can notice, and recovery must still be
        # exactly-once
        events = reference_events(seed=6, n=240)
        plan = FaultPlan(specs=(
            FaultSpec("subtask_stall", SITE_STALL, at=6, count=12,
                      target="window_sum[0]"),
        ), name="stall")
        report = _run(lambda: reference_job(events), plan, exact=False,
                      interval_cycles=2)
        assert report.dead_detected >= 1

    @pytest.mark.parametrize("seed", range(3))
    def test_stall_sweeps(self, seed):
        events = reference_events(seed=seed, n=240)
        # the stall counter ticks once per macro cycle per subtask, so
        # the horizon must sit inside the run's ~15-cycle span
        plan = _random_crashes(seed + 1300, 12, 0, stalls=1,
                               name=f"stall-{seed}")
        _run(lambda: reference_job(events), plan, exact=False,
             interval_cycles=2)


@pytest.mark.chaos
class TestRegionalRecoverySweeps:
    @pytest.mark.parametrize("seed", range(4))
    def test_regional_beats_full_restart(self, seed):
        def build():
            return two_region_job(
                reference_events(seed=seed * 2 + 1, n=200),
                reference_events(seed=seed * 2 + 2, n=200))

        # at=70: inside every subtask's per-identity item count (each of
        # the 2 subtasks sees ~100 of the 200 source elements)
        target = ("window_a", "window_b", "double_a", "shift_b")[seed % 4]
        plan = FaultPlan(specs=(
            FaultSpec("operator_crash", SITE_OPERATOR, at=70,
                      target=target),
        ), name=f"regional-{seed}")
        # canonical compare: the surviving region is *not* rewound, so
        # its subtasks' merge interleave at the sink may shift relative
        # to the fault-free run — content stays exactly-once
        report = _run(build, plan, exact=False, interval_cycles=2)
        assert report.regional_restores >= 1
        assert report.replayed_total < report.replayed_full_equiv


class _TwoOfThree(ShedPolicy):
    """The shed tier admitting 2 of every 3 elements (the library's
    policy admits 1 of 2), so a ratio other than a half is covered."""

    keep, mod = 2, 3


SHED = _TwoOfThree(trigger_wait_s=0.0, release_wait_s=0.0)


def _shed_run(plan, *, seed=7, n=400, schedule=None, **kwargs):
    """A coordinated run with always-on deterministic shedding (the
    trigger threshold of zero activates the tier from element zero, so
    the golden and the chaos run shed the identical subset)."""
    events = reference_events(seed=seed, n=n)
    injector = FaultInjector(plan) if plan is not None else None
    supervisor = Supervisor(
        reference_job(events, splits=4),
        controllers=[Autoscaler(SchedulePolicy(schedule or {}),
                                shed_policy=SHED)],
        injector=injector, parallelism=1, source_batch=32, **kwargs)
    return supervisor.run()


class TestShedExactlyOnceSmoke:
    """Unmarked: the shed tier's accounting stays inside tier 1."""

    def test_shed_plus_committed_accounts_for_every_element(self):
        # passthrough job: every admitted element reaches the sink, so
        # committed + shed must partition the input exactly, and the
        # shed set never leaks into the transactional sink
        events = reference_events(seed=5, n=300)
        total = len(events)
        builder = JobBuilder("shed-passthrough")
        (builder.source("events", events, splits=4)
                .map(lambda v: v, name="ident")
                .sink("out"))
        supervisor = Supervisor(
            builder.build(),
            controllers=[Autoscaler(SchedulePolicy({}), shed_policy=SHED)],
            parallelism=1, source_batch=32)
        report = supervisor.run()
        committed = len(report.sink_values["out"])
        assert report.shed_total > 0
        assert committed + report.shed_total == total


@pytest.mark.chaos
class TestShedExactlyOnceUnderChaos:
    """Shedding must preserve exactly-once for *committed* records:
    shed elements appear only in drop accounting, never partially in a
    transactional sink — across crashes, coordinator loss and rescales
    (checkpoints carry the shed plans and counts; restores rewind
    them)."""

    def _golden(self, seed=7, n=400):
        report = _shed_run(None, seed=seed, n=n)
        return canonical_sinks(report.sink_values), report.shed_total

    @pytest.mark.parametrize("seed", range(4))
    def test_crash_schedules_shed_identically(self, seed):
        golden, golden_shed = self._golden(seed=seed % 3)
        plan = _random_crashes(seed + 2100, 60, 2, coordinator_crashes=1,
                               name=f"shed-{seed}")
        report = _shed_run(plan, seed=seed % 3)
        assert canonical_sinks(report.sink_values) == golden
        assert report.shed_total == golden_shed

    def test_shedding_survives_a_live_rescale(self):
        golden, golden_shed = self._golden()
        plan = FaultPlan(specs=(
            FaultSpec("rescale_crash", "streaming.rescale", at=0,
                      target="restore"),
        ), name="shed-rescale")
        report = _shed_run(plan, schedule={1: {"window_sum": 2}})
        assert len(report.rescales) == 1
        assert canonical_sinks(report.sink_values) == golden
        assert report.shed_total == golden_shed


@pytest.mark.chaos
class TestTransactionalLogMirror:
    def test_exactly_once_into_the_log_across_coordinator_crashes(self):
        events = reference_events(seed=12, n=240)
        golden = fault_free_sinks(lambda: reference_job(events),
                                  parallelism=2, source_batch=SOURCE_BATCH)
        cluster = LogCluster(num_brokers=3)
        cluster.create_topic(TopicConfig("mirror", partitions=2,
                                         replication=2))
        mirror = TransactionalLogSink(cluster, "mirror", "out")

        def wire(coordinator):
            mirror.fence()
            coordinator.listeners.append(
                lambda cid, sink, committed:
                    mirror.on_checkpoint_committed(cid, committed))

        plan = FaultPlan(specs=(
            FaultSpec("coordinator_crash", SITE_COORDINATOR, at=1),
            FaultSpec("operator_crash", SITE_OPERATOR, at=60,
                      target="window_sum"),
        ), name="log-mirror")
        injector = FaultInjector(plan)
        report = run_coordinated(reference_job(events), injector,
                                 parallelism=2, source_batch=SOURCE_BATCH,
                                 interval_cycles=2, on_coordinator=wire)
        assert report.coordinator_crashes == 1 and report.crashes == 1
        assert report.sink_values == golden
        logged = []
        for p in range(cluster.partition_count("mirror")):
            for _offset, record in cluster.read("mirror", p, 0,
                                                max_records=100_000):
                logged.append(record.value)
        expected = sorted(repr(v) for v in golden["out"])
        assert sorted(repr(v) for v in logged) == expected
