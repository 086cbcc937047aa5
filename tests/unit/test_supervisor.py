"""The one supervision ladder and the one reshape.

``run_coordinated``, the autoscaler and the geo deployment all run under
:class:`repro.streaming.Supervisor`; these tests drive the ladder
directly — raise each failure class from an action and check what was
counted, what was restored and that the job still commits exactly the
fault-free output — and crash :meth:`Supervisor.reshape` in each phase
for each kind of plan change.  The feature-level sweeps stay in the
marked suites.
"""

import pytest

from repro.chaos import (
    RESCALE_PHASES,
    SITE_CHECKPOINT,
    SITE_DATA,
    SITE_OPERATOR,
    SITE_RESCALE,
    SITE_STALL,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    canonical_sinks,
    fault_free_sinks,
    reference_events,
    reference_job,
    run_coordinated,
    two_region_job,
)
from repro.streaming import (
    DEAD_LETTER,
    Autoscaler,
    CheckpointStore,
    RegionPlacement,
    SchedulePolicy,
    Supervisor,
    run_coordinated,
)
from repro.streaming import supervisor as supervisor_module
from repro.util.errors import (
    BrokerDown,
    ChaosError,
    CoordinatorDown,
    DataFaultError,
    JobGraphError,
    OperatorCrash,
)

SOURCE_BATCH = 16


def _job(seed=3, n=200):
    return reference_job(reference_events(seed=seed, n=n), splits=4)


def _supervisor(job, injector=None):
    return Supervisor(job, parallelism=2, source_batch=SOURCE_BATCH,
                      step_cycles=1, interval_cycles=2, injector=injector)


def _golden(build):
    return canonical_sinks(fault_free_sinks(build, parallelism=2,
                                            source_batch=SOURCE_BATCH))


def _advance_until_checkpoint(supervisor):
    """Run to the first finalized checkpoint plus one slice, so a
    recovery from here has something to replay."""
    while supervisor.store.latest() is None:
        assert supervisor.advance() is False
    assert supervisor.advance() is False


def _finish(supervisor):
    while not supervisor.advance():
        pass
    return supervisor.finish()


def _raiser(exc):
    def action():
        raise exc
    return action


class TestLadder:
    @pytest.mark.parametrize("exc,counter", [
        (OperatorCrash("boom", op_name="window_sum[0]"), "crashes"),
        (DataFaultError("poisoned"), "data_failures"),
        (BrokerDown("partition offline"), "broker_faults"),
    ])
    def test_restartable_failures_restore_and_stay_exactly_once(
            self, exc, counter):
        supervisor = _supervisor(_job())
        _advance_until_checkpoint(supervisor)
        assert supervisor.attempt(_raiser(exc)) is None
        report = _finish(supervisor)
        assert getattr(report, counter) == 1
        assert report.failures == 1
        assert report.full_restores == 1
        assert report.replayed_total == report.replayed_full_equiv > 0
        assert canonical_sinks(report.sink_values) == _golden(_job)

    def test_coordinator_loss_restores_nothing(self):
        supervisor = _supervisor(_job())
        _advance_until_checkpoint(supervisor)
        lost = supervisor.coordinator
        positions = supervisor.executor.sources.positions()
        assert supervisor.attempt(_raiser(CoordinatorDown("gone"))) is None
        assert supervisor.coordinator is not lost
        assert supervisor.executor.sources.positions() == positions
        report = _finish(supervisor)
        assert report.coordinator_crashes == 1
        assert report.restores == 0 and report.replayed_total == 0
        assert canonical_sinks(report.sink_values) == _golden(_job)

    def test_fail_silent_subtask_is_dead_detected_not_a_crash(self):
        events = reference_events(seed=6, n=240)
        plan = FaultPlan(specs=(
            FaultSpec("subtask_stall", SITE_STALL, at=6, count=12,
                      target="window_sum[0]"),
        ), name="stall")
        report = Supervisor(
            reference_job(events, splits=4),
            controllers=[Autoscaler(SchedulePolicy({}))],
            injector=FaultInjector(plan), parallelism=2,
            source_batch=SOURCE_BATCH, step_cycles=1,
            interval_cycles=2).run()
        assert report.dead_detected >= 1
        assert report.crashes == 0
        assert canonical_sinks(report.sink_values) == canonical_sinks(
            fault_free_sinks(lambda: reference_job(events, splits=4),
                             parallelism=2, source_batch=SOURCE_BATCH))

    def test_restore_walks_out_of_a_broker_window(self):
        supervisor = _supervisor(_job())
        _advance_until_checkpoint(supervisor)
        real, calls = supervisor.executor.restore, []

        def flaky(checkpoint, region=None):
            calls.append(checkpoint)
            if len(calls) < 3:
                raise BrokerDown("still offline")
            return real(checkpoint, region)

        supervisor.executor.restore = flaky
        supervisor.attempt(_raiser(OperatorCrash("boom")))
        assert len(calls) == 3
        assert supervisor.report.broker_faults == 2
        assert supervisor.report.full_restores == 1

    def test_every_supervisor_reports_a_quarantined_checkpoint(self):
        # the fold happens in Supervisor.finish(), so an autoscaled run
        # can say its store fell back past a rotten checkpoint
        plan = FaultPlan(specs=(
            FaultSpec("checkpoint_corruption", SITE_CHECKPOINT, at=2,
                      count=1000, param="payload"),
            FaultSpec("operator_crash", SITE_OPERATOR, at=60,
                      target="window_sum"),
        ), name="rot")
        report = Supervisor(
            _job(), controllers=[Autoscaler(SchedulePolicy({}))],
            injector=FaultInjector(plan), parallelism=2,
            source_batch=SOURCE_BATCH, step_cycles=1, interval_cycles=1,
            store=CheckpointStore(keep=100)).run()
        assert report.crashes == 1 and report.integrity_failures > 0
        assert report.trace
        assert canonical_sinks(report.sink_values) == _golden(_job)

    def test_failure_budget_is_the_shared_constant(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "MAX_FAILURES", 2)
        supervisor = _supervisor(_job())
        for _ in range(2):
            supervisor.attempt(_raiser(OperatorCrash("boom")))
        with pytest.raises(ChaosError, match="gave up after 3 failures"):
            supervisor.attempt(_raiser(OperatorCrash("boom")))


class TestArguments:
    def test_run_coordinated_rejects_a_source_batch_below_one(self):
        with pytest.raises(JobGraphError, match="source_batch.*0"):
            run_coordinated(_job(n=20), source_batch=0)
        for cycles in (0, -3):
            with pytest.raises(JobGraphError, match=f"step_cycles.*{cycles}"):
                Supervisor(_job(n=20), step_cycles=cycles)


class TestRecoverySelection:
    def _two_region(self):
        return two_region_job(reference_events(seed=1, n=160),
                              reference_events(seed=2, n=160))

    def test_plain_step_restores_only_the_failed_region(self):
        supervisor = _supervisor(self._two_region())
        _advance_until_checkpoint(supervisor)
        supervisor.attempt(
            _raiser(OperatorCrash("boom", op_name="window_a[0]")),
            regional=True)
        report = _finish(supervisor)
        assert (report.regional_restores, report.full_restores) == (1, 0)
        assert report.replayed_total < report.replayed_full_equiv
        assert canonical_sinks(report.sink_values) == _golden(
            self._two_region)

    def test_action_in_flight_restores_in_full(self):
        supervisor = _supervisor(self._two_region())
        _advance_until_checkpoint(supervisor)
        supervisor.attempt(
            _raiser(OperatorCrash("boom", op_name="window_a[0]")))
        assert (supervisor.report.regional_restores,
                supervisor.report.full_restores) == (0, 1)

    def test_dead_letter_queue_forces_full_restore(self):
        job = self._two_region()
        job.error_policies["double_a"] = DEAD_LETTER
        supervisor = _supervisor(job)
        _advance_until_checkpoint(supervisor)
        supervisor.attempt(
            _raiser(OperatorCrash("boom", op_name="window_a[0]")),
            regional=True)
        assert (supervisor.report.regional_restores,
                supervisor.report.full_restores) == (0, 1)

    def test_before_the_first_checkpoint_restores_checkpoint_zero(self):
        supervisor = _supervisor(_job())
        supervisor.attempt(
            _raiser(OperatorCrash("boom", op_name="window_sum[0]")),
            regional=True)
        report = _finish(supervisor)
        assert report.full_restores == 1
        assert canonical_sinks(report.sink_values) == _golden(_job)


#: one reshape of each kind: new widths, new placement, new job restored
#: from a given checkpoint (failover's shape)
RESHAPES = {
    "widths": lambda supervisor: {"widths": 4},
    "placement": lambda supervisor: {
        "placement": RegionPlacement(default_region="edge-b")},
    "job": lambda supervisor: {"job": _job(),
                               "target": supervisor.store.latest()},
}


def _crash_in(phase):
    return FaultInjector(FaultPlan(specs=(
        FaultSpec("rescale_crash", SITE_RESCALE, at=0, target=phase),
    ), name=f"reshape-{phase}"))


class TestReshape:
    """The one plan change, under a crash in each of its phases."""

    @pytest.mark.parametrize("phase", RESCALE_PHASES)
    @pytest.mark.parametrize("kind", sorted(RESHAPES))
    def test_crash_in_a_phase_recovers_the_old_executor(self, kind, phase):
        supervisor = _supervisor(_job(), _crash_in(phase))
        _advance_until_checkpoint(supervisor)
        old = supervisor.executor
        assert supervisor.reshape(**RESHAPES[kind](supervisor)) is None
        assert supervisor.executor is old
        assert supervisor.report.crashes == 1
        assert supervisor.report.full_restores == 1
        # the retry completes, counts its replay once, and the run is
        # still exactly-once
        before = supervisor.report.replayed_total
        target, replayed = supervisor.reshape(**RESHAPES[kind](supervisor))
        assert supervisor.executor is not old
        assert target is not None and target.checkpoint_id >= 1
        assert supervisor.report.replayed_total == before + replayed
        report = _finish(supervisor)
        assert canonical_sinks(report.sink_values) == _golden(_job)

    def test_each_kind_keeps_what_it_does_not_change(self):
        supervisor = _supervisor(_job())
        _advance_until_checkpoint(supervisor)
        placed = RegionPlacement(default_region="edge-b")
        assert supervisor.reshape(placement=placed) is not None
        assert supervisor.reshape(widths=4) is not None
        # a rescale keeps the handed-off placement ...
        assert supervisor.placement is placed
        assert set(supervisor.executor.graph.node_regions.values()) \
            == {"edge-b"}
        assert supervisor.reshape(job=_job(),
                                  target=supervisor.store.latest())
        # ... and a failover the current widths
        assert supervisor.parallelism == 4
        assert supervisor.executor.graph.width("window_sum") == 4
        report = _finish(supervisor)
        assert canonical_sinks(report.sink_values) == _golden(_job)

    def test_a_cold_start_replays_everything(self):
        supervisor = _supervisor(_job())
        _advance_until_checkpoint(supervisor)
        target, replayed = supervisor.reshape(job=_job(), target=None)
        assert target is None and replayed == 200
        report = _finish(supervisor)
        assert canonical_sinks(report.sink_values) == _golden(_job)

    def test_listeners_and_counts_survive_rebuild_and_reshape(self):
        job = _job()
        supervisor = _supervisor(job)
        committed = []
        supervisor.coordinator.listeners.append(
            lambda cid, sink, elements: committed.append(cid))
        _advance_until_checkpoint(supervisor)
        supervisor.coordinator.trigger()  # a pending cut to abandon
        supervisor.attempt(_raiser(CoordinatorDown("gone")))
        assert supervisor.reshape(widths=4) is not None
        report = _finish(supervisor)
        assert report.aborted == 1
        # every finalized checkpoint, across three coordinator
        # incarnations, reached the listener exactly once
        assert report.checkpoints == len(committed) == len(set(committed))
        assert committed == sorted(committed)
        assert canonical_sinks(report.sink_values) == _golden(_job)


class TestDataFaultsNeverEscapeRaw:
    """An unguarded poisoned record refires on every replay: each entry
    point must end in a diagnostic, not a raw DataFaultError."""

    def _poison(self):
        plan = FaultPlan(specs=(
            FaultSpec("udf_exception", SITE_DATA, at=40, count=1,
                      target="double"),
        ), seed=5, name="poison")
        return _job(seed=5), FaultInjector(plan)

    def test_run_coordinated(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "MAX_FAILURES", 4)
        job, injector = self._poison()
        with pytest.raises(ChaosError, match="gave up"):
            run_coordinated(job, injector, parallelism=2)

    def test_scaling_supervisor(self, monkeypatch):
        monkeypatch.setattr(supervisor_module, "MAX_FAILURES", 4)
        job, injector = self._poison()
        supervisor = Supervisor(
            job, controllers=[Autoscaler(SchedulePolicy({}))],
            injector=injector, parallelism=2)
        with pytest.raises(ChaosError, match="gave up"):
            supervisor.run()
        assert supervisor.report.data_failures == 5
