"""The one supervision ladder: every failure class, every action phase.

``run_coordinated``, ``ScalingSupervisor`` and ``GeoDeployment`` share
:class:`repro.streaming.Supervisor`; these tests drive the ladder
directly — raise each failure class from an action and check what was
counted, what was restored and that the job still commits exactly the
fault-free output.  The feature-level sweeps stay in the marked suites.
"""

import pytest

from repro.chaos import (
    SITE_CHECKPOINT,
    SITE_DATA,
    SITE_OPERATOR,
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
    CheckpointStore,
    ParallelExecutor,
    ScalingSupervisor,
    SchedulePolicy,
    Supervisor,
    run_autoscaled,
    run_coordinated,
)
from repro.streaming import supervisor as supervisor_module
from repro.streaming.supervisor import SupervisionReport
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


def _executor(job, injector=None):
    return ParallelExecutor(job, 2, injector=injector,
                            transactional_sinks=True)


def _supervisor(job, injector=None):
    return Supervisor(_executor(job, injector),
                      SupervisionReport(sink_values={}),
                      source_batch=SOURCE_BATCH, step_cycles=1,
                      interval_cycles=2, heartbeat_timeout_s=5.0,
                      injector=injector)


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
        report = run_autoscaled(
            reference_job(events, splits=4), SchedulePolicy({}),
            FaultInjector(plan), parallelism=2, source_batch=SOURCE_BATCH,
            step_cycles=1, interval_cycles=2, heartbeat_timeout_s=4.0)
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
        report = ScalingSupervisor(
            _job(), SchedulePolicy({}), injector=FaultInjector(plan),
            parallelism=2, source_batch=SOURCE_BATCH, step_cycles=1,
            interval_cycles=1, store=CheckpointStore(keep=100)).run()
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


class TestActions:
    """Savepoint + adopt, the primitives rescale/handoff/failover use."""

    def _swap(self, supervisor, job, *, die_in=None):
        def action():
            savepoint = supervisor.coordinator.savepoint()
            if die_in == "savepoint":
                raise OperatorCrash("supervisor died after the savepoint")
            replacement = _executor(job)
            if die_in == "adopt":
                def dead_restore(checkpoint):
                    raise OperatorCrash("died restoring the replacement")
                replacement.restore = dead_restore
            supervisor._adopt(replacement, savepoint)
            return replacement
        return supervisor.attempt(action)

    @pytest.mark.parametrize("die_in", ["savepoint", "adopt"])
    def test_crash_mid_action_recovers_the_old_executor(self, die_in):
        job = _job()
        supervisor = _supervisor(job)
        _advance_until_checkpoint(supervisor)
        old = supervisor.executor
        assert self._swap(supervisor, job, die_in=die_in) is None
        assert supervisor.executor is old
        assert supervisor.report.crashes == 1
        assert supervisor.report.full_restores == 1
        # the retry completes, and the run is still exactly-once
        assert self._swap(supervisor, job) is supervisor.executor
        assert supervisor.executor is not old
        report = _finish(supervisor)
        assert canonical_sinks(report.sink_values) == _golden(_job)

    def test_listeners_and_counts_survive_rebuild_and_adopt(self):
        job = _job()
        supervisor = _supervisor(job)
        committed = []
        supervisor.coordinator.listeners.append(
            lambda cid, sink, elements: committed.append(cid))
        _advance_until_checkpoint(supervisor)
        supervisor.coordinator.trigger()  # a pending cut to abandon
        supervisor.attempt(_raiser(CoordinatorDown("gone")))
        assert self._swap(supervisor, job) is not None
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
        supervisor = ScalingSupervisor(job, SchedulePolicy({}),
                                       injector=injector, parallelism=2)
        with pytest.raises(ChaosError, match="gave up"):
            supervisor.run()
        assert supervisor.report.data_failures == 5
