"""Chaos-proven live rescaling: exactly-once at every rescale phase.

The elastic control plane's headline invariant: a supervisor crash at
ANY phase of the rescale state machine (decide / savepoint / recompile /
restore), a coordinator loss mid-savepoint, or any combination with
ordinary subtask crashes, must leave transactional-sink output exactly
equal to the fault-free fixed-parallelism run — the rescale either
completes on retry or rolls back to the last finalized checkpoint, but
committed output never forks.

Everything here runs on SimClock with seeded fault schedules, so each
case is exactly reproducible.  The suite is ``autoscale``-marked (one
smoke stays in tier 1 via test_autoscale_policy.py) and runs through
``make elasticity`` / ``tools/check_elasticity.py``.
"""

import pytest

from repro.chaos import (
    RESCALE_PHASES,
    SITE_COORDINATOR,
    SITE_OPERATOR,
    SITE_RESCALE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    canonical_sinks,
    fault_free_sinks,
    reference_events,
    reference_job,
)
from repro.streaming import Autoscaler, SchedulePolicy, Supervisor
from tests.chaos_plans import random_plan

MODES = (False, True)  # batch_mode: the per-item oracle, then batched
SOURCE_BATCH = 32
N_EVENTS = 400


def _build(seed=7, n=N_EVENTS):
    return reference_job(reference_events(seed=seed, n=n),
                         splits=4)


def _golden(seed=7, n=N_EVENTS, *, batch_mode=True):
    return canonical_sinks(fault_free_sinks(
        lambda: _build(seed, n), batch_mode=batch_mode,
        parallelism=1, source_batch=SOURCE_BATCH))


def _run(plan, schedule, *, seed=7, n=N_EVENTS, batch_mode=True,
         **kwargs):
    injector = FaultInjector(plan) if plan is not None else None
    supervisor = Supervisor(
        _build(seed, n), controllers=[Autoscaler(SchedulePolicy(schedule))],
        injector=injector, parallelism=1, batch_mode=batch_mode,
        source_batch=SOURCE_BATCH, **kwargs)
    report = supervisor.run()
    golden = _golden(seed, n, batch_mode=batch_mode)
    assert canonical_sinks(report.sink_values) == golden, (
        f"rescale chaos diverged (plan={plan.name if plan else 'none'}, "
        f"batch_mode={batch_mode})")
    return report


@pytest.mark.autoscale
class TestCrashAtEveryRescalePhase:
    """The four-phase sweep, across all execution modes."""

    @pytest.mark.parametrize("phase", RESCALE_PHASES)
    @pytest.mark.parametrize("batch_mode", MODES)
    def test_phase_crash_is_exactly_once(self, phase, batch_mode):
        plan = FaultPlan(specs=(
            FaultSpec("rescale_crash", SITE_RESCALE, at=0, target=phase),
        ), name=f"rescale-{phase}")
        report = _run(plan, {1: {"window_sum": 2}}, batch_mode=batch_mode)
        assert report.rescale_crashes == 1
        # liveness: the rescale still completes on retry
        assert len(report.rescales) == 1
        assert report.rescales[0].attempts == 2
        assert report.rescales[0].new["window_sum"] == 2

    def test_crash_at_two_phases_of_same_rescale(self):
        # attempt 1 dies in the savepoint, attempt 2 dies in the
        # restore (each spec is one-shot; ``at`` counts per-phase
        # entries), attempt 3 completes
        plan = FaultPlan(specs=(
            FaultSpec("rescale_crash", SITE_RESCALE, at=0,
                      target="savepoint"),
            FaultSpec("rescale_crash", SITE_RESCALE, at=0,
                      target="restore"),
        ), name="rescale-twice")
        report = _run(plan, {1: {"window_sum": 2}})
        assert report.rescale_crashes == 2
        assert len(report.rescales) == 1
        assert report.rescales[0].attempts == 3


@pytest.mark.autoscale
class TestCoordinatorLossMidSavepoint:
    def test_coordinator_crash_during_savepoint_assembly(self):
        # interval_cycles is large, so the only checkpoints are the
        # initial cut, the savepoints and the final one — the first
        # finalize the coordinator attempts IS the savepoint's, and
        # before_finalize kills it mid-assembly
        plan = FaultPlan(specs=(
            FaultSpec("coordinator_crash", SITE_COORDINATOR, at=0),
        ), name="coord-loss-savepoint")
        report = _run(plan, {1: {"window_sum": 2}}, interval_cycles=64)
        assert report.coordinator_crashes == 1
        assert report.aborted >= 1
        assert len(report.rescales) == 1

    def test_subtask_crash_between_rescales(self):
        plan = FaultPlan(specs=(
            FaultSpec("operator_crash", SITE_OPERATOR, at=60,
                      target="window_sum"),
        ), name="crash-between")
        report = _run(plan, {1: {"window_sum": 2}, 4: {"window_sum": 4}})
        assert report.crashes >= 1
        assert len(report.rescales) >= 1


@pytest.mark.autoscale
class TestParallelismTransitions:
    """Every 1<->2<->4 transition, with a phase crash mid-flight."""

    TRANSITIONS = [
        (1, 2), (2, 1), (2, 4), (4, 2), (1, 4), (4, 1),
    ]

    @pytest.mark.parametrize("old_p,new_p", TRANSITIONS)
    def test_transition_with_restore_crash(self, old_p, new_p):
        # reach old_p via a fault-free rescale (when old_p > 1), then
        # crash the old_p -> new_p rescale mid-restore; the retry must
        # still land on new_p with output untouched
        schedule = {}
        rescales = 0
        if old_p > 1:
            schedule[1] = {"window_sum": old_p}
            rescales += 1
        schedule[1 + rescales] = {"window_sum": new_p}
        plan = FaultPlan(specs=(
            FaultSpec("rescale_crash", SITE_RESCALE, at=rescales,
                      target="restore"),
        ), name=f"transition-{old_p}-{new_p}")
        report = _run(plan, schedule, n=800)
        widths = [e.new["window_sum"] for e in report.rescales]
        assert widths and widths[-1] == new_p, widths
        assert report.rescale_crashes >= 1

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rescale_crash_schedules(self, seed):
        plan = random_plan(
            seed + 1500, horizon=60, operators=("window_sum", "double"),
            crashes=1, torn_appends=0, unavailable_windows=0,
            duplicate_deliveries=0, task_timeouts=0, rescale_crashes=2,
            name=f"rescale-random-{seed}")
        report = _run(plan, {1: {"window_sum": 2}, 3: {"window_sum": 4}},
                      seed=seed % 3)
        assert report.trace, "schedule never fired"


@pytest.mark.autoscale
class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        def once():
            plan = FaultPlan(specs=(
                FaultSpec("rescale_crash", SITE_RESCALE, at=0,
                          target="recompile"),
                FaultSpec("operator_crash", SITE_OPERATOR, at=50,
                          target="window_sum"),
            ), name="determinism")
            supervisor = Supervisor(
                _build(11), controllers=[Autoscaler(
                    SchedulePolicy({1: {"window_sum": 2}}))],
                injector=FaultInjector(plan), parallelism=1,
                source_batch=SOURCE_BATCH)
            report = supervisor.run()
            return (report.sink_values,
                    [(e.eval_index, e.savepoint_id, e.old, e.new,
                      e.replayed, e.attempts) for e in report.rescales],
                    report.checkpoints, report.replayed_total,
                    [t for t in report.trace])
        assert once() == once()

    def test_replay_is_bounded_by_savepoint_interval(self):
        # replay across a rescale can never exceed what arrived since
        # the last finalized cut: the savepoint is fresh by construction
        report = _run(None, {1: {"window_sum": 2}}, interval_cycles=4)
        for event in report.rescales:
            assert event.replayed <= 4 * SOURCE_BATCH * 4  # cycles*batch*splits
