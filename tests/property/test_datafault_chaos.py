"""Data-fault chaos: DLQ exactly-once, integrity fallback, budgets.

The invariant this suite sweeps: with per-operator error policies
declared, the *committed* sink plus the *committed* dead-letter queue
under a schedule of data faults (poisoned UDF calls, corrupted values
and timestamps) must not move when operator crashes, coordinator
crashes and checkpoint rot are layered on top — and a rerun of the
same seeded schedule must be bit-identical.  Data-fault counters are
part of the checkpoint cut, so replay re-poisons exactly the records
it poisoned before.

Comparisons go through ``repr`` because corrupted records legitimately
carry NaN (``nan != nan`` would fail identical lists).

Everything here is ``datafault``-marked and runs via ``make datafault``
(the gate in ``tools/check_robustness.py --datafault`` runs this suite
first); tier-1 coverage of the same machinery lives in
``tests/unit/test_error_policies.py`` and
``tests/unit/test_checkpoint_integrity.py``.
"""

import pytest

from repro.chaos import (
    SITE_CHECKPOINT,
    SITE_DATA,
    SITE_OPERATOR,
    SITE_RESCALE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    canonical_sinks,
    fault_free_sinks,
    reference_events,
    reference_job,
    run_coordinated,
)
from repro.streaming import (
    DEAD_LETTER,
    DLQ_SINK,
    Autoscaler,
    Element,
    JobBuilder,
    RestartBudget,
    SchedulePolicy,
    Supervisor,
)
from repro.streaming import supervisor as supervisor_module
from repro.util.errors import ChaosError, RestartsExhausted
from tests.chaos_plans import random_plan

pytestmark = pytest.mark.datafault

MODES = (False, True)  # batch_mode: the per-item oracle, then batched

#: operators carrying a DEAD_LETTER policy — the only valid targets for
#: *persistent* data faults (an unguarded persistent fault refires on
#: every replay and is the restart-budget scenario, tested separately)
GUARDED = ("double", "drop_tiny")


def guarded_job(seed, n=200, splits=None):
    job = reference_job(reference_events(seed=seed, n=n), splits=splits)
    for op in GUARDED:
        job.error_policies[op] = DEAD_LETTER
    return job


def rrepr(sink_values):
    return {name: [repr(v) for v in values]
            for name, values in sink_values.items()}


def random_data_plan(seed, *, crashes=0, coordinator_crashes=0,
                     checkpoint_corruptions=0, name="datafault"):
    """A seeded mix of data faults on guarded operators plus optional
    infrastructure faults on the whole reference plan."""
    data = random_plan(
        seed, horizon=150, operators=GUARDED, crashes=0,
        torn_appends=0, unavailable_windows=0, duplicate_deliveries=0,
        task_timeouts=0, data_faults=3, name=f"{name}-data")
    infra = random_plan(
        seed + 1, horizon=150,
        operators=("double", "window_sum", "by_key"),
        crashes=crashes, torn_appends=0, unavailable_windows=0,
        duplicate_deliveries=0, task_timeouts=0,
        coordinator_crashes=coordinator_crashes,
        checkpoint_corruptions=checkpoint_corruptions,
        name=f"{name}-infra")
    return data, FaultPlan(specs=data.specs + infra.specs, seed=seed,
                           name=name)


class TestDlqInvariantAllModes:
    """Width 1: data faults x crashes in every execution mode."""

    @pytest.mark.parametrize("seed", range(4))
    def test_crashes_do_not_move_sink_or_dlq(self, seed):
        data, layered = random_data_plan(seed + 4300, crashes=2)
        for batch_mode in MODES:
            def once(plan):
                report = run_coordinated(
                    guarded_job(seed % 3), FaultInjector(plan),
                    batch_mode=batch_mode)
                return rrepr(report.sink_values), report
            golden, _ = once(data)
            chaosed, report = once(layered)
            rerun, _ = once(layered)
            assert report.crashes >= 1, layered.name
            assert chaosed == golden, (seed, batch_mode)
            assert rerun == chaosed, (seed, batch_mode)

    def test_modes_agree_on_committed_dlq(self):
        data, _ = random_data_plan(4400)
        per_item, batched = [rrepr(run_coordinated(
                                 guarded_job(1), FaultInjector(data),
                                 batch_mode=bm).sink_values)
                             for bm in MODES]
        assert batched == per_item


class TestDlqInvariantCoordinated:
    """Parallel execution: per-clone fault windows, 2PC DLQ epochs."""

    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_layered_faults_at_parallelism(self, parallelism):
        data, layered = random_data_plan(
            4500 + parallelism, crashes=1, coordinator_crashes=1)

        def once(plan):
            report = run_coordinated(
                guarded_job(2), FaultInjector(plan),
                parallelism=parallelism, interval_cycles=2)
            return rrepr(report.sink_values), report

        golden, _ = once(data)
        chaosed, report = once(layered)
        rerun, _ = once(layered)
        assert report.crashes + report.coordinator_crashes >= 1
        assert chaosed == golden, parallelism
        assert rerun == chaosed, parallelism

    @pytest.mark.parametrize("seed", range(3))
    def test_random_composition_with_checkpoint_rot(self, seed):
        # the full stack at once: data faults + crash + coordinator
        # crash + storage rot on committed checkpoints
        data, layered = random_data_plan(
            4600 + seed, crashes=1, coordinator_crashes=1,
            checkpoint_corruptions=1, name=f"composed-{seed}")
        golden = rrepr(run_coordinated(
            guarded_job(seed), FaultInjector(data),
            parallelism=2, interval_cycles=1,
            source_batch=16).sink_values)
        report = run_coordinated(
            guarded_job(seed), FaultInjector(layered),
            parallelism=2, interval_cycles=1, source_batch=16)
        assert rrepr(report.sink_values) == golden, seed


class TestDlqAccounting:
    """Pass-through pipeline: sink + DLQ partition the input exactly."""

    @pytest.mark.parametrize("seed", range(3))
    def test_partition_invariant(self, seed):
        def build():
            events = [Element({"k": i % 4, "v": float(i)},
                              timestamp=float(i) * 0.25)
                      for i in range(300)]
            builder = JobBuilder("accounting")
            (builder.source("events", events)
                    .map(lambda v: v, name="ident")
                    .on_error(DEAD_LETTER)
                    .sink("out"))
            return builder.build()

        golden = fault_free_sinks(build)
        # only udf_exception partitions: it dead-letters the *intact*
        # record, while corrupt_value destroys the original before the
        # policy ever sees it
        plan = FaultPlan(specs=(
            FaultSpec("udf_exception", SITE_DATA, at=17 + seed * 31,
                      count=4, target="ident"),
            FaultSpec("udf_exception", SITE_DATA, at=100 + seed * 20,
                      count=2, target="ident"),
            FaultSpec("operator_crash", SITE_OPERATOR, at=140,
                      target="ident"),
        ), seed=seed, name=f"accounting-{seed}")
        report = run_coordinated(build(), FaultInjector(plan))
        sink = report.sink_values["out"]
        dlq = report.sink_values[DLQ_SINK]
        assert len(dlq) == 6
        union = sorted([repr(v) for v in sink]
                       + [repr(d.value) for d in dlq])
        assert union == sorted(repr(v) for v in golden["out"])
        assert len(sink) + len(dlq) == len(golden["out"])

    def test_corrupt_timestamp_drops_late_not_dead(self):
        # a backwards timestamp leaves the value intact: the map
        # succeeds, the window late-drops the record — accounting by
        # omission, not by dead letter
        plan = FaultPlan(specs=(
            FaultSpec("corrupt_timestamp", SITE_DATA, at=120, count=2,
                      param="backwards", target="double"),
        ), seed=9, name="late-ts")
        report = run_coordinated(guarded_job(1), FaultInjector(plan))
        golden = fault_free_sinks(lambda: guarded_job(1))
        assert DLQ_SINK not in report.sink_values \
            or len(report.sink_values[DLQ_SINK]) == 0
        assert len(report.sink_values["out"]) <= len(golden["out"])


class TestCheckpointIntegrityUnderChaos:
    @pytest.mark.parametrize("mode", ["payload", "manifest"])
    def test_rotten_newest_falls_back_exactly_once(self, mode):
        from repro.streaming.coordinator import CheckpointStore

        golden = run_coordinated(guarded_job(3), None, parallelism=2,
                                 interval_cycles=1, source_batch=16)
        plan = FaultPlan(specs=(
            FaultSpec("checkpoint_corruption", SITE_CHECKPOINT, at=2,
                      count=1000, param=mode),
            FaultSpec("operator_crash", SITE_OPERATOR, at=110,
                      target="window_sum"),
        ), seed=3, name=f"rot-{mode}")
        store = CheckpointStore(keep=100)
        report = run_coordinated(guarded_job(3), FaultInjector(plan),
                                 parallelism=2, interval_cycles=1,
                                 source_batch=16, store=store)
        assert rrepr(report.sink_values) == rrepr(golden.sink_values)
        assert report.integrity_failures >= 1
        assert store.quarantined


class TestRestartBudget:
    def _poison(self, seed):
        plan = FaultPlan(specs=(
            FaultSpec("udf_exception", SITE_DATA, at=40, count=1,
                      target="double"),
        ), seed=seed, name="poison")
        # no error policy: the persistent fault refires on every replay
        return reference_job(reference_events(seed=seed, n=200)), plan

    @pytest.mark.parametrize("parallelism,seed", [(1, 5), (2, 6)])
    @pytest.mark.parametrize("reason,limits", [
        ("flapping", dict(max_restarts=50, flap_threshold=3)),
        ("budget", dict(max_restarts=3, flap_threshold=0)),
    ])
    def test_poisoned_job_goes_terminal(self, reason, limits, parallelism,
                                        seed):
        job, plan = self._poison(seed)
        with pytest.raises(RestartsExhausted) as info:
            run_coordinated(job, FaultInjector(plan),
                            parallelism=parallelism, interval_cycles=2,
                            restart_budget=RestartBudget(seed=seed,
                                                         **limits))
        assert info.value.reason == reason
        if reason == "budget":
            assert info.value.restarts == 3

    def test_budget_does_not_fire_on_transient_faults(self):
        # a guarded job dead-letters the poison: the budget sees only
        # the layered crash, recovers once, and the run completes
        data, layered = random_data_plan(4700, crashes=1)
        report = run_coordinated(
            guarded_job(0), FaultInjector(layered),
            restart_budget=RestartBudget(max_restarts=10,
                                         flap_threshold=3, seed=7))
        golden = rrepr(run_coordinated(
            guarded_job(0), FaultInjector(data)).sink_values)
        assert rrepr(report.sink_values) == golden

    @pytest.mark.parametrize("entry", ["coordinated", "autoscaled"])
    def test_unbudgeted_poison_ends_in_a_diagnostic(self, entry,
                                                    monkeypatch):
        # no RestartBudget: the shared MAX_FAILURES bound is the
        # backstop, and the poison never escapes as a raw DataFaultError
        monkeypatch.setattr(supervisor_module, "MAX_FAILURES", 6)
        job, plan = self._poison(6)
        with pytest.raises(ChaosError, match="gave up after 7 failures"):
            if entry == "coordinated":
                run_coordinated(job, FaultInjector(plan), parallelism=2)
            else:
                Supervisor(job, controllers=[Autoscaler(SchedulePolicy({}))],
                           injector=FaultInjector(plan), parallelism=2).run()


class TestDlqInvariantAutoscaled:
    """The rescale action shares the coordinated ladder, so the DLQ
    invariant holds across a live rescale that chaos interrupts."""

    def test_rescale_and_crashes_do_not_move_sink_or_dlq(self):
        data = (FaultSpec("udf_exception", SITE_DATA, at=40, count=2,
                          target="double"),)
        infra = (FaultSpec("rescale_crash", SITE_RESCALE, at=0,
                           target="restore"),
                 FaultSpec("operator_crash", SITE_OPERATOR, at=90,
                           target="window_sum"))

        def autoscaled(specs):
            report = Supervisor(
                guarded_job(2, splits=4),
                controllers=[Autoscaler(
                    SchedulePolicy({1: {"window_sum": 2}}))],
                injector=FaultInjector(FaultPlan(specs=specs, seed=1,
                                                 name="autoscale-dlq")),
                parallelism=1, source_batch=32).run()
            assert len(report.rescales) == 1
            return report

        golden = rrepr(canonical_sinks(run_coordinated(
            guarded_job(2, splits=4),
            FaultInjector(FaultPlan(specs=data, seed=1, name="dlq")),
            parallelism=1, source_batch=32).sink_values))
        assert len(golden[DLQ_SINK]) == 2
        clean, chaosed = autoscaled(data), autoscaled(data + infra)
        assert chaosed.rescale_crashes == 1 and chaosed.crashes == 2
        assert chaosed.data_failures == 0  # dead-lettered, not escalated
        assert rrepr(canonical_sinks(clean.sink_values)) == golden
        assert rrepr(canonical_sinks(chaosed.sink_values)) == golden

