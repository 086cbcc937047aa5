"""Table-driven tests for the autoscaling decision layer.

Policies are pure functions of (signals, evals_since_change), so every
hysteresis band, cooldown window and min/max clamp is pinned by an
explicit table — no executor, no clock.  The Autoscaler bookkeeping
(counter deltas, cooldown reset, crash-rewind clamping) is tested against a bare MetricsRegistry, and one small end-to-end smoke
keeps the supervisor's happy path inside tier 1.
"""

import pytest

from repro.chaos import (
    canonical_sinks,
    fault_free_sinks,
    reference_events,
    reference_job,
)
from repro.streaming import (
    Autoscaler,
    OperatorSignals,
    SchedulePolicy,
    Supervisor,
    UtilizationTargetPolicy,
)
from repro.util.errors import ConfigError
from repro.util.metrics import MetricsRegistry


def sig(op="win", p=2, u=0.65, eval_index=0):
    return OperatorSignals(operator=op, parallelism=p, utilization=u,
                           eval_index=eval_index)


class TestUtilizationTargetPolicy:
    #: target 0.65 in the band [0.35, 0.85], widths 1..8, cooldown 2
    POLICY = UtilizationTargetPolicy(max_parallelism=8)

    # (parallelism, utilization, evals_since_change) -> expected target
    TABLE = [
        # inside the hysteresis band: hold at any width
        (1, 0.65, 9, 1),
        (4, 0.40, 9, 4),
        (4, 0.84, 9, 4),
        # above the high band: scale up toward target utilization
        (1, 0.90, 9, 2),       # ceil(1 * .90 / .65) = 2
        (2, 1.00, 9, 4),       # ceil(2 * 1.0 / .65) = 4
        (4, 0.90, 9, 6),       # ceil(4 * .90 / .65) = 6
        # max clamp: saturated at the ceiling stays put
        (8, 1.00, 9, 8),
        (6, 1.00, 9, 8),       # ceil(6/.65)=10 -> clamped to 8
        # below the low band: scale down toward target
        (4, 0.10, 9, 1),       # ceil(4 * .10 / .65) = 1
        (4, 0.30, 9, 2),       # ceil(4 * .30 / .65) = 2
        (2, 0.34, 9, 1),       # ceil(2 * .34 / .65) = 2, but must shrink
        # min clamp: idle at the floor stays put
        (1, 0.00, 9, 1),
        # cooldown: any excursion holds until the window passes
        (1, 0.99, 0, 1),
        (1, 0.99, 1, 1),
        (4, 0.01, 1, 4),
        (1, 0.99, 2, 2),       # window over: the decision fires
    ]

    @pytest.mark.parametrize("p,u,since,expected", TABLE)
    def test_table(self, p, u, since, expected):
        decision = self.POLICY.decide(sig(p=p, u=u), since)
        assert decision.target == expected
        assert decision.current == p
        assert decision.is_change == (expected != p)

    def test_steady_load_is_noop_forever(self):
        for step in range(50):
            decision = self.POLICY.decide(sig(p=4, u=0.65), step)
            assert not decision.is_change
            assert decision.reason in ("in-band", "cooldown")

    def test_validation(self):
        with pytest.raises(ConfigError):
            UtilizationTargetPolicy(max_parallelism=0)

    def test_nan_max_parallelism_is_refused(self):
        with pytest.raises(ConfigError):
            UtilizationTargetPolicy(max_parallelism=float("nan"))


class TestSchedulePolicy:
    def test_fires_only_at_scheduled_evals(self):
        policy = SchedulePolicy({3: {"win": 4}})
        assert not policy.decide(sig(eval_index=2), 0).is_change
        assert policy.decide(sig(eval_index=3), 0).target == 4
        assert not policy.decide(sig(eval_index=4), 0).is_change

    def test_ignores_other_operators_and_same_width(self):
        policy = SchedulePolicy({1: {"win": 2}})
        assert not policy.decide(sig(op="other", eval_index=1), 0).is_change
        assert not policy.decide(sig(p=2, eval_index=1), 0).is_change

    def test_validation(self):
        with pytest.raises(ConfigError):
            SchedulePolicy({0: {"win": 0}})


class TestAutoscalerBookkeeping:
    def _collect(self, scaler, registry, processed, cycles=2.0, backlog=0.0):
        registry.gauge("op.processed", op="win").set(processed)
        return scaler.collect(registry, {"win": 2}, ["win"],
                              cycles=cycles, backlog=backlog,
                              watermark_lag_s=0.0)

    @staticmethod
    def _scaler(policy):
        """An unbound autoscaler rated at 16 elements per cycle, the
        capacity a supervisor with ``source_batch=16`` gives it."""
        scaler = Autoscaler(policy)
        scaler.rated_capacity = 16.0
        return scaler

    def test_utilization_from_counter_deltas(self):
        registry = MetricsRegistry()
        scaler = self._scaler(UtilizationTargetPolicy())
        self._collect(scaler, registry, processed=0.0)
        signals = self._collect(scaler, registry, processed=64.0)
        # 64 elements / 2 cycles / (2 subtasks * 16 rated) = 1.0
        assert signals["win"].utilization == pytest.approx(1.0)

    def test_crash_rewind_clamps_to_zero(self):
        registry = MetricsRegistry()
        scaler = self._scaler(UtilizationTargetPolicy())
        self._collect(scaler, registry, processed=100.0)
        # a restore rewound the gauge below the previous reading
        signals = self._collect(scaler, registry, processed=40.0)
        assert signals["win"].utilization == 0.0

    def test_cooldown_resets_on_change_and_first_decision_allowed(self):
        registry = MetricsRegistry()
        policy = UtilizationTargetPolicy()
        assert policy.cooldown == 2
        scaler = self._scaler(policy)
        self._collect(scaler, registry, processed=0.0)
        # saturated: first evaluation may act (counter seeded to cooldown)
        targets = scaler.evaluate(self._collect(scaler, registry,
                                                processed=64.0))
        assert targets == {"win": 4}
        # immediately saturated again: cooldown holds
        targets = scaler.evaluate(self._collect(scaler, registry,
                                                processed=128.0))
        assert targets == {}
        assert any(d.reason == "cooldown" for d in scaler.decisions)


class TestSupervisorSmoke:
    """Tier-1 happy path: one live rescale, output equal to golden."""

    def test_scheduled_rescale_preserves_output(self):
        events = reference_events(seed=7, n=300)
        golden = canonical_sinks(fault_free_sinks(
            lambda: reference_job(reference_events(seed=7, n=300),
                                  splits=4),
            batch_mode=True, parallelism=1,
            source_batch=32))
        supervisor = Supervisor(
            reference_job(events, splits=4),
            controllers=[Autoscaler(SchedulePolicy({1: {"window_sum": 2}}))],
            parallelism=1, source_batch=32)
        report = supervisor.run()
        assert len(report.rescales) == 1
        assert report.rescales[0].old["window_sum"] == 1
        assert report.rescales[0].new["window_sum"] == 2
        assert canonical_sinks(report.sink_values) == golden
        # the rescale went through a real savepoint
        assert report.rescales[0].savepoint_id >= 1
        assert report.checkpoints >= 2

    def test_deterministic_trajectory(self):
        def once():
            events = reference_events(seed=9, n=300)
            supervisor = Supervisor(
                reference_job(events, splits=4),
                controllers=[Autoscaler(
                    SchedulePolicy({1: {"window_sum": 2}}))],
                parallelism=1, source_batch=32)
            report = supervisor.run()
            return (report.sink_values,
                    [(e.eval_index, e.savepoint_id, e.old, e.new)
                     for e in report.rescales])
        assert once() == once()


class TestGaugeRetirementOnRescale:
    """Regression: a scale-down must retire the removed clones' gauges.

    Before the fix, ``subtask.processed{op=window_sum[1]}`` survived a
    2→1 rescale at its last value, so any snapshot consumer averaging
    per-subtask throughput kept seeing a ghost subtask.
    """

    def test_scale_down_then_snapshot_has_no_ghost_subtasks(self):
        events = reference_events(seed=7, n=300)
        supervisor = Supervisor(
            reference_job(events, splits=4),
            controllers=[Autoscaler(SchedulePolicy({1: {"window_sum": 1}}))],
            parallelism=2, source_batch=32)
        report = supervisor.run()
        assert len(report.rescales) == 1
        assert report.rescales[0].old["window_sum"] == 2
        assert report.rescales[0].new["window_sum"] == 1
        snap = supervisor.metrics.snapshot()
        assert not any("window_sum[1]" in name for name in snap), \
            f"ghost subtask gauges survived the rescale: {sorted(snap)}"

    def test_scale_up_retires_nothing(self):
        events = reference_events(seed=7, n=300)
        supervisor = Supervisor(
            reference_job(events, splits=4),
            controllers=[Autoscaler(SchedulePolicy({1: {"window_sum": 2}}))],
            parallelism=1, source_batch=32)
        report = supervisor.run()
        assert report.rescales[0].new["window_sum"] == 2
        snap = supervisor.metrics.snapshot()
        assert any("window_sum[1]" in name for name in snap)
