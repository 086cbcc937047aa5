"""Fault plans and the injector's counting/firing semantics."""

import pytest

from repro.chaos import (
    SITE_APPEND,
    SITE_FETCH,
    SITE_OFFLOAD,
    SITE_OPERATOR,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.streaming.element import Element
from repro.streaming.operators import MapOperator
from repro.util.errors import ChaosError, OperatorCrash, TaskTimeout
from tests.chaos_plans import random_plan


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ChaosError):
            FaultSpec("meteor_strike", SITE_OPERATOR, at=0)

    def test_kind_site_mismatch_rejected(self):
        with pytest.raises(ChaosError):
            FaultSpec("operator_crash", SITE_APPEND, at=0)
        with pytest.raises(ChaosError):
            FaultSpec("duplicate_delivery", SITE_APPEND, at=0)

    def test_negative_at_and_zero_count_rejected(self):
        with pytest.raises(ChaosError):
            FaultSpec("torn_append", SITE_APPEND, at=-1)
        with pytest.raises(ChaosError):
            FaultSpec("partition_unavailable", SITE_APPEND, at=0, count=0)

    def test_broker_down_needs_broker_id(self):
        with pytest.raises(ChaosError):
            FaultSpec("broker_down", SITE_APPEND, at=0)
        spec = FaultSpec("broker_down", SITE_APPEND, at=2, count=3, param=1)
        assert spec.end == 5

    def test_one_shot_classification(self):
        assert FaultSpec("operator_crash", SITE_OPERATOR, at=0).one_shot()
        assert FaultSpec("torn_append", SITE_APPEND, at=0).one_shot()
        assert not FaultSpec("partition_unavailable", SITE_APPEND,
                             at=0).one_shot()


class TestFaultPlanRandom:
    def test_same_seed_same_plan(self):
        kwargs = dict(horizon=100, operators=("a", "b"),
                      tiers=("edge", "cloud"), brokers=(0, 1),
                      crashes=3, broker_outages=1, tier_dropouts=1)
        assert (random_plan(7, **kwargs).specs
                == random_plan(7, **kwargs).specs)

    def test_different_seed_different_plan(self):
        kwargs = dict(horizon=100, operators=("a", "b"), crashes=3)
        assert (random_plan(1, **kwargs).specs
                != random_plan(2, **kwargs).specs)

    def test_empty_pools_skip_categories(self):
        plan = random_plan(0, horizon=50, crashes=5, broker_outages=5,
                                tier_dropouts=5)
        kinds = {s.kind for s in plan.specs}
        assert "operator_crash" not in kinds  # no operators given
        assert "broker_down" not in kinds  # no brokers given
        assert "tier_dropout" not in kinds  # no tiers given
        assert "torn_append" in kinds

    def test_horizon_bounds_every_at(self):
        plan = random_plan(9, horizon=30, operators=("x",), crashes=4)
        assert all(0 <= s.at < 30 for s in plan.specs)

    def test_bad_horizon(self):
        with pytest.raises(ChaosError):
            random_plan(0, horizon=0)


def _op(name="m"):
    return MapOperator(name=name, fn=lambda v: v)


def _items(n):
    return [Element(value=i, timestamp=float(i)) for i in range(n)]


class TestInjectorCounting:
    def test_counters_advance_per_item(self):
        injector = FaultInjector(FaultPlan(specs=()))
        op = _op()
        injector.intercept_batch(op, _items(5), op.process_batch)
        assert injector.count(SITE_OPERATOR, "m") == 5
        injector.before_item(op)
        assert injector.count(SITE_OPERATOR, "m") == 6

    def test_crash_fires_at_scheduled_index_and_disarms(self):
        plan = FaultPlan(specs=(
            FaultSpec("operator_crash", SITE_OPERATOR, at=7, target="m"),))
        injector = FaultInjector(plan)
        op = _op()
        processed = []
        with pytest.raises(OperatorCrash):
            injector.intercept_batch(op, _items(10),
                                     lambda batch: processed.extend(batch))
        # Prefix [0, 7) ran for real; the counter stands at the crash.
        assert len(processed) == 7
        assert injector.count(SITE_OPERATOR, "m") == 7
        # One-shot: replaying the same items does not re-fire.
        out = injector.intercept_batch(op, _items(10), op.process_batch)
        assert len(out) == 10
        assert [e.as_tuple()[:4] for e in injector.trace] == [
            ("operator_crash", SITE_OPERATOR, "m", 7)]

    def test_per_item_mode_fires_at_same_index(self):
        plan = FaultPlan(specs=(
            FaultSpec("operator_crash", SITE_OPERATOR, at=3, target="m"),))
        injector = FaultInjector(plan)
        op = _op()
        fired_at = None
        for i in range(10):
            try:
                injector.before_item(op)
            except OperatorCrash:
                fired_at = i
                break
        assert fired_at == 3

    def test_untargeted_crash_matches_any_operator(self):
        plan = FaultPlan(specs=(
            FaultSpec("operator_crash", SITE_OPERATOR, at=0),))
        injector = FaultInjector(plan)
        with pytest.raises(OperatorCrash):
            injector.before_item(_op("whatever"))

    def test_window_kind_fires_across_whole_window(self):
        plan = FaultPlan(specs=(
            FaultSpec("task_timeout", SITE_OFFLOAD, at=1, count=2,
                      target="edge"),))
        injector = FaultInjector(plan)
        injector.before_offload("p", "edge")  # occurrence 0: passes
        for _ in range(2):  # occurrences 1, 2: inside the window
            with pytest.raises(TaskTimeout):
                injector.before_offload("p", "edge")
        injector.before_offload("p", "edge")  # occurrence 3: past it

    def test_trace_reproducibility_same_plan(self):
        def run():
            plan = FaultPlan(specs=(
                FaultSpec("operator_crash", SITE_OPERATOR, at=4,
                          target="m"),
                FaultSpec("task_timeout", SITE_OFFLOAD, at=1),))
            injector = FaultInjector(plan)
            op = _op()
            try:
                injector.intercept_batch(op, _items(8), op.process_batch)
            except OperatorCrash:
                pass
            for _ in range(3):
                try:
                    injector.before_offload("p", "edge")
                except TaskTimeout:
                    pass
            return injector.trace_tuples()

        assert run() == run()

    def test_fetch_duplicate_returns_rewind_depth(self):
        plan = FaultPlan(specs=(
            FaultSpec("duplicate_delivery", SITE_FETCH, at=1, param=3),))
        injector = FaultInjector(plan)
        assert injector.before_fetch("t", 0) == 0
        assert injector.before_fetch("t", 0) == 3
