"""Per-operator error policies: declaration, guards, DLQ routing.

Tier-1 coverage for :mod:`repro.streaming.errors` — policy validation,
the per-item and batch guards, dead-letter provenance, chained
enforcement, and the restart budget's escalation arithmetic.  The
chaos-composition invariants live in the ``datafault``-marked suite.
"""

from __future__ import annotations

import pytest

from repro.streaming import (
    DEAD_LETTER,
    DLQ_SINK,
    FAIL,
    RETRY,
    SKIP,
    DeadLetter,
    Element,
    ErrorPolicy,
    JobBuilder,
    ParallelExecutor,
    RestartBudget,
)
from repro.streaming.errors import guard_batch, guard_item
from repro.streaming.operators import MapOperator
from repro.util.errors import (
    ConfigError,
    JobGraphError,
    OperatorCrash,
    RestartsExhausted,
)


def events(n=20):
    return [Element({"i": i, "v": float(i)}, timestamp=float(i))
            for i in range(n)]


def boom_on(bad):
    def fn(v):
        if v["i"] in bad:
            raise ValueError(f"poisoned {v['i']}")
        return {"i": v["i"], "v": v["v"] * 2.0}
    return fn


def build(policy, bad=(3, 7), n=20, fused=False, fn=None):
    """``fused`` gives the guarded map a chainable neighbour, so a
    batched plan enforces the policy inside a chain; ``policy=None``
    declares nothing."""
    builder = JobBuilder("policies")
    stream = builder.source("events", events(n)).map(fn or boom_on(bad),
                                                     name="double")
    if policy is not None:
        stream = stream.on_error(policy)
    if fused:
        stream = stream.map(lambda v: v, name="after")
    stream.sink("out")
    return builder.build()


# -- policy objects and graph declaration ------------------------------------


def test_policy_validation():
    with pytest.raises(ConfigError):
        ErrorPolicy("explode")
    with pytest.raises(ConfigError):
        ErrorPolicy("retry")  # needs attempts >= 1
    with pytest.raises(ConfigError):
        ErrorPolicy("skip", attempts=2)
    assert not RETRY(2).can_dead_letter
    assert DEAD_LETTER.can_dead_letter
    assert not SKIP.can_dead_letter and not FAIL.can_dead_letter


def test_on_error_declares_policy():
    job = build(SKIP)
    assert job.error_policies == {"double": SKIP}
    assert not job.needs_dead_letters
    assert build(DEAD_LETTER).needs_dead_letters


def test_on_error_rejects_unknown_operator():
    builder = JobBuilder("bad")
    builder.source("events", events()).map(lambda v: v, name="m").sink("out")
    builder.on_error("nope", SKIP)
    with pytest.raises(JobGraphError):
        builder.build()


def test_dlq_sink_name_reserved():
    builder = JobBuilder("bad")
    with pytest.raises(JobGraphError):
        builder.source("events", events()).map(lambda v: v).sink(DLQ_SINK)


# -- executor enforcement, all modes -----------------------------------------


#: (batch_mode, fused): per-item, batched on a lone operator, batched
#: with the operator inside a chain
MODES = [(False, False), (True, False), (True, True)]


@pytest.mark.parametrize("batch_mode,fused", MODES)
def test_fail_is_default(batch_mode, fused):
    with pytest.raises(ValueError):
        ParallelExecutor(build(None, bad={3}, fused=fused),
                         batch_mode=batch_mode).run()


@pytest.mark.parametrize("batch_mode,fused", MODES)
def test_skip_drops_only_poisoned(batch_mode, fused):
    sinks = ParallelExecutor(build(SKIP, fused=fused),
                             batch_mode=batch_mode).run()
    assert [v["i"] for v in sinks["out"].values] \
        == [i for i in range(20) if i not in (3, 7)]


@pytest.mark.parametrize("batch_mode,fused", MODES)
def test_dead_letter_routes_to_dlq(batch_mode, fused):
    sinks = ParallelExecutor(build(DEAD_LETTER, fused=fused),
                             batch_mode=batch_mode).run()
    assert [v["i"] for v in sinks["out"].values] \
        == [i for i in range(20) if i not in (3, 7)]
    letters = sinks[DLQ_SINK].values
    assert [dl.value["i"] for dl in letters] == [3, 7]
    for dl in letters:
        assert isinstance(dl, DeadLetter)
        assert dl.operator == "double"
        assert dl.error_type == "ValueError"
        assert dl.fault == "error"


@pytest.mark.parametrize("batch_mode,fused", MODES)
def test_retry_escalates_after_attempts(batch_mode, fused):
    calls = {}

    def flaky(v):
        calls[v["i"]] = calls.get(v["i"], 0) + 1
        if v["i"] == 5:
            raise ValueError("always")
        return v

    job = build(RETRY(2), n=10, fused=fused, fn=flaky)
    with pytest.raises(ValueError):
        ParallelExecutor(job, batch_mode=batch_mode).run()
    # Per-item: first try + 2 retries, then fail.  Batch mode adds one
    # more call: the failed vectorized pass, rolled back before per-item
    # replay.
    assert calls[5] == (4 if batch_mode else 3)


@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_parallel_executor_enforces_policies(parallelism):
    sinks = ParallelExecutor(build(DEAD_LETTER), parallelism).run()
    assert sorted(v["i"] for v in sinks["out"].values) \
        == [i for i in range(20) if i not in (3, 7)]
    assert sorted(dl.value["i"] for dl in sinks[DLQ_SINK].values) == [3, 7]


def test_modes_agree_on_dlq_contents():
    runs = [ParallelExecutor(build(DEAD_LETTER, fused=fused),
                             batch_mode=bm).run()
            for bm, fused in MODES]
    baseline = [(dl.value["i"], dl.operator, dl.error_type)
                for dl in runs[0][DLQ_SINK].values]
    for sinks in runs[1:]:
        assert [(dl.value["i"], dl.operator, dl.error_type)
                for dl in sinks[DLQ_SINK].values] == baseline


class _PoisonAtFlush(MapOperator):
    """A chainable map that emits one record at end of stream."""

    def flush(self):
        return [Element("poison", 99.0)]


@pytest.mark.parametrize("batch_mode", [False, True])
def test_records_emitted_at_flush_meet_the_downstream_policy(batch_mode):
    builder = JobBuilder("flush")
    (builder.source("s", [Element(float(i), float(i)) for i in range(5)])
            .apply(_PoisonAtFlush("tail", lambda v: v))
            .map(lambda v: v + 1, name="inc").on_error(DEAD_LETTER)
            .sink("out"))
    executor = ParallelExecutor(builder.build(), batch_mode=batch_mode)
    sinks = executor.run()
    # batched, the flush cascades inside the fused chain tail+inc
    assert [n.members for n in executor.graph.nodes.values()] == (
        [["tail", "inc"]] if batch_mode else [["tail"], ["inc"]])
    assert sinks["out"].values == [1.0, 2.0, 3.0, 4.0, 5.0]
    [letter] = sinks[DLQ_SINK].values
    assert (letter.value, letter.operator, letter.error_type) \
        == ("poison", "inc", "TypeError")


def test_no_dlq_sink_without_dead_letter_policy():
    assert DLQ_SINK not in ParallelExecutor(build(SKIP)).run()
    assert DLQ_SINK in ParallelExecutor(build(DEAD_LETTER)).run()


# -- the guards directly -----------------------------------------------------


def test_guard_item_skip_and_dead_letter():
    op = MapOperator("m", boom_on({1}))
    dead = []
    ok = guard_item(op, Element({"i": 0, "v": 0.0}, 0.0), SKIP, dead)
    assert len(ok) == 1 and not dead
    out = guard_item(op, Element({"i": 1, "v": 1.0}, 1.0), SKIP, dead)
    assert out == [] and not dead
    out = guard_item(op, Element({"i": 1, "v": 1.0}, 1.0), DEAD_LETTER, dead)
    assert out == [] and len(dead) == 1
    assert dead[0].value.value["i"] == 1


def test_guard_batch_rolls_back_state_on_replay():
    class Counting(MapOperator):
        def __init__(self):
            super().__init__("c", boom_on({2}))
            self.seen = 0

        def process(self, element):
            self.seen += 1
            return super().process(element)

        def snapshot(self):
            return self.seen

        def restore(self, scalars, primary=True, exact=True):
            self.seen = scalars[0] or 0

    op = Counting()
    dead = []
    items = [Element({"i": i, "v": 0.0}, float(i)) for i in range(4)]
    out = guard_batch(op, items, DEAD_LETTER, op.process_batch, dead)
    # The failed vectorized pass was rolled back before per-item replay,
    # and the poisoned record's own partial state was rolled back too:
    # only the three surviving records leave a mark.
    assert op.seen == 3
    assert [e.value["i"] for e in out] == [0, 1, 3]
    assert [dl.value.value["i"] for dl in dead] == [2]


def test_guards_never_swallow_infrastructure_faults():
    def dies(v):
        raise OperatorCrash("injected", op_name="m")

    op = MapOperator("m", dies)
    with pytest.raises(OperatorCrash):
        guard_item(op, Element({"i": 0}, 0.0), SKIP, [])
    with pytest.raises(OperatorCrash):
        guard_batch(op, [Element({"i": 0}, 0.0)], SKIP,
                    op.process_batch, [])


# -- restart budget ----------------------------------------------------------


def test_restart_budget_exhaustion():
    budget = RestartBudget(max_restarts=2)
    assert [budget.on_failure(ValueError("x")) for _ in range(2)] \
        == PINNED_DELAYS[0][:2]
    with pytest.raises(RestartsExhausted) as info:
        budget.on_failure(ValueError("x"))
    assert info.value.reason == "budget"
    assert info.value.restarts == 2


def test_restart_budget_flapping():
    budget = RestartBudget(max_restarts=100, flap_threshold=3)
    budget.on_failure(ValueError("x"), made_progress=False)
    budget.on_failure(ValueError("x"), made_progress=True)  # resets streak
    budget.on_failure(ValueError("x"), made_progress=False)
    budget.on_failure(ValueError("x"), made_progress=False)
    with pytest.raises(RestartsExhausted) as info:
        budget.on_failure(ValueError("x"), made_progress=False)
    assert info.value.reason == "flapping"


def test_restart_budget_backoff_is_seeded_and_capped():
    def total(seed):
        budget = RestartBudget(max_restarts=8, seed=seed)
        for _ in range(8):
            budget.on_failure(ValueError("x"))
        return budget.total_backoff_s

    assert total(1) == total(1)
    assert total(1) != total(2)
    # 0.25 s doubling reaches the 30 s cap at the eighth restart; past
    # it only the +-10 % jitter moves a delay
    budget = RestartBudget(max_restarts=12)
    delays = [budget.on_failure(ValueError("x")) for _ in range(12)]
    assert all(27.0 <= d <= 33.0 for d in delays[8:])
    assert max(delays) <= 33.0


#: the first eight default-budget delays per seed, as recorded before the
#: budget took its formula from ``RetryPolicy.delay`` — bit-identical
PINNED_DELAYS = {
    0: [0.2350768273390897, 0.5427098194143201, 0.9454163148716139,
        2.0050769436483735, 3.7077601723796043, 8.092093503819488,
        15.681486938650341, 30.595510157546908],
    1: [0.2317068836382062, 0.45543948700539755, 0.9121371053751453,
        1.8011086143337236, 4.268033048901451, 8.552098277497901,
        14.547677013148464, 29.220673308799004],
}


@pytest.mark.parametrize("seed", sorted(PINNED_DELAYS))
def test_restart_budget_delays_are_pinned(seed):
    budget = RestartBudget(max_restarts=8, seed=seed)
    assert [budget.on_failure(ValueError("x")) for _ in range(8)] \
        == PINNED_DELAYS[seed]


def test_restart_budget_checks_its_backoff_arguments():
    for kwargs in ({"flap_threshold": -1}, {"max_restarts": -1}):
        with pytest.raises(ConfigError):
            RestartBudget(**kwargs)
