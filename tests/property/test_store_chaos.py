"""Tiered-store chaos suite: exactly-once serving state under crashes.

The property (satellite #4, proving the tentpole's epoch protocol): a
job streaming a topic into the tiered store through a
:class:`~repro.store.StoreSink` is killed mid-**stage**, mid-**apply**
(the commit listener's install step), right **after the install** (the
``compact`` site), inside an
operator, and inside the coordinator's commit — at parallelism 1, 2 and
4 — and after recovery the hot-store contents (every key, every
version, every timestamp) and the analytical tier's row count are
**bit-identical** to the fault-free run.  A lost delta would drop rows;
a double-applied delta would duplicate versions; either breaks the
canonical comparison.

Marked ``store``: run via ``make store`` / ``tools/check_store.py``,
excluded from tier 1.  Two fixed-schedule smokes in
``tests/unit/test_store_sink.py`` keep the seam covered in tier 1.
"""

import pytest

from repro.chaos import (
    SITE_COORDINATOR,
    SITE_OPERATOR,
    SITE_STORE,
    STORE_PHASES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.eventlog import LogCluster, Producer, TopicConfig
from repro.store import TieredStore, canonical_contents, serve_topic
from repro.util.rng import make_rng
from tests.chaos_plans import random_plan

pytestmark = pytest.mark.store

N_RECORDS = 300
KEYS = 7


def _cluster(topic: str, seed: int = 17) -> LogCluster:
    cluster = LogCluster(num_brokers=1)
    cluster.create_topic(TopicConfig(name=topic, partitions=2))
    producer = Producer(cluster)
    rng = make_rng(seed)
    for i in range(N_RECORDS):
        producer.send(topic, {"m": float(rng.uniform(0, 100)),
                              "u": f"u-{i % KEYS}", "i": i},
                      key=f"u-{i % KEYS}", timestamp=float(i))
    return cluster


def _run(plan: FaultPlan | None, parallelism: int):
    """One serving run over a fresh replica of the reference topic.

    ``key_by`` re-keys through a real operator so SITE_OPERATOR crashes
    have somewhere to land (a bare source->sink job has no operators).
    """
    injector = FaultInjector(plan) if plan is not None else None
    result, report = serve_topic(
        _cluster("store.chaos"), "store.chaos",
        key_fn=lambda v: v["u"], metric_fn=lambda v: v["m"],
        parallelism=parallelism, source_batch=32, interval_cycles=1,
        injector=injector)
    return result, report, injector


def _state(store: TieredStore):
    return canonical_contents(store), store.analytical.rows


class TestCrashSweep:
    """Fixed fault matrix x parallelism: state identical to fault-free."""

    SPECS = [
        FaultSpec("store_crash", SITE_STORE, at=1, target="stage"),
        FaultSpec("store_crash", SITE_STORE, at=2, target="stage"),
        FaultSpec("store_crash", SITE_STORE, at=1, target="apply"),
        FaultSpec("store_crash", SITE_STORE, at=2, target="apply"),
        FaultSpec("store_crash", SITE_STORE, at=0, target="compact"),
        FaultSpec("store_crash", SITE_STORE, at=2, target="compact"),
        FaultSpec("coordinator_crash", SITE_COORDINATOR, at=1),
        FaultSpec("operator_crash", SITE_OPERATOR, at=40,
                  target="key_by"),
    ]

    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    def test_state_survives_every_crash_site(self, parallelism):
        golden_store, golden_report, _ = _run(None, parallelism)
        golden = _state(golden_store)
        assert golden_report.checkpoints >= 3
        fired_total = 0
        for spec in self.SPECS:
            store, report, injector = _run(FaultPlan(specs=(spec,)),
                                           parallelism)
            fired = report.crashes + report.coordinator_crashes
            fired_total += min(fired, 1)
            assert _state(store) == golden, \
                f"divergence under {spec} at parallelism {parallelism}"
        # the sweep must actually exercise the sites (shorter cycles at
        # higher parallelism can leave late occurrence indices unmet,
        # but most of the matrix has to land)
        assert fired_total >= len(self.SPECS) - 2

    def test_double_fault_apply_then_coordinator(self):
        golden, _, _ = _run(None, 2)
        plan = FaultPlan(specs=(
            FaultSpec("store_crash", SITE_STORE, at=1, target="apply"),
            FaultSpec("coordinator_crash", SITE_COORDINATOR, at=2),
        ))
        store, report, _ = _run(plan, 2)
        assert report.crashes >= 1 and report.coordinator_crashes >= 1
        assert _state(store) == _state(golden)


class TestRandomSweep:
    """Seeded random schedules mixing store crashes with the classics."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_schedules_converge(self, seed):
        golden, _, _ = _run(None, 2)
        plan = random_plan(
            seed, horizon=6, operators=("key_by",),
            crashes=1, torn_appends=0, unavailable_windows=0,
            duplicate_deliveries=0, task_timeouts=0,
            coordinator_crashes=1, store_crashes=2,
            name=f"store-random-{seed}")
        store, report, _ = _run(plan, 2)
        assert _state(store) == _state(golden)
