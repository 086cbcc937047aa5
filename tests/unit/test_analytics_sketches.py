"""Unit tests: sketches, quantiles, incremental computation."""

import math

import numpy as np
import pytest

from repro.analytics import (
    CountMinSketch,
    DecayedCounter,
    HyperLogLog,
    IncrementalQuery,
    P2Quantile,
    RunningStats,
)
from repro.util.errors import ConfigError
from repro.util.rng import make_rng


class TestCountMinSketch:
    def test_never_underestimates(self):
        cms = CountMinSketch(epsilon=0.01)
        truth = {}
        rng = make_rng(0)
        for _ in range(2000):
            key = f"k{int(rng.integers(0, 100))}"
            truth[key] = truth.get(key, 0) + 1
            cms.add(key)
        for key, count in truth.items():
            assert cms.estimate(key) >= count

    def test_error_bound_roughly_holds(self):
        cms = CountMinSketch(epsilon=0.005)
        rng = make_rng(1)
        for _ in range(5000):
            cms.add(f"k{int(rng.integers(0, 50))}")
        # Overestimate should be within eps * N (generous 3x slack).
        errors = [cms.estimate(f"k{i}") for i in range(50)]
        assert max(errors) <= 5000 / 50 + 3 * 0.005 * 5000

    def test_weighted_add(self):
        cms = CountMinSketch()
        cms.add("x", count=7)
        assert cms.estimate("x") >= 7

    def test_merge(self):
        a = CountMinSketch(epsilon=0.01)
        b = CountMinSketch(epsilon=0.01)
        a.add("x", 3)
        b.add("x", 4)
        a.merge(b)
        assert a.estimate("x") >= 7

    def test_merge_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            CountMinSketch(epsilon=0.01).merge(CountMinSketch(epsilon=0.001))

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            CountMinSketch(epsilon=0.0)


class TestHyperLogLog:
    def test_estimates_within_error(self):
        hll = HyperLogLog()
        n = 50_000
        for i in range(n):
            hll.add(f"item-{i}")
        rel_error = abs(hll.estimate() - n) / n
        assert rel_error < 0.05  # ~3 sigma for p=12

    def test_small_cardinality_linear_counting(self):
        hll = HyperLogLog()
        for i in range(10):
            hll.add(f"x{i}")
        assert abs(hll.estimate() - 10) < 2

    def test_duplicates_not_counted(self):
        hll = HyperLogLog()
        for _ in range(1000):
            hll.add("same")
        assert hll.estimate() < 3

    def test_merge_unions(self):
        a = HyperLogLog()
        b = HyperLogLog()
        for i in range(10000):
            a.add(f"a-{i}")
            b.add(f"b-{i}")
        a.merge(b)
        assert abs(a.estimate() - 20000) / 20000 < 0.05


class TestP2Quantile:
    def test_median_of_uniform(self):
        q = P2Quantile(0.5)
        rng = make_rng(0)
        for _ in range(5000):
            q.add(float(rng.random()))
        assert abs(q.value() - 0.5) < 0.03

    def test_p95_of_normal(self):
        q = P2Quantile(0.95)
        rng = make_rng(1)
        for _ in range(10000):
            q.add(float(rng.normal(0, 1)))
        assert abs(q.value() - 1.645) < 0.15

    def test_small_samples_exact_ish(self):
        q = P2Quantile(0.5)
        for v in [1.0, 2.0, 3.0]:
            q.add(v)
        assert q.value() == 2.0

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value())

    def test_bad_quantile_rejected(self):
        with pytest.raises(ConfigError):
            P2Quantile(1.5)


class TestRunningStats:
    def test_matches_numpy(self):
        rng = make_rng(2)
        data = rng.normal(5, 2, size=500)
        stats = RunningStats()
        for v in data:
            stats.add(v)
        assert stats.mean == pytest.approx(float(np.mean(data)))
        assert stats.variance == pytest.approx(float(np.var(data)))
        assert stats.minimum == pytest.approx(float(data.min()))
        assert stats.maximum == pytest.approx(float(data.max()))

    def test_merge_equals_sequential(self):
        rng = make_rng(3)
        a_data = rng.normal(0, 1, size=100)
        b_data = rng.normal(10, 5, size=200)
        merged = RunningStats()
        for v in list(a_data) + list(b_data):
            merged.add(v)
        a = RunningStats()
        b = RunningStats()
        for v in a_data:
            a.add(v)
        for v in b_data:
            b.add(v)
        a.merge(b)
        assert a.mean == pytest.approx(merged.mean)
        assert a.variance == pytest.approx(merged.variance)
        assert a.count == merged.count

    def test_merge_with_empty(self):
        a = RunningStats()
        a.add(1.0)
        a.merge(RunningStats())
        assert a.count == 1


class TestDecayedCounter:
    def test_decays_exponentially(self):
        counter = DecayedCounter(tau=10.0)
        counter.add(now=0.0)
        assert counter.value(10.0) == pytest.approx(math.exp(-1))

    def test_accumulates(self):
        counter = DecayedCounter(tau=1e9)
        counter.add(0.0)
        counter.add(1.0)
        assert counter.value(1.0) == pytest.approx(2.0, rel=1e-6)

    def test_time_backwards_rejected(self):
        counter = DecayedCounter(tau=1.0)
        counter.add(5.0)
        with pytest.raises(ConfigError):
            counter.value(4.0)


class TestIncrementalQuery:
    def test_update_answers_match_rebuild(self):
        history = [{"cat": "a", "v": float(i)} for i in range(10)]
        query = IncrementalQuery(criteria=lambda e: e["cat"] == "a",
                                 value_fn=lambda e: e["v"])
        for element in history:
            query.update(element)
        assert query.answer() == pytest.approx(4.5)
        assert query.updates == 10
        assert query.rebuilds == 0

    def test_criteria_change_rebuilds_from_history(self):
        history = [{"cat": "a" if i % 2 else "b", "v": float(i)}
                   for i in range(10)]
        query = IncrementalQuery(criteria=lambda e: e["cat"] == "a",
                                 value_fn=lambda e: e["v"])
        for element in history:
            query.update(element)
        query.change_criteria(lambda e: e["cat"] == "b", history)
        assert query.rebuilds == 1
        assert query.rebuild_cost == 10
        assert query.answer() == pytest.approx(np.mean([0, 2, 4, 6, 8]))


class TestBatchKernels:
    """Vectorized add_many is bit-identical to the scalar loop it
    replaces."""

    KEYS = [f"user-{i % 37}-{i}" for i in range(500)] + ["", "x", "x"]

    def test_cms_add_many_matches_loop(self):
        loop = CountMinSketch(epsilon=0.01)
        batch = CountMinSketch(epsilon=0.01)
        for k in self.KEYS:
            loop.add(k)
        batch.add_many(self.KEYS)
        assert (loop._table == batch._table).all()
        assert loop.total == batch.total

    def test_cms_add_many_empty_is_noop(self):
        cms = CountMinSketch()
        cms.add_many([])
        assert cms.total == 0

    def test_hll_add_many_matches_loop(self):
        loop, batch = HyperLogLog(), HyperLogLog()
        for k in self.KEYS:
            loop.add(k)
        batch.add_many(self.KEYS)
        assert (loop._registers == batch._registers).all()
        assert loop.estimate() == batch.estimate()

    def test_hll_add_many_incremental_merge(self):
        # Splitting the stream across add_many calls lands on the same
        # registers as one call (register updates are max-commutative).
        one = HyperLogLog()
        split = HyperLogLog()
        one.add_many(self.KEYS)
        split.add_many(self.KEYS[:100])
        split.add_many(self.KEYS[100:])
        assert (one._registers == split._registers).all()
