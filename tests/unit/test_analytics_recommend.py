"""Unit tests: recommenders, anomaly, correlation."""

import pytest

from repro.analytics import (
    EwmaDetector,
    Interaction,
    ItemCFRecommender,
    LiftMiner,
    PopularityRecommender,
    ThresholdDetector,
    hit_rate,
    precision_at_k,
)
from repro.util.errors import ConfigError
from repro.util.rng import make_rng


def _feed(recommender, rows):
    for user, item in rows:
        recommender.add(Interaction(user=user, item=item))


class TestPopularityRecommender:
    def test_ranks_by_popularity(self):
        rec = PopularityRecommender()
        _feed(rec, [("u1", "a"), ("u2", "a"), ("u3", "b")])
        items = [i for i, _s in rec.recommend("u9", k=2)]
        assert items == ["a", "b"]

    def test_excludes_seen(self):
        rec = PopularityRecommender()
        _feed(rec, [("u1", "a"), ("u2", "a"), ("u1", "b")])
        items = [i for i, _s in rec.recommend("u1", k=5)]
        assert "a" not in items and "b" not in items


class TestItemCF:
    def test_cooccurring_items_recommended(self):
        rec = ItemCFRecommender()
        # a and b co-occur for many users; u_new saw only a.
        for i in range(10):
            _feed(rec, [(f"u{i}", "a"), (f"u{i}", "b")])
        _feed(rec, [("u_new", "a")])
        items = [i for i, _s in rec.recommend("u_new", k=3)]
        assert items[0] == "b"

    def test_similarity_symmetric(self):
        rec = ItemCFRecommender()
        _feed(rec, [("u1", "a"), ("u1", "b"), ("u2", "a")])
        assert rec.similarity("a", "b") == pytest.approx(
            rec.similarity("b", "a"))

    def test_similarity_bounded(self):
        rec = ItemCFRecommender()
        for i in range(5):
            _feed(rec, [(f"u{i}", "a"), (f"u{i}", "b")])
        assert 0.0 < rec.similarity("a", "b") <= 1.0 + 1e-9

    def test_no_similarity_without_cooccurrence(self):
        rec = ItemCFRecommender()
        _feed(rec, [("u1", "a"), ("u2", "b")])
        assert rec.similarity("a", "b") == 0.0

    def test_personalization_differs_across_users(self):
        rec = ItemCFRecommender()
        for i in range(5):
            _feed(rec, [(f"x{i}", "a"), (f"x{i}", "a2")])
            _feed(rec, [(f"y{i}", "b"), (f"y{i}", "b2")])
        _feed(rec, [("ua", "a"), ("ub", "b")])
        rec_a = [i for i, _s in rec.recommend("ua", k=1)]
        rec_b = [i for i, _s in rec.recommend("ub", k=1)]
        assert rec_a == ["a2"]
        assert rec_b == ["b2"]

    def test_unknown_user_gets_nothing(self):
        rec = ItemCFRecommender()
        _feed(rec, [("u1", "a")])
        assert rec.recommend("stranger", k=5) == []


class TestMetricsHelpers:
    def test_precision_at_k(self):
        assert precision_at_k(["a", "b", "c"], {"a", "c"}, 2) == 0.5
        assert precision_at_k([], {"a"}, 3) == 0.0

    def test_precision_bad_k(self):
        with pytest.raises(ConfigError):
            precision_at_k(["a"], {"a"}, 0)

    def test_hit_rate(self):
        assert hit_rate(["a", "b"], {"b"}, 2) == 1.0
        assert hit_rate(["a", "b"], {"z"}, 2) == 0.0


class TestEwmaDetector:
    def test_flags_large_jump_after_warmup(self):
        detector = EwmaDetector(threshold=4.0, warmup=10)
        rng = make_rng(0)
        for i in range(100):
            detector.add(10.0 + float(rng.normal(0, 0.5)), timestamp=i)
        alarm = detector.add(30.0, timestamp=100)
        assert alarm is not None
        assert alarm.score > 4.0

    def test_quiet_during_warmup(self):
        detector = EwmaDetector(warmup=50)
        for i in range(20):
            detector.add(100.0 if i == 10 else 0.0, timestamp=i)
        assert detector.alarms == []

    def test_stable_signal_no_alarms(self):
        detector = EwmaDetector(threshold=4.0, warmup=10)
        rng = make_rng(1)
        for i in range(500):
            detector.add(float(rng.normal(5, 1)), timestamp=i)
        assert len(detector.alarms) <= 3  # ~4-sigma false-alarm budget


class TestThresholdDetector:
    def test_breach_high(self):
        detector = ThresholdDetector(low=0.0, high=10.0)
        assert detector.add(11.0, timestamp=1.0) is not None
        assert detector.add(5.0) is None

    def test_breach_low(self):
        detector = ThresholdDetector(low=0.0, high=10.0)
        alarm = detector.add(-2.0)
        assert alarm is not None
        assert alarm.score == pytest.approx(2.0)

    def test_needs_at_least_one_bound(self):
        with pytest.raises(ConfigError):
            ThresholdDetector()

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ConfigError):
            ThresholdDetector(low=10.0, high=0.0)


class TestLiftMiner:
    def test_positive_association(self):
        miner = LiftMiner(min_support=0.1, min_confidence=0.1)
        for _ in range(8):
            miner.add_basket(["bread", "butter"])
        for _ in range(2):
            miner.add_basket(["bread"])
            miner.add_basket(["milk"])
        rules = miner.rules()
        rule = next(r for r in rules if r.antecedent == "butter"
                    and r.consequent == "bread")
        assert rule.lift > 1.0
        assert rule.confidence == pytest.approx(1.0)

    def test_support_floor_filters(self):
        miner = LiftMiner(min_support=0.5, min_confidence=0.1)
        miner.add_basket(["a", "b"])
        for _ in range(9):
            miner.add_basket(["c"])
        assert miner.rules() == []

    def test_empty_basket_ignored(self):
        miner = LiftMiner()
        miner.add_basket([])
        assert miner.baskets == 0

    def test_rules_limit(self):
        miner = LiftMiner(min_support=0.01, min_confidence=0.01)
        miner.add_basket(["a", "b", "c"])
        assert len(miner.rules(limit=2)) == 2
