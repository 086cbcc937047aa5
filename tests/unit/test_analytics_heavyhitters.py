"""Unit tests: heavy hitters, exponential mechanism, timestamp seek."""

import numpy as np
import pytest

from repro.analytics import HeavyHitters
from repro.privacy import exponential_mechanism, private_top_k
from repro.util.errors import ConfigError, PrivacyError
from repro.util.rng import make_rng


class TestHeavyHitters:
    def test_finds_zipf_head(self):
        rng = make_rng(0)
        hh = HeavyHitters(k=5, epsilon=0.005)
        ranks = np.arange(1, 201, dtype=float)
        weights = ranks ** -1.5
        weights /= weights.sum()
        for _ in range(20_000):
            hh.add(f"key-{int(rng.choice(200, p=weights)):03d}")
        top_keys = [key for key, _est in hh.top()]
        # The true head (key-000..key-004 by construction) dominates.
        assert "key-000" in top_keys
        assert "key-001" in top_keys
        assert len(set(top_keys) & {f"key-{i:03d}" for i in range(8)}) >= 4

    def test_estimates_never_underestimate(self):
        hh = HeavyHitters(k=3, epsilon=0.01)
        for _ in range(50):
            hh.add("a")
        for _ in range(10):
            hh.add("b")
        assert hh.estimate("a") >= 50
        assert hh.estimate("b") >= 10

    def test_top_sorted_descending(self):
        hh = HeavyHitters(k=5)
        for key, n in (("x", 30), ("y", 20), ("z", 10)):
            for _ in range(n):
                hh.add(key)
        top = hh.top()
        estimates = [est for _k, est in top]
        assert estimates == sorted(estimates, reverse=True)
        assert top[0][0] == "x"

    def test_memory_bounded(self):
        hh = HeavyHitters(k=10, epsilon=0.01)
        for i in range(5_000):
            hh.add(f"unique-{i}")
        assert len(hh.top()) == 10
        # far below key cardinality: the sketch's cells plus the top-k
        sketch = hh._sketch
        assert sketch.width * sketch.depth + 2 * hh.k < 10_000

    def test_weighted_add(self):
        hh = HeavyHitters(k=2)
        hh.add("big", count=100)
        hh.add("small")
        assert hh.top()[0][0] == "big"

    def test_invalid_k_rejected(self):
        with pytest.raises(ConfigError):
            HeavyHitters(k=0)


class TestExponentialMechanism:
    def test_prefers_high_scores(self):
        rng = make_rng(1)
        scores = {"best": 100.0, "mid": 50.0, "worst": 0.0}
        picks = [exponential_mechanism(scores, epsilon=1.0, rng=rng)
                 for _ in range(300)]
        assert picks.count("best") > 250

    def test_low_epsilon_near_uniform(self):
        rng = make_rng(2)
        scores = {"a": 100.0, "b": 0.0}
        picks = [exponential_mechanism(scores, epsilon=0.001, rng=rng)
                 for _ in range(1000)]
        share = picks.count("a") / 1000
        assert 0.4 < share < 0.6

    def test_empty_candidates_rejected(self):
        with pytest.raises(PrivacyError):
            exponential_mechanism({}, 1.0, make_rng(0))

    def test_private_top_k_high_epsilon_matches_truth(self):
        rng = make_rng(4)
        scores = {f"k{i}": float(100 - i * 10) for i in range(10)}
        picks = private_top_k(scores, k=3, epsilon=50.0, rng=rng)
        assert set(picks) == {"k0", "k1", "k2"}

    def test_private_top_k_no_duplicates(self):
        rng = make_rng(5)
        scores = {f"k{i}": float(i) for i in range(20)}
        picks = private_top_k(scores, k=10, epsilon=0.1, rng=rng)
        assert len(picks) == len(set(picks)) == 10

    def test_private_top_k_utility_degrades_with_epsilon(self):
        scores = {f"k{i}": float(100 - i) for i in range(50)}
        truth = {f"k{i}" for i in range(10)}

        def accuracy(epsilon, seed):
            rng = make_rng(seed)
            hits = 0
            for trial in range(30):
                picks = private_top_k(scores, k=10, epsilon=epsilon,
                                      rng=rng)
                hits += len(set(picks) & truth)
            return hits / (30 * 10)

        assert accuracy(100.0, 6) > accuracy(0.01, 7) + 0.2

    def test_k_too_large_rejected(self):
        with pytest.raises(PrivacyError):
            private_top_k({"a": 1.0}, k=2, epsilon=1.0, rng=make_rng(0))
