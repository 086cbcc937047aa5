"""Unit tests: DP mechanisms, budget, location privacy, re-identification."""

import math

import numpy as np
import pytest

from repro.privacy import (
    BudgetAccountant,
    GeometricMechanism,
    GridCloak,
    LaplaceMechanism,
    PlanarLaplace,
    TraceDatabase,
    discretize_trace,
)
from repro.util.errors import BudgetExhausted, PrivacyError
from repro.util.geometry import Rect
from repro.util.rng import make_rng


class TestBudgetAccountant:
    def test_charges_accumulate(self):
        accountant = BudgetAccountant(epsilon=1.0)
        accountant.charge(0.4)
        accountant.charge(0.4)
        assert accountant.remaining_epsilon == pytest.approx(0.2)
        assert accountant.queries == 2

    def test_exhaustion_raises(self):
        accountant = BudgetAccountant(epsilon=0.5)
        accountant.charge(0.5)
        with pytest.raises(BudgetExhausted):
            accountant.charge(0.01)

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(PrivacyError):
            BudgetAccountant(epsilon=0.0)


class TestLaplaceMechanism:
    def test_noise_scale(self):
        mech = LaplaceMechanism(epsilon=0.5, sensitivity=2.0,
                                rng=make_rng(0))
        assert mech.scale == 4.0
        samples = np.array([mech.release(0.0) for _ in range(5000)])
        # Laplace(b) has std b*sqrt(2).
        assert samples.std() == pytest.approx(4.0 * math.sqrt(2), rel=0.1)
        assert abs(samples.mean()) < 0.3

    def test_array_release(self):
        mech = LaplaceMechanism(epsilon=1.0, sensitivity=1.0,
                                rng=make_rng(1))
        out = mech.release(np.zeros(10))
        assert out.shape == (10,)

    def test_charges_accountant(self):
        accountant = BudgetAccountant(epsilon=0.25)
        mech = LaplaceMechanism(epsilon=0.1, sensitivity=1.0,
                                rng=make_rng(2), accountant=accountant)
        mech.release(1.0)
        mech.release(1.0)
        with pytest.raises(BudgetExhausted):
            mech.release(1.0)

    def test_higher_epsilon_less_noise(self):
        loose = LaplaceMechanism(epsilon=10.0, sensitivity=1.0,
                                 rng=make_rng(3))
        tight = LaplaceMechanism(epsilon=0.01, sensitivity=1.0,
                                 rng=make_rng(3))
        loose_err = np.std([loose.release(0.0) for _ in range(500)])
        tight_err = np.std([tight.release(0.0) for _ in range(500)])
        assert tight_err > 50 * loose_err


class TestGeometricMechanism:
    def test_integer_output(self):
        mech = GeometricMechanism(epsilon=0.5, rng=make_rng(5))
        values = [mech.release(100) for _ in range(100)]
        assert all(isinstance(v, int) for v in values)

    def test_unbiased(self):
        mech = GeometricMechanism(epsilon=1.0, rng=make_rng(6))
        values = [mech.release(50) for _ in range(5000)]
        assert np.mean(values) == pytest.approx(50, abs=0.5)


class TestGridCloak:
    def test_reports_region_with_k_users(self):
        rng = make_rng(7)
        population = rng.uniform(0, 1000, size=(200, 2))
        cloak = GridCloak(Rect(0, 0, 1000, 1000), k=10)
        x, y = float(population[0, 0]), float(population[0, 1])
        region = cloak.cloak(x, y, population)
        assert region.occupancy >= 10
        assert region.rect.contains(x, y)

    def test_larger_k_larger_region(self):
        rng = make_rng(8)
        population = rng.uniform(0, 1000, size=(300, 2))
        x, y = float(population[0, 0]), float(population[0, 1])
        small = GridCloak(Rect(0, 0, 1000, 1000), k=5).cloak(
            x, y, population)
        large = GridCloak(Rect(0, 0, 1000, 1000), k=100).cloak(
            x, y, population)
        assert large.radius_m >= small.radius_m

    def test_insufficient_population_raises(self):
        cloak = GridCloak(Rect(0, 0, 100, 100), k=10)
        population = np.array([[5.0, 5.0]])
        with pytest.raises(PrivacyError):
            cloak.cloak(5.0, 5.0, population)

    def test_outside_bounds_rejected(self):
        cloak = GridCloak(Rect(0, 0, 100, 100), k=1)
        with pytest.raises(PrivacyError):
            cloak.cloak(500.0, 5.0, np.zeros((5, 2)))


class TestPlanarLaplace:
    def test_expected_displacement(self):
        mech = PlanarLaplace(epsilon_per_m=0.05, rng=make_rng(9))
        assert mech.expected_displacement_m == pytest.approx(40.0)
        displacements = []
        for _ in range(3000):
            px, py = mech.perturb(0.0, 0.0)
            displacements.append(math.hypot(px, py))
        assert np.mean(displacements) == pytest.approx(40.0, rel=0.05)

    def test_smaller_epsilon_more_noise(self):
        strong = PlanarLaplace(0.01, make_rng(10))
        weak = PlanarLaplace(1.0, make_rng(10))
        d_strong = np.mean([math.hypot(*strong.perturb(0, 0))
                            for _ in range(500)])
        d_weak = np.mean([math.hypot(*weak.perturb(0, 0))
                          for _ in range(500)])
        assert d_strong > 20 * d_weak

    def test_perturb_many_shape(self):
        mech = PlanarLaplace(0.1, make_rng(11))
        out = mech.perturb_many(np.zeros((7, 2)))
        assert out.shape == (7, 2)

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(PrivacyError):
            PlanarLaplace(0.0, make_rng(0))


class TestReidentification:
    def _database(self, n_users=40, seed=12, cell_m=200.0, bucket_s=600.0):
        from repro.datagen import MobilityConfig, generate_population
        rng = make_rng(seed)
        traces = generate_population(
            n_users, rng, MobilityConfig(steps=150, area_m=4000.0))
        db = TraceDatabase(cell_m=cell_m, bucket_s=bucket_s)
        for trace in traces:
            db.add_trace(trace.user, trace.xs, trace.ys, trace.ts)
        return db

    def test_discretize(self):
        points = discretize_trace(np.array([10.0, 210.0]),
                                  np.array([10.0, 10.0]),
                                  np.array([0.0, 700.0]),
                                  cell_m=200.0, bucket_s=600.0)
        assert points == {(0, 0, 0), (1, 0, 1)}

    def test_more_known_points_more_unique(self):
        db = self._database()
        rng = make_rng(13)
        few = db.attack(rng, known_points=1)
        many = db.attack(rng, known_points=6)
        assert many.reidentification_rate >= few.reidentification_rate

    def test_handful_of_points_reidentifies_most(self):
        # The Gonzalez/de Montjoye-style claim: a few spatio-temporal
        # points suffice.
        db = self._database()
        result = db.attack(make_rng(14), known_points=4)
        assert result.reidentification_rate > 0.8

    def test_defended_database_reduces_uniqueness(self):
        from repro.datagen import MobilityConfig, generate_population
        rng = make_rng(15)
        traces = generate_population(
            30, rng, MobilityConfig(steps=120, area_m=4000.0))
        truth = TraceDatabase(cell_m=200.0, bucket_s=600.0)
        defended = TraceDatabase(cell_m=200.0, bucket_s=600.0)
        noise = PlanarLaplace(epsilon_per_m=0.005, rng=rng)  # ~400 m noise
        for trace in traces:
            truth.add_trace(trace.user, trace.xs, trace.ys, trace.ts)
            noisy = noise.perturb_many(
                np.column_stack([trace.xs, trace.ys]))
            defended.add_trace(trace.user, noisy[:, 0], noisy[:, 1],
                               trace.ts)
        attack_rng = make_rng(16)
        raw = truth.attack(attack_rng, known_points=4)
        guarded = defended.attack(make_rng(16), known_points=4,
                                  observed=truth)
        assert guarded.reidentification_rate < raw.reidentification_rate

    def test_duplicate_user_rejected(self):
        db = TraceDatabase(100.0, 60.0)
        db.add_trace("u", np.zeros(1), np.zeros(1), np.zeros(1))
        with pytest.raises(PrivacyError):
            db.add_trace("u", np.zeros(1), np.zeros(1), np.zeros(1))
