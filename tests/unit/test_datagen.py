"""Unit tests: workload generators."""

import numpy as np
import pytest

from repro.datagen import (
    Building,
    Episode,
    ExcavationSite,
    MobilityConfig,
    RetailWorld,
    RingRoadSim,
    SensorGrid,
    SocialStreamConfig,
    WindField,
    generate_patients,
    generate_population,
    generate_posts,
    generate_trace,
    vitals_stream,
)
from repro.util.errors import ConfigError
from repro.util.rng import make_rng


class TestMobility:
    def test_trace_shape_and_bounds(self):
        config = MobilityConfig(steps=100, area_m=1000.0)
        trace = generate_trace("u", make_rng(0), config)
        assert len(trace) == 100
        assert trace.xs.min() >= 0 and trace.xs.max() <= 1000.0
        assert trace.ys.min() >= 0 and trace.ys.max() <= 1000.0
        assert np.all(np.diff(trace.ts) == config.dt_s)

    def test_jumps_heavy_tailed(self):
        config = MobilityConfig(steps=2000, area_m=100000.0)
        trace = generate_trace("u", make_rng(1), config)
        jumps = np.hypot(np.diff(trace.xs), np.diff(trace.ys))
        jumps = jumps[jumps > 0]
        # Heavy tail: the max jump dwarfs the median.
        assert np.max(jumps) > 20 * np.median(jumps)

    def test_returns_create_revisits(self):
        config = MobilityConfig(steps=300)
        trace = generate_trace("u", make_rng(2), config)
        # Discretize into 100 m cells; returns concentrate visits.
        cells = {(int(x // 100), int(y // 100))
                 for x, y in zip(trace.xs, trace.ys)}
        assert len(cells) < 150  # far fewer cells than steps

    def test_population_unique_users(self):
        traces = generate_population(5, make_rng(3))
        assert len({t.user for t in traces}) == 5

    def test_determinism(self):
        a = generate_trace("u", make_rng(7))
        b = generate_trace("u", make_rng(7))
        assert np.array_equal(a.xs, b.xs)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            MobilityConfig(steps=0)


class TestRetailWorld:
    def test_generation_counts(self):
        world = RetailWorld.generate(make_rng(0), num_products=50,
                                     num_categories=5, num_shoppers=20)
        assert len(world.products) == 50
        assert len(world.shoppers) == 20
        assert len(world.categories) == 5
        for shopper in world.shoppers:
            assert shopper.preferences.sum() == pytest.approx(1.0)

    def test_interactions_follow_preferences(self):
        rng = make_rng(1)
        world = RetailWorld.generate(rng, num_products=50,
                                     num_categories=5, num_shoppers=1,
                                     preference_concentration=0.05)
        shopper = world.shoppers[0]
        favourite = world.categories[int(np.argmax(shopper.preferences))]
        interactions = world.interactions(rng, events_per_shopper=200)
        by_product = {p.product_id: p.category for p in world.products}
        favourite_share = np.mean([
            by_product[i.item] == favourite for i in interactions])
        # Uniform would give 0.2 across 5 categories; the favourite
        # must dominate well above that.
        assert favourite_share > 0.35

    def test_gaze_stream_ordered(self):
        rng = make_rng(2)
        world = RetailWorld.generate(rng, num_shoppers=1)
        events = world.gaze_stream(rng, world.shoppers[0], n_events=10)
        times = [e.timestamp for e in events]
        assert times == sorted(times)

    def test_too_few_products_rejected(self):
        with pytest.raises(ConfigError):
            RetailWorld.generate(make_rng(0), num_products=3,
                                 num_categories=10)


class TestHealth:
    def test_patients_have_scripted_episodes(self):
        patients = generate_patients(make_rng(3), n=30, episode_rate=1.0)
        assert len(patients) == 30
        assert any(p.episodes for p in patients)

    def test_vitals_stable_without_episode(self):
        patients = generate_patients(make_rng(4), n=1, episode_rate=0.0)
        samples = vitals_stream(patients[0], make_rng(5),
                                horizon_s=600, period_s=5)
        hr = [s.value for s in samples if s.vital == "heart_rate"]
        assert 50 < np.mean(hr) < 95
        assert np.std(hr) < 15

    def test_episode_shifts_vital(self):
        patients = generate_patients(make_rng(6), n=1, episode_rate=0.0)
        patient = patients[0]
        patient.episodes.append(Episode(vital="heart_rate", onset_s=300.0,
                                        end_s=600.0, magnitude=60.0,
                                        ramp_s=60.0))
        samples = vitals_stream(patient, make_rng(7), horizon_s=600,
                                period_s=5)
        hr_before = [s.value for s in samples
                     if s.vital == "heart_rate" and s.timestamp < 250]
        hr_during = [s.value for s in samples
                     if s.vital == "heart_rate" and s.timestamp > 400]
        assert np.mean(hr_during) - np.mean(hr_before) > 30

    def test_episode_validation(self):
        with pytest.raises(ConfigError):
            Episode(vital="heart_rate", onset_s=100.0, end_s=50.0,
                    magnitude=10.0)
        with pytest.raises(ConfigError):
            Episode(vital="bogus", onset_s=0.0, end_s=10.0, magnitude=1.0)

    def test_stream_sorted_by_time(self):
        patients = generate_patients(make_rng(8), n=1)
        samples = vitals_stream(patients[0], make_rng(9), horizon_s=120,
                                period_s=10)
        times = [s.timestamp for s in samples]
        assert times == sorted(times)


class TestTraffic:
    def test_free_flow_reaches_desired_speed(self):
        sim = RingRoadSim(make_rng(10), ring_length_m=5000.0)
        for _ in range(600):
            sim.step()
        speeds = [s.speed_mps for s in sim.states()]
        assert np.mean(speeds) > 11.0

    def test_slowdown_propagates_upstream(self):
        sim = RingRoadSim(make_rng(11), ring_length_m=2000.0)
        sim.force_slowdown(10, start_s=5.0, end_s=60.0, speed_mps=0.5)
        for _ in range(100):  # run to t=50, mid-incident
            sim.step()
        speeds = np.array([s.speed_mps for s in sim.states()])
        # Followers (behind index 10) should be slowed too.
        upstream = [speeds[(10 - j) % 30] for j in range(1, 4)]
        assert min(upstream) < 5.0

    def test_positions_stay_on_ring(self):
        sim = RingRoadSim(make_rng(12), ring_length_m=1000.0)
        for _ in range(200):
            sim.step()
        assert all(0 <= s.s_m < 1000.0 for s in sim.states())

    def test_beacons_match_states(self):
        sim = RingRoadSim(make_rng(13))
        beacons = sim.beacons()
        assert len(beacons) == 30
        radius = sim.ring / (2 * np.pi)
        for beacon in beacons:
            assert np.hypot(beacon.x, beacon.y) == pytest.approx(radius)

    def test_too_short_ring_rejected(self):
        with pytest.raises(ConfigError):
            RingRoadSim(make_rng(0), ring_length_m=100.0)


class TestSocial:
    def _pois(self, n=20):
        rng = make_rng(14)
        return [(f"poi-{i}", float(rng.uniform(0, 1000)),
                 float(rng.uniform(0, 1000))) for i in range(n)]

    def test_poisson_volume(self):
        config = SocialStreamConfig(rate_per_s=2.0, horizon_s=500.0)
        posts = generate_posts(make_rng(15), self._pois(), config)
        assert 800 < len(posts) < 1200

    def test_zipf_concentration(self):
        config = SocialStreamConfig(rate_per_s=5.0, horizon_s=400.0,
                                    zipf_s=1.5, tagged_fraction=1.0)
        posts = generate_posts(make_rng(16), self._pois(), config)
        counts = {}
        for post in posts:
            counts[post.poi_id] = counts.get(post.poi_id, 0) + 1
        top = max(counts.values())
        assert top > len(posts) * 0.2  # head POI dominates

    def test_tagged_fraction(self):
        config = SocialStreamConfig(tagged_fraction=0.5, rate_per_s=5.0,
                                    horizon_s=200.0)
        posts = generate_posts(make_rng(17), self._pois(), config)
        tagged = np.mean([p.poi_id is not None for p in posts])
        assert tagged == pytest.approx(0.5, abs=0.1)

    def test_timestamps_increasing(self):
        posts = generate_posts(make_rng(18), self._pois())
        times = [p.timestamp for p in posts]
        assert times == sorted(times)


class TestBuildings:
    def test_wind_zero_inside_building(self):
        field = WindField([Building("b", 50.0, 50.0, 10.0, 30.0)])
        assert field.velocity(50.0, 50.0) == (0.0, 0.0)

    def test_wind_approaches_freestream_far_away(self):
        field = WindField([Building("b", 50.0, 50.0, 10.0, 30.0)],
                          free_stream=(5.0, 0.0))
        vx, vy = field.velocity(50.0, 5000.0)
        assert vx == pytest.approx(5.0, abs=0.01)
        assert vy == pytest.approx(0.0, abs=0.01)

    def test_building_deflects_flow(self):
        field = WindField([Building("b", 50.0, 50.0, 10.0, 30.0)],
                          free_stream=(5.0, 0.0))
        # Beside the cylinder the flow accelerates (potential flow).
        vx_side, _ = field.velocity(50.0, 50.0 + 10.5)
        assert vx_side > 5.0

    def test_excavation_progress_monotone(self):
        site = ExcavationSite(make_rng(20))
        progresses = [site.progress]
        for _ in range(10):
            site.excavate_day(fraction=0.2)
            progresses.append(site.progress)
        assert progresses[-1] > progresses[0]
        assert progresses == sorted(progresses)

    def test_excavation_deviation_shrinks(self):
        site = ExcavationSite(make_rng(21))
        before = site.deviation_cells()
        for _ in range(20):
            site.excavate_day(fraction=0.3, noise_m=0.05)
        assert site.deviation_cells() < before

    def test_sensor_grid_hot_spot_visible(self):
        grid = SensorGrid(make_rng(22))
        grid.add_hot_spot(5, 4, delta_c=15.0)
        readings = grid.read_all(t=0.0)
        by_sensor = {r["sensor"]: r["value"] for r in readings}
        hot = by_sensor["temp-05-04"]
        cold = by_sensor["temp-00-00"]
        assert hot - cold > 8.0
