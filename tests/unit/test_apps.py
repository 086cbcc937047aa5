"""Unit tests: the four domain applications."""

import numpy as np
import pytest

from repro.apps import (
    HealthcareApp,
    PublicServicesApp,
    RetailApp,
    TourismApp,
)
from repro.core import ARBigDataPipeline, DEFAULT_INTRINSICS, PipelineConfig
from repro.datagen import (
    Episode,
    ExcavationSite,
    MobilityConfig,
    RetailWorld,
    RingRoadSim,
    generate_patients,
    generate_population,
    vitals_stream,
)
from repro.sensors import Poi, PoiDatabase
from repro.util.errors import PipelineError
from repro.util.geometry import Rect
from repro.util.rng import make_rng


def _pipeline(seed=0):
    return ARBigDataPipeline(PipelineConfig(seed=seed))


class TestRetailApp:
    def _app(self, seed=0, shoppers=30):
        rng = make_rng(seed)
        world = RetailWorld.generate(rng, num_products=80,
                                     num_categories=8,
                                     num_shoppers=shoppers,
                                     preference_concentration=0.2)
        app = RetailApp(_pipeline(seed), world)
        app.ingest_interactions(world.interactions(rng,
                                                   events_per_shopper=25))
        return app, rng

    def test_cf_beats_popularity(self):
        app, rng = self._app()
        evaluation = app.evaluate(rng, max_users=20)
        assert evaluation.cf_precision > evaluation.popularity_precision
        assert evaluation.uplift > 0.0

    def test_recommendations_are_personal(self):
        app, _rng = self._app()
        a = [i for i, _s in app.recommend("s-0000", k=5)]
        b = [i for i, _s in app.recommend("s-0001", k=5)]
        assert a != b

    def test_popularity_mode_is_global(self):
        app, _rng = self._app()
        a = app.recommend("s-0000", k=5, personalized=False)
        b = app.recommend("s-0001", k=5, personalized=False)
        # Identical except for seen-item exclusion; compare scores pool.
        assert {i for i, _ in a} <= {i for i, _ in
                                     app.popularity.recommend("nobody",
                                                              k=100)}
        assert len(a) == len(b) == 5

    def test_gaze_boosts_looked_at_neighbourhood(self):
        app, rng = self._app()
        shopper = app.world.shoppers[0]
        events = app.world.gaze_stream(rng, shopper, n_events=8)
        app.ingest_gaze(events)
        recs = app.recommend(shopper.shopper_id, k=5,
                             now=events[-1].timestamp)
        assert len(recs) == 5

    def test_xray_locator_sees_through_shelf(self):
        app, _rng = self._app()
        # Pick a product behind at least one shelf from the user position.
        result = None
        for product in app.world.products:
            result = app.locate_product("s-0000", product.product_id,
                                        (0.5, 0.5))
            if result["occluded"]:
                break
        assert result is not None and result["found"]
        if result["occluded"]:
            assert result["xray"]

    def test_unknown_product_rejected(self):
        app, _rng = self._app()
        with pytest.raises(PipelineError):
            app.locate_product("s-0000", "nope", (0, 0))

    def test_publish_recommendations_binds(self):
        app, _rng = self._app()
        bound = app.publish_recommendations("s-0000")
        assert bound == 5


class TestTourismApp:
    def _app(self, seed=1, n_pois=120, area=3000.0):
        rng = make_rng(seed)
        pois = PoiDatabase(Rect(0, 0, area, area))
        categories = ["landmark", "museum", "cafe", "park"]
        for i in range(n_pois):
            pois.add(Poi(poi_id=f"poi-{i:03d}", name=f"POI {i}",
                         category=categories[i % 4],
                         x=float(rng.uniform(0, area)),
                         y=float(rng.uniform(0, area)),
                         popularity=float(n_pois - i)))
        return TourismApp(_pipeline(seed), pois), rng

    def test_nearby_content_limited_and_prioritized(self):
        app, _rng = self._app()
        annotations = app.nearby_content(1500, 1500, radius_m=2000,
                                         limit=10)
        assert len(annotations) == 10

    def test_smart_overlay_beats_naive(self):
        app, _rng = self._app()
        comparison = app.compare_overlays(1500, 1500, (1600, 1500),
                                          DEFAULT_INTRINSICS,
                                          radius_m=1200)
        assert comparison.smart_useful_ratio >= comparison.naive_useful_ratio
        assert comparison.smart_overlap_ratio <= comparison.naive_overlap_ratio

    def test_trending_decays(self):
        app, _rng = self._app()
        app.record_visit("u1", "poi-000", timestamp=0.0)
        app.record_visit("u2", "poi-001", timestamp=3600.0)
        trending = app.trending(now=3600.0, k=2)
        assert trending[0][0] == "poi-001"

    def test_game_increases_engagement(self):
        app, rng = self._app()
        traces = generate_population(
            15, rng, MobilityConfig(steps=150, area_m=3000.0))
        stats = app.run_game(traces, portal_count=15, encounter_m=50.0,
                             detour_m=200.0)
        assert stats.visits_gamified >= stats.visits_plain

    def test_private_trending_release(self):
        app, rng = self._app()
        for i in range(300):
            app.record_visit(f"u{i % 20}",
                             f"poi-{0 if i % 2 else i % 50:03d}",
                             timestamp=i * 10.0)
        truth = [poi for poi, _s in app.trending(now=3000.0, k=3)]
        released = app.trending_private(now=3000.0, k=3, epsilon=50.0,
                                        rng=rng)
        assert len(released) == 3
        # Generous epsilon: the dominant POI survives the release.
        assert truth[0] in released

    def test_private_trending_needs_candidates(self):
        app, rng = self._app()
        app.record_visit("u1", "poi-000", timestamp=0.0)
        with pytest.raises(PipelineError):
            app.trending_private(now=1.0, k=5, epsilon=1.0, rng=rng)

    def test_translation_coverage(self):
        app, _rng = self._app()
        phrasebook = {"出口": "Exit", "入口": "Entrance"}
        out = app.translate_signs([("s1", "出口"), ("s2", "駅"),
                                   ("s3", "入口")], phrasebook)
        assert [o["covered"] for o in out] == [True, False, True]


class TestHealthcareApp:
    def _app(self, seed=2, n=4):
        rng = make_rng(seed)
        patients = generate_patients(rng, n=n, episode_rate=0.0,
                                     horizon_s=1200.0)
        # One scripted, strong episode for determinism.
        patients[0].episodes.append(Episode(
            vital="heart_rate", onset_s=600.0, end_s=1100.0,
            magnitude=70.0, ramp_s=60.0))
        app = HealthcareApp(_pipeline(seed), patients)
        return app, patients, rng

    def test_episode_detected_with_lead_time(self):
        app, patients, rng = self._app()
        for patient in patients:
            app.ingest_vitals(vitals_stream(patient, rng,
                                            horizon_s=1200.0,
                                            period_s=5.0))
        outcomes = app.detection_outcomes()
        assert len(outcomes) == 1
        assert outcomes[0].detected
        assert outcomes[0].lead_delay_s < 300.0

    def test_quiet_patients_raise_few_alarms(self):
        app, patients, rng = self._app()
        raised = 0
        for patient in patients[1:]:
            raised += app.ingest_vitals(vitals_stream(
                patient, rng, horizon_s=1200.0, period_s=5.0))
        # 3 patients x 4 vitals x 240 samples: tolerate a tiny FP budget.
        assert raised <= 20

    def test_ehr_overlay_binds(self):
        app, _patients, _rng = self._app()
        assert app.publish_ehr_overlay("pt-000") == 1

    def test_unknown_patient_rejected(self):
        app, _patients, _rng = self._app()
        with pytest.raises(PipelineError):
            app.publish_ehr_overlay("pt-999")

    def test_compound_pattern_detects_only_the_sick_patient(self):
        rng = make_rng(10)
        patients = generate_patients(rng, n=4, episode_rate=0.0,
                                     horizon_s=2400.0)
        # pt-001 deteriorates: tachycardia then hypotension.
        patients[1].episodes.append(Episode(
            vital="heart_rate", onset_s=800.0, end_s=2000.0,
            magnitude=55.0, ramp_s=60.0))
        patients[1].episodes.append(Episode(
            vital="systolic_bp", onset_s=1100.0, end_s=2000.0,
            magnitude=-45.0, ramp_s=120.0))
        app = HealthcareApp(_pipeline(10), patients)
        for patient in patients:
            app.ingest_vitals(vitals_stream(patient, rng,
                                            horizon_s=2400.0,
                                            period_s=10.0))
        matches = app.detect_compound()
        assert matches
        assert {m.key for m in matches} == {"pt-001"}
        # The first compound alarm fires shortly after the BP drop.
        first = min(m.timestamps[-1] for m in matches)
        assert 1100.0 <= first <= 1400.0
        # Each match is ordered and within the CEP window.
        for m in matches:
            assert m.timestamps[0] <= m.timestamps[-1]
            assert m.timestamps[-1] - m.timestamps[0] <= 600.0

    def test_remote_diagnosis_budget(self):
        app, _patients, rng = self._app()
        lan = app.remote_diagnosis(rng, link="lan", frames=100)
        wan = app.remote_diagnosis(rng, link="wan", frames=100)
        assert lan.mean_latency_s < wan.mean_latency_s
        assert lan.miss_rate == 0.0


class TestPublicServicesApp:
    def test_threats_during_slowdown(self):
        rng = make_rng(3)
        app = PublicServicesApp(_pipeline(3))
        sim = RingRoadSim(rng, ring_length_m=1500.0)
        sim.force_slowdown(5, start_s=5.0, end_s=100.0, speed_mps=0.3)
        warned_ever = False
        min_ttc = float("inf")
        for _ in range(40):  # sample while the shock wave forms
            sim.step()
            threats = app.assess_threats(sim)
            warned_ever = warned_ever or any(t.warning for t in threats)
            min_ttc = min(min_ttc, min(t.ttc_s for t in threats))
        assert warned_ever
        assert min_ttc < 4.0  # someone closed in fast on the blockage

    def test_blind_spot_warnings_use_xray(self):
        rng = make_rng(4)
        app = PublicServicesApp(_pipeline(4))
        sim = RingRoadSim(rng, ring_length_m=1500.0)
        sim.force_slowdown(5, start_s=5.0, end_s=100.0, speed_mps=0.2)
        for _ in range(60):
            sim.step()
        warned = app.blind_spot_warnings(sim, lookahead=3)
        assert len(warned) >= 1

    def test_ar_screening_beats_manual(self):
        rng = make_rng(5)
        app = PublicServicesApp(_pipeline(5))
        manual = app.run_screening(rng, mode="manual", passengers=150)
        ar = app.run_screening(rng, mode="ar", passengers=150)
        assert ar.mean_wait_s < manual.mean_wait_s
        assert ar.throughput_per_min > manual.throughput_per_min

    def test_unknown_screening_mode_rejected(self):
        app = PublicServicesApp(_pipeline(6))
        with pytest.raises(PipelineError):
            app.run_screening(make_rng(0), mode="psychic")

    def test_excavation_overlay_tracks_deviation(self):
        rng = make_rng(7)
        app = PublicServicesApp(_pipeline(7))
        site = ExcavationSite(rng)
        scene_before = app.excavation_overlay(site)
        for _ in range(25):
            site.excavate_day(fraction=0.3, noise_m=0.05)
        scene_after = app.excavation_overlay(site)
        assert len(scene_after) < len(scene_before)

    def test_role_views_partition_utilities(self):
        app = PublicServicesApp(_pipeline(8))
        utilities = [{"id": 1, "kind": "electrical", "x": 0, "y": 0,
                      "depth": 1.0},
                     {"id": 2, "kind": "water", "x": 1, "y": 0,
                      "depth": 2.0},
                     {"id": 3, "kind": "water", "x": 2, "y": 0,
                      "depth": 2.0}]
        views = {v.role: v for v in app.role_views(utilities)}
        assert views["plumber"].visible == 2
        assert views["electrician"].visible == 1
        assert views["electrician"].hidden == 2


class TestServingStores:
    """Tiered serving store wiring: hot overlays + analytical dashboards."""

    def test_healthcare_latest_vitals_and_dashboard(self):
        rng = make_rng(2)
        patients = generate_patients(rng, n=3, episode_rate=0.0,
                                     horizon_s=120.0)
        app = HealthcareApp(_pipeline(2), patients)
        streams = {p.patient_id: vitals_stream(p, rng, horizon_s=60.0,
                                               period_s=10.0)
                   for p in patients}
        for samples in streams.values():
            app.ingest_vitals(samples)
        store = app.build_serving_store()
        pid = patients[0].patient_id
        # every vital's hot-tier head is the newest ingested sample
        newest = {}
        for s in streams[pid]:
            if s.vital not in newest or s.timestamp >= newest[s.vital][0]:
                newest[s.vital] = (s.timestamp, s.value)
        for vital, (ts, value) in newest.items():
            [(got_ts, got)] = store.latest(f"{pid}:{vital}")
            assert (got_ts, got["value"]) == (ts, value)
        assert store.latest("pt-999:heart_rate") == []
        dash = app.vitals_dashboard(window_s=30.0)
        rows = sum(len(v) for v in streams.values())
        assert app.serving_store.analytical.rows == rows
        assert dash  # per (patient:vital, window) means
