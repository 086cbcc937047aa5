"""Unit tests: core pipeline facade, sessions, timeliness, privacy guard,
influence model."""

import numpy as np
import pytest

from repro.context.entities import SemanticEntity
from repro.eventlog import ConsumerGroup
from repro.core import (
    ARBigDataPipeline,
    FieldInfluence,
    PAPER_FIGURE5,
    PipelineConfig,
    PrivacyConfig,
    Probe,
    SharedDataset,
    classify,
    classify_score,
)
from repro.core.privacy_guard import PrivacyGuard
from repro.offload.policies import AlwaysLocal, GreedyLatency
from repro.render.scene import Annotation
from repro.util.errors import PipelineError, PrivacyError
from repro.util.rng import make_rng
from repro.vision.camera import look_at
from repro.vision.tracker import StageProfile


def _pipeline(**kw):
    return ARBigDataPipeline(PipelineConfig(seed=0, **kw))


def _annotation(aid, x=0.0, y=0.0, z=5.0):
    return Annotation(annotation_id=aid, anchor=np.array([x, y, z]),
                      text=aid)


class TestPipelineFacade:
    def test_ingest_and_windowed_aggregate(self):
        pipeline = _pipeline()
        pipeline.create_topic("sensors")
        for i in range(60):
            pipeline.ingest("sensors", {"sensor": f"s{i % 3}",
                                        "value": float(i)},
                            key=f"s{i % 3}", timestamp=float(i))
        results = pipeline.windowed_aggregate(
            "sensors", key_fn=lambda v: v["sensor"],
            value_fn=lambda v: v["value"], window_s=20.0,
            aggregate="count")
        total = sum(r.value for r in results)
        assert total == 60
        keys = {r.key for r in results}
        assert keys == {"s0", "s1", "s2"}

    def test_personal_ingest_pseudonymizes(self):
        pipeline = ARBigDataPipeline(PipelineConfig(
            seed=0, privacy=PrivacyConfig(location_mode="laplace",
                                          geo_epsilon=0.1)))
        pipeline.create_topic("t")
        pipeline.ingest("t", {"user": "alice", "x": 10.0, "y": 20.0},
                        key="alice", timestamp=0.0, personal=True)
        group = ConsumerGroup(pipeline.log, "t", "g")
        rows = group.join("m").poll()
        record = rows[0].value
        assert record["user"].startswith("anon-")
        assert record["user"] != "alice"
        assert (record["x"], record["y"]) != (10.0, 20.0)
        assert record["loc_error_m"] > 0

    def test_pseudonym_stable(self):
        pipeline = _pipeline()
        assert pipeline.guard.pseudonymize("bob") == \
            pipeline.guard.pseudonymize("bob")
        assert pipeline.guard.pseudonymize("bob") != \
            pipeline.guard.pseudonymize("alice")

    def test_interpret_and_publish(self):
        pipeline = _pipeline()
        pipeline.add_entity(SemanticEntity(
            entity_id="e1", entity_type="poi",
            position=np.array([0.0, 0.0, 5.0]), name="Spot"))
        pipeline.interpreter.register_default("info")
        bound = pipeline.interpret_and_publish(
            [{"tag": "info", "subject": "e1", "value": 7}])
        assert bound.bound == 1
        assert pipeline.dataset.version == 1

    def test_open_session_and_render(self):
        pipeline = _pipeline()
        pipeline.add_entity(SemanticEntity(
            entity_id="e1", entity_type="poi",
            position=np.array([0.0, 0.0, 5.0]), name="Spot"))
        pipeline.interpreter.register_default("info")
        pipeline.interpret_and_publish(
            [{"tag": "info", "subject": "e1", "value": 7}])
        session = pipeline.open_session("u1")
        session.sync()
        pose = look_at(eye=[0, 0, 0], target=[0, 0, 5.0])
        frame = session.render(pose)
        assert frame.drawn == 1

    def test_duplicate_session_rejected(self):
        pipeline = _pipeline()
        pipeline.open_session("u1")
        with pytest.raises(PipelineError):
            pipeline.open_session("u1")

    def test_unknown_link_preset_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(access_link="carrier-pigeon")

    def test_run_job_escape_hatch(self):
        pipeline = _pipeline()
        pipeline.create_topic("t")
        for i in range(5):
            pipeline.ingest("t", {"v": i}, timestamp=float(i))
        from repro.streaming.connectors import log_source

        def build(builder):
            (builder.source("t", log_source(pipeline.log, "t"))
                    .map(lambda v: v["v"] * 10)
                    .sink("out"))

        out = pipeline.run_job(build)
        assert sorted(out["out"]) == [0, 10, 20, 30, 40]


class TestSharedDatasetAndSessions:
    def test_publish_bumps_version(self):
        dataset = SharedDataset()
        dataset.publish([_annotation("a")])
        dataset.publish([_annotation("b")])
        assert dataset.version == 2
        assert len(dataset) == 2

    def test_retract(self):
        dataset = SharedDataset()
        dataset.publish([_annotation("a")])
        dataset.retract("a")
        assert len(dataset) == 0
        with pytest.raises(PipelineError):
            dataset.retract("a")

    def test_staleness_and_sync(self):
        pipeline = _pipeline()
        session = pipeline.open_session("u1")
        pipeline.dataset.publish([_annotation("a")])
        pipeline.dataset.publish([_annotation("b")])
        assert session.staleness == 2
        advanced = session.sync()
        assert advanced == 2
        assert session.staleness == 0

    def test_probe_filters_own_view_only(self):
        pipeline = _pipeline()
        s1 = pipeline.open_session("u1")
        s2 = pipeline.open_session("u2")
        pipeline.dataset.publish([_annotation("keep"),
                                  _annotation("drop")])
        s1.sync()
        s2.sync()
        s1.open_probe(Probe(name="only-keep",
                            predicate=lambda a: a.annotation_id == "keep"))
        assert s1.visible_annotation_ids() == {"keep"}
        assert s2.visible_annotation_ids() == {"keep", "drop"}

    def test_close_probe(self):
        pipeline = _pipeline()
        session = pipeline.open_session("u1")
        session.open_probe(Probe(name="p", predicate=lambda a: False))
        session.close_probe("p")
        with pytest.raises(PipelineError):
            session.close_probe("p")

    def test_duplicate_probe_rejected(self):
        pipeline = _pipeline()
        session = pipeline.open_session("u1")
        session.open_probe(Probe(name="p", predicate=lambda a: True))
        with pytest.raises(PipelineError):
            session.open_probe(Probe(name="p", predicate=lambda a: True))


class TestTimeliness:
    def _profile(self):
        return StageProfile(pixels=320 * 240, features=200, matches=80,
                            ransac_iterations=60)

    def test_admit_frame_tracks_report(self):
        pipeline = _pipeline()
        timing = pipeline.timeliness.admit_frame(self._profile())
        report = pipeline.timeliness.report
        assert report.frames == 1
        assert timing.latency_s > 0
        assert timing.placement in ("local", "edge", "cloud")

    def test_always_local_slower_than_greedy_for_heavy_frames(self):
        heavy = StageProfile(pixels=1920 * 1080, features=2000,
                             matches=800, ransac_iterations=500)
        pipeline = _pipeline()
        pipeline.set_offload_policy(AlwaysLocal())
        local = pipeline.timeliness.admit_frame(heavy)
        pipeline.set_offload_policy(GreedyLatency())
        greedy = pipeline.timeliness.admit_frame(heavy)
        assert greedy.latency_s <= local.latency_s

    def test_miss_rate(self):
        pipeline = ARBigDataPipeline(PipelineConfig(
            seed=0, deadline_s=1e-9))
        pipeline.timeliness.admit_frame(self._profile())
        assert pipeline.timeliness.report.miss_rate == 1.0


class TestPrivacyGuard:
    def test_mode_none_passthrough(self):
        guard = PrivacyGuard(PrivacyConfig(location_mode="none"),
                             make_rng(0))
        assert guard.protect_location(1.0, 2.0) == (1.0, 2.0, 0.0)

    def test_laplace_perturbs(self):
        guard = PrivacyGuard(PrivacyConfig(location_mode="laplace",
                                           geo_epsilon=0.05), make_rng(1))
        x, y, err = guard.protect_location(0.0, 0.0)
        assert (x, y) != (0.0, 0.0)
        assert err == pytest.approx(40.0)

    def test_cloak_requires_instance(self):
        with pytest.raises(PrivacyError):
            PrivacyGuard(PrivacyConfig(location_mode="cloak"), make_rng(2))


class TestInfluence:
    def test_classify_score_thresholds(self):
        assert classify_score(0.0) == "absent"
        assert classify_score(0.1) == "low"
        assert classify_score(0.2) == "medium"
        assert classify_score(0.5) == "high"
        assert classify_score(0.8) == "very high"

    def test_out_of_range_rejected(self):
        with pytest.raises(PipelineError):
            classify_score(1.5)

    def test_classify_fields(self):
        levels = classify([FieldInfluence("retail", 0.7, 0.4)])
        assert levels[0].bigdata_level == "very high"
        assert levels[0].ar_level == "high"

    def test_paper_reference_covers_domain_apps(self):
        assert set(PAPER_FIGURE5) == {"retail", "tourism", "healthcare",
                                      "public-services"}
