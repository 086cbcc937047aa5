"""Integration tests: cross-substrate flows that mirror the paper's
architecture diagrams end to end."""

import numpy as np
import pytest

from repro.context.entities import SemanticEntity
from repro.core import ARBigDataPipeline, PipelineConfig, PrivacyConfig
from repro.datagen import WindField, Building
from repro.eventlog import ConsumerGroup
from repro.render.occlusion import BoxOccluder, OcclusionWorld
from repro.streaming.connectors import log_source
from repro.streaming.graph import JobBuilder
from repro.streaming.execution import ParallelExecutor
from repro.streaming.windows import TumblingWindows
from repro.util.rng import make_rng
from repro.vision import (
    CameraIntrinsics,
    PlanarTarget,
    PlanarTracker,
    look_at,
    make_texture,
    render_plane,
)

INTR = CameraIntrinsics(fx=400, fy=400, cx=160, cy=120, width=320,
                        height=240)


def _wind_samples(field, rng, n, bounds=(0, 0, 100, 100), noise=0.1,
                  rate_per_s=100.0):
    """``n`` noisy anemometer readings at uniform points, as log dicts."""
    x0, y0, x1, y1 = bounds
    out = []
    for i in range(n):
        x = float(rng.uniform(x0, x1))
        y = float(rng.uniform(y0, y1))
        vx, vy = field.velocity(x, y)
        out.append({"sensor": f"anem-{i % 64:02d}", "t": i / rate_per_s,
                    "x": x, "y": y,
                    "vx": vx + float(rng.normal(0, noise)),
                    "vy": vy + float(rng.normal(0, noise))})
    return out


class TestSensorToOverlayFlow:
    """sensors -> log -> window job -> interpretation -> session render."""

    def test_full_loop(self):
        pipeline = ARBigDataPipeline(PipelineConfig(seed=11))
        pipeline.create_topic("wind")
        field = WindField([Building("tower", 50, 50, 10, 40)])
        rng = make_rng(11)
        for sample in _wind_samples(field, rng, 400):
            pipeline.ingest("wind", sample, key=sample["sensor"],
                            timestamp=sample["t"])
        # Windowed mean wind speed per sensor.
        results = pipeline.windowed_aggregate(
            "wind", key_fn=lambda v: v["sensor"],
            value_fn=lambda v: float(np.hypot(v["vx"], v["vy"])),
            window_s=1.0, aggregate="mean")
        assert results
        # Sensors become entities at their (first-seen) positions.
        seen = set()
        group = ConsumerGroup(pipeline.log, "wind", "reg")
        for row in group.join("m").poll(10_000):
            name = row.value["sensor"]
            if name not in seen:
                seen.add(name)
                pipeline.add_entity(SemanticEntity(
                    entity_id=name, entity_type="sensor",
                    position=np.array([row.value["x"], row.value["y"],
                                       10.0]),
                    name=name))
        pipeline.interpreter.register_default("wind-speed")
        bound = pipeline.interpret_and_publish([
            {"tag": "wind-speed", "subject": r.key,
             "value": f"{r.value:.1f} m/s", "priority": r.value}
            for r in results])
        assert bound.coverage == 1.0
        session = pipeline.open_session("worker-1")
        session.sync()
        pose = look_at(eye=[50.0, -40.0, 20.0], target=[50.0, 50.0, 10.0],
                       up=np.array([0.0, 0.0, 1.0]))
        frame = session.render(pose)
        assert frame.drawn > 0
        assert frame.layout.overlapping == 0  # decluttered by default


class TestVisionToOffloadFlow:
    """camera frames -> tracker -> workload profile -> offload pricing."""

    def test_tracked_frames_price_offload(self):
        rng = make_rng(12)
        pipeline = ARBigDataPipeline(PipelineConfig(seed=12))
        target = PlanarTarget(make_texture(rng), 0.5, 0.5)
        tracker = PlanarTracker(target, INTR, rng)
        for i in range(3):
            pose = look_at(eye=[0.2 + 0.02 * i, 0.25, -0.8],
                           target=[0.25, 0.25, 0.0])
            frame = render_plane(target, INTR, pose, rng=rng,
                                 noise_sigma=0.01)
            tracker.track(frame)
            timing = pipeline.timeliness.admit_frame(tracker.last_profile)
            assert timing.latency_s > 0
        report = pipeline.timeliness.report
        assert report.frames == 3
        assert report.mean_latency_s < 1.0


class TestPrivacyBoundaryFlow:
    """personal streams pass the guard before analytics sees them."""

    def test_guard_protects_before_log(self):
        pipeline = ARBigDataPipeline(PipelineConfig(
            seed=13,
            privacy=PrivacyConfig(location_mode="laplace",
                                  geo_epsilon=0.02)))
        pipeline.create_topic("checkins")
        true_positions = {}
        for i in range(50):
            user = f"user-{i % 5}"
            x, y = float(10 * i % 97), float(7 * i % 89)
            true_positions.setdefault(user, []).append((x, y))
            pipeline.ingest("checkins", {"user": user, "x": x, "y": y},
                            key=user, timestamp=float(i), personal=True)
        rows = ConsumerGroup(pipeline.log, "checkins",
                             "g").join("m").poll(1000)
        assert len(rows) == 50
        for row in rows:
            assert row.value["user"].startswith("anon-")
        assert pipeline.guard.locations_processed == 50


class TestLogStreamWindowJoin:
    """two topics joined by key within a time interval."""

    def test_gaze_purchase_join(self):
        pipeline = ARBigDataPipeline(PipelineConfig(seed=14))
        pipeline.create_topic("gaze")
        pipeline.create_topic("purchase")
        for i in range(20):
            pipeline.ingest("gaze", {"user": f"u{i % 4}", "item": f"p{i}"},
                            key=f"u{i % 4}", timestamp=float(i))
        for i in range(0, 20, 2):
            pipeline.ingest("purchase",
                            {"user": f"u{i % 4}", "item": f"p{i}"},
                            key=f"u{i % 4}", timestamp=float(i) + 0.5)
        builder = JobBuilder("join-job")
        gaze = (builder.source("gaze", log_source(pipeline.log, "gaze"))
                       .key_by(lambda v: v["user"]))
        purchase = (builder.source("purchase",
                                   log_source(pipeline.log, "purchase"))
                           .key_by(lambda v: v["user"]))
        (gaze.join(purchase, lower=0.0, upper=1.0)
             .map(lambda j: (j.left["item"], j.right["item"]))
             .sink("out"))
        sinks = ParallelExecutor(builder.build()).run()
        # Every purchase at t+0.5 matches gazes in [t-0.5, t+0.5] for the
        # same user: the gaze at t always; t+1 gaze has different parity
        # user except when (i+1)%4 == i%4 (never). So exactly 10 matches.
        assert len(sinks["out"]) == 10
        assert all(g == p for g, p in sinks["out"].values)


class TestMultiUserConsistency:
    """Figure 4: N users sharing one dataset, probing independently."""

    def test_sessions_diverge_only_by_probe(self):
        pipeline = ARBigDataPipeline(PipelineConfig(seed=15))
        for i in range(10):
            pipeline.add_entity(SemanticEntity(
                entity_id=f"e{i}", entity_type="blob",
                position=np.array([float(i - 5), 0.0, 6.0]),
                name=f"e{i}"))
        pipeline.interpreter.register_default("blob")
        pipeline.interpret_and_publish([
            {"tag": "blob", "subject": f"e{i}",
             "value": i, "priority": float(i)} for i in range(10)])
        users = [pipeline.open_session(f"u{i}") for i in range(4)]
        for session in users:
            session.sync()
        from repro.core import Probe
        users[0].open_probe(Probe(
            name="evens",
            predicate=lambda a: int(a.annotation_id.split("e")[-1]) % 2
            == 0))
        visible_0 = users[0].visible_annotation_ids()
        visible_1 = users[1].visible_annotation_ids()
        assert len(visible_0) == 5
        assert len(visible_1) == 10
        # New publishes raise staleness for everyone until they sync.
        pipeline.interpret_and_publish([
            {"tag": "blob", "subject": "e0", "value": 99,
             "priority": 1.0}])
        assert all(s.staleness == 1 for s in users)


class TestFailureRecoveryFlow:
    """broker failure mid-stream does not lose acknowledged data."""

    def test_log_failover_then_analytics(self):
        pipeline = ARBigDataPipeline(PipelineConfig(seed=16))
        pipeline.create_topic("events")
        for i in range(50):
            pipeline.ingest("events", {"k": i % 2, "v": float(i)},
                            key=str(i % 2), timestamp=float(i))
        pipeline.log.fail_broker(0)
        for i in range(50, 100):
            pipeline.ingest("events", {"k": i % 2, "v": float(i)},
                            key=str(i % 2), timestamp=float(i))
        results = pipeline.windowed_aggregate(
            "events", key_fn=lambda v: v["k"],
            value_fn=lambda v: v["v"], window_s=1000.0,
            aggregate="count")
        assert sum(r.value for r in results) == 100
