"""Edge-path tests across subsystems: the behaviours that only show up
in corner cases."""

import numpy as np

from repro.eventlog import (
    ConsumerGroup,
    LogCluster,
    Producer,
    TopicConfig,
)
from repro.offload import Pipeline, TaskStage
from repro.render import Compositor, SceneGraph
from repro.streaming import (
    Element,
    JobBuilder,
    ParallelExecutor,
    TumblingWindows,
)
from repro.util.rng import RngRegistry
from repro.vision import CameraIntrinsics, look_at


class TestRngRegistry:
    def test_same_name_same_stream(self):
        registry = RngRegistry(seed=5)
        a = registry.get("gps")
        assert a is registry.get("gps")

    def test_different_names_independent(self):
        registry = RngRegistry(seed=5)
        a = registry.get("a").random(100)
        b = registry.get("b").random(100)
        assert not np.allclose(a, b)

    def test_name_mapping_stable_across_instances(self):
        a = RngRegistry(seed=5).get("stream").random(10)
        b = RngRegistry(seed=5).get("stream").random(10)
        assert np.allclose(a, b)

    def test_registration_order_irrelevant(self):
        r1 = RngRegistry(seed=9)
        r1.get("x")
        v1 = r1.get("y").random(5)
        r2 = RngRegistry(seed=9)
        v2 = r2.get("y").random(5)  # no prior get("x")
        assert np.allclose(v1, v2)


class TestEventlogEdges:
    def test_send_batch_with_key_fn(self):
        cluster = LogCluster(1)
        cluster.create_topic(TopicConfig("t", partitions=4,
                                         replication=1))
        producer = Producer(cluster)
        coords = producer.send_batch("t", [{"u": f"user{i}"}
                                           for i in range(10)],
                                     key_fn=lambda v: v["u"])
        assert len(coords) == 10
        assert producer.sent == 10

    def test_group_committed_none_before_commit(self):
        cluster = LogCluster(1)
        cluster.create_topic(TopicConfig("t", partitions=2,
                                         replication=1))
        group = ConsumerGroup(cluster, "t", "g")
        group.join("m")
        assert group.committed(0) is None


class TestStreamingEdges:
    def test_max_cycles_stops_early(self):
        elements = [Element(value=i, timestamp=float(i))
                    for i in range(1000)]
        builder = JobBuilder("j")
        builder.source("s", elements).map(lambda v: v).sink("out")
        executor = ParallelExecutor(builder.build())
        executor.run(source_batch=10, max_cycles=3)
        assert len(executor.sinks["out"]) == 30
        executor.run()  # completes the rest
        assert len(executor.sinks["out"]) == 1000

    def test_flush_idempotent(self):
        elements = [Element(value=1, timestamp=1.0, key="k")]
        builder = JobBuilder("j")
        (builder.source("s", elements)
                .key_by(lambda v: "k")
                .window(TumblingWindows(10.0), "count")
                .sink("out"))
        executor = ParallelExecutor(builder.build())
        executor.run()
        count_after_first = len(executor.sinks["out"])
        executor.run()  # second run: flush must not double-fire
        assert len(executor.sinks["out"]) == count_after_first == 1

    def test_window_builder_aggregates(self):
        for aggregate, expected in (("sum", 10.0), ("min", 1.0),
                                    ("max", 4.0)):
            elements = [Element(value=float(v), timestamp=float(i))
                        for i, v in enumerate([1, 2, 3, 4])]
            builder = JobBuilder("j")
            (builder.source("s", elements)
                    .with_watermarks(0.0)
                    .key_by(lambda v: "all")
                    .window(TumblingWindows(100.0), aggregate)
                    .sink("out"))
            sinks = ParallelExecutor(builder.build()).run()
            assert sinks["out"].values[0].value == expected


class TestRenderEdges:
    def test_empty_scene_composites_cleanly(self):
        intr = CameraIntrinsics(fx=100, fy=100, cx=50, cy=50, width=100,
                                height=100)
        frame = Compositor(intr).compose(SceneGraph(),
                                         look_at(eye=[0, 0, 0],
                                                 target=[0, 0, 1]))
        assert frame.items == []
        assert frame.layout.useful_ratio == 1.0


class TestOffloadEdges:
    def test_unpinned_pipeline_allows_cut_zero(self):
        pipeline = Pipeline("p", (TaskStage("a", 1e6, 100),
                                  TaskStage("b", 1e6, 100)))
        assert pipeline.valid_cuts() == [0, 1, 2]
        # Cut 0 ships stage 0's input, approximated by its output size.
        assert pipeline.upload_bytes(0) == 100

    def test_fully_pinned_pipeline_is_local_only(self):
        pipeline = Pipeline("p", (
            TaskStage("a", 1e6, 100, pinned="device"),
            TaskStage("b", 1e6, 100, pinned="device")))
        cuts = pipeline.valid_cuts()
        assert all(pipeline.remote_cycles(c) == 0 for c in cuts)
