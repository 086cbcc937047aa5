"""Unit tests: region-affinity placement through the plan compiler —
chain fencing at region boundaries, declared cross-region edges,
inter-region link cost in the modelled makespan."""

import pytest

from repro.chaos import canonical_sinks, fault_free_sinks, reference_job
from repro.simnet import region_topology
from repro.streaming import (
    JobBuilder,
    ParallelExecutor,
    RegionPlacement,
    compile_execution_graph,
    placement_from_topology,
)
from repro.streaming.windows import TumblingWindows
from repro.util.errors import JobGraphError
from repro.util.rng import make_rng


def _events(n: int = 40):
    from repro.streaming.element import Element
    return [Element(value={"k": i % 4, "v": float(i)}, timestamp=float(i))
            for i in range(n)]


def _job(declare: bool = True):
    builder = JobBuilder("geo")
    (builder.source("events", _events())
            .map(lambda v: v, name="prep")
            .key_by(lambda v: v["k"], name="by_key")
            .window(TumblingWindows(10.0), "sum",
                    value_fn=lambda v: v["v"], name="window_sum")
            .sink("out"))
    builder.pin_region("events", "edge-a")
    builder.pin_region("prep", "edge-a")
    builder.pin_region("by_key", "core")
    builder.pin_region("window_sum", "core")
    builder.pin_region("out", "core")
    if declare:
        builder.declare_cross_region("prep", "by_key")
    return builder.build()


class TestRegionPlacement:
    def test_pins_resolved_with_default(self):
        placement = RegionPlacement(regions={"a": "edge"},
                                    default_region="core")
        assert placement.region_of("a") == "edge"
        assert placement.region_of("other") == "core"

    def test_link_cost_symmetric_with_default(self):
        placement = RegionPlacement(
            link_latency_s={frozenset(("a", "b")): 0.004})
        assert placement.link_cost_s("a", "b") == 0.004
        assert placement.link_cost_s("b", "a") == 0.004
        assert placement.link_cost_s("a", "a") == 0.0
        assert placement.link_cost_s("a", "zzz") == \
            placement.default_link_latency_s

    def test_moved_is_immutable_copy(self):
        base = RegionPlacement(regions={"a": "r1"})
        moved = base.moved("a", "r2")
        assert base.region_of("a") == "r1"
        assert moved.region_of("a") == "r2"


class TestCompileWithPlacement:
    def test_chains_never_cross_regions(self):
        job = _job()
        graph = compile_execution_graph(job, 1)
        # prep (edge-a) must not fuse with by_key/window (core)
        for node in graph.nodes.values():
            regions = {graph.node_regions[m] for m in node.members}
            assert len(regions) == 1
        assert graph.node_regions["prep"] == "edge-a"
        assert graph.node_regions["window_sum"] == "core"

    def test_undeclared_cross_region_edge_rejected(self):
        job = _job(declare=False)
        with pytest.raises(JobGraphError, match="never declared"):
            compile_execution_graph(job, 1)

    def test_declared_edge_carries_link_cost(self):
        job = _job()
        placement = RegionPlacement(
            regions=dict(job.regions),
            link_latency_s={frozenset(("edge-a", "core")): 0.05})
        graph = compile_execution_graph(job, 2, placement=placement)
        cross = graph.cross_region_edges()
        assert cross and all(e.link_cost_s == 0.05 for e in cross)
        assert {(e.up, e.down) for e in cross} == {("prep", "by_key")}
        assert "x-region" in graph.describe()

    def test_flat_job_unaffected(self):
        job = reference_job(_events())
        graph = compile_execution_graph(job, 2)
        assert graph.placement is None
        assert graph.node_regions == {}
        assert graph.cross_region_edges() == []

    def test_placement_overrides_job_pins(self):
        job = _job()
        placement = RegionPlacement(regions={**job.regions,
                                             "prep": "core",
                                             "events": "core"})
        graph = compile_execution_graph(job, 1, placement=placement)
        assert graph.node_regions["prep"] == "core"
        assert graph.cross_region_edges() == []

    def test_undeclared_pin_rejected_by_validate(self):
        builder = JobBuilder("bad")
        builder.source("s", _events()).map(lambda v: v,
                                           name="m").sink("out")
        builder.pin_region("ghost", "core")
        with pytest.raises(JobGraphError, match="unknown node"):
            builder.build()

    def test_undeclared_cross_region_declaration_rejected(self):
        builder = JobBuilder("bad")
        builder.source("s", _events()).map(lambda v: v,
                                           name="m").sink("out")
        builder.declare_cross_region("m", "ghost")
        with pytest.raises(JobGraphError, match="does not exist"):
            builder.build()


class TestPlacedExecution:
    def test_placed_run_bit_identical_to_flat(self):
        golden = canonical_sinks(fault_free_sinks(
            lambda: _job(), parallelism=2))
        executor = ParallelExecutor(_job(), 2)
        sinks = executor.run(source_batch=16)
        got = canonical_sinks({n: list(b.values)
                               for n, b in sinks.items()})
        assert got == golden

    def test_cross_region_traffic_accounted(self):
        executor = ParallelExecutor(_job(), 2)
        executor.run(source_batch=16)
        assert executor.cross_region_packets > 0
        assert executor.cross_region_transfer_s > 0.0
        assert executor.modeled_makespan_s >= \
            executor.cross_region_transfer_s / executor.cross_region_packets

    def test_colocated_pays_nothing(self):
        job = _job()
        placement = RegionPlacement(regions={}, default_region="core")
        # placement overrides pins only for nodes it maps; pin everything
        placement = placement.moved_all(
            "core", list(job.sources) + list(job.operators)
            + list(job.sinks))
        executor = ParallelExecutor(job, 2, placement=placement)
        executor.run(source_batch=16)
        assert executor.cross_region_packets == 0
        assert executor.cross_region_transfer_s == 0.0


class TestPlacementFromTopology:
    def test_costs_from_nominal_latency(self):
        topo = region_topology(make_rng(0))
        placement = placement_from_topology(
            topo, {"events": "edge-a", "window_sum": "core"},
            default_region="core")
        best = min(
            topo.nominal_path_latency(a, "core")
            for a in ("edge-a-edge", "edge-a-dev0", "edge-a-dev1"))
        assert placement.link_cost_s("edge-a", "core") == \
            pytest.approx(best)

    def test_unknown_region_rejected(self):
        topo = region_topology(make_rng(0))
        with pytest.raises(JobGraphError):
            placement_from_topology(topo, {"events": "mars"})


class TestGeoDeployment:
    def test_a_geo_jobs_operators_publish_metrics(self):
        """The geo deployment's executors are built by the one
        supervisor builder, so its operators publish like any other."""
        from repro.eventlog import LogCluster, Producer, TopicConfig
        from repro.geo import GeoDeployment
        from repro.streaming import parallel_log_source

        topic = "geo.events"
        primary = LogCluster(num_brokers=1)
        primary.create_topic(TopicConfig(name=topic, partitions=2))
        producer = Producer(primary, idempotent=True)
        for i in range(40):
            producer.send(topic, {"k": i % 4, "v": float(i)},
                          key=f"k-{i % 4}", timestamp=float(i))

        def build(cluster):
            builder = JobBuilder("geo-metrics")
            factory, splits = parallel_log_source(cluster, topic)
            (builder.source(topic, splits=splits, split_factory=factory)
                    .key_by(lambda v: v["k"], name="by_key")
                    .window(TumblingWindows(10.0), "sum",
                            value_fn=lambda v: v["v"], name="window_sum")
                    .sink("out"))
            return builder.build()

        deployment = GeoDeployment(
            build, primary_cluster=primary,
            standby_cluster=LogCluster(num_brokers=1), topic=topic,
            source_batch=8)
        report = deployment.run()
        assert report.sink_values["out"] and report.mirror_pumped == 40
        for op in ("by_key", "window_sum"):
            gauge = deployment.metrics.gauge("op.processed", op=op)
            assert gauge.updated and gauge.value > 0, op
