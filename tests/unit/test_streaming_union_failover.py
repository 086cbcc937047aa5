"""Unit tests: implicit source union in the executor; offload fallback
when tiers fail."""

from repro.offload import GreedyLatency, OffloadPlanner, vision_pipeline
from repro.simnet import LINK_PRESETS, NodeSpec, Topology
from repro.streaming import Element, JobBuilder, ParallelExecutor
from repro.util.rng import make_rng
from repro.vision.tracker import StageProfile


class TestSourceUnion:
    def test_two_sources_into_one_operator(self):
        """Two edges into a single-input operator behave as a union."""
        a = [Element(value=("a", i), timestamp=float(i)) for i in range(3)]
        b = [Element(value=("b", i), timestamp=float(i)) for i in range(4)]
        builder = JobBuilder("union")
        op = builder.source("a", a).map(lambda v: v, name="merge")
        builder._add_edge("b", "merge", None)
        builder.source("b", b)
        op.sink("out")
        sinks = ParallelExecutor(builder.build()).run()
        assert len(sinks["out"]) == 7
        tags = {v[0] for v in sinks["out"].values}
        assert tags == {"a", "b"}

    def test_union_preserves_all_elements(self):
        streams = {f"s{i}": [Element(value=i * 100 + j, timestamp=float(j))
                             for j in range(5)] for i in range(3)}
        builder = JobBuilder("union3")
        first = None
        for name, elements in sorted(streams.items()):
            handle = builder.source(name, elements)
            if first is None:
                first = handle.map(lambda v: v, name="merge")
            else:
                builder._add_edge(name, "merge", None)
        first.sink("out")
        sinks = ParallelExecutor(builder.build()).run()
        assert sorted(sinks["out"].values) == sorted(
            v.value for vs in streams.values() for v in vs)


class TestOffloadFailover:
    def _planner(self):
        topology = Topology(make_rng(0))
        topology.add_node(NodeSpec("device", cpu_hz=2e9, role="device"))
        topology.add_node(NodeSpec("edge", cpu_hz=16e9, role="edge"))
        topology.add_node(NodeSpec("cloud", cpu_hz=64e9, role="cloud"))
        topology.add_link("device", "edge", LINK_PRESETS["wifi"])
        topology.add_link("edge", "cloud", LINK_PRESETS["wan"])
        return topology, OffloadPlanner(topology, "device")

    def _profile(self):
        return StageProfile(pixels=1280 * 720, features=800, matches=300,
                            ransac_iterations=200)

    def test_greedy_uses_edge_when_up(self):
        _topology, planner = self._planner()
        decision = GreedyLatency().decide(planner,
                                          vision_pipeline(self._profile()))
        assert decision.outcome.tier_node in ("edge", "cloud")

    def test_greedy_falls_back_to_local_when_all_tiers_down(self):
        topology, planner = self._planner()
        topology.fail_node("edge")
        topology.fail_node("cloud")
        decision = GreedyLatency().decide(planner,
                                          vision_pipeline(self._profile()))
        assert decision.outcome.is_local

    def test_greedy_recovers_when_tier_returns(self):
        topology, planner = self._planner()
        topology.fail_node("edge")
        topology.fail_node("cloud")
        pipeline = vision_pipeline(self._profile())
        assert GreedyLatency().decide(planner, pipeline).outcome.is_local
        topology.recover_node("edge")
        assert not GreedyLatency().decide(planner,
                                          pipeline).outcome.is_local

    def test_edge_down_routes_to_cloud_fails_gracefully(self):
        """Edge down also severs the only path to the cloud — greedy
        must notice the cloud is unreachable, not crash."""
        topology, planner = self._planner()
        topology.fail_node("edge")
        decision = GreedyLatency().decide(planner,
                                          vision_pipeline(self._profile()))
        assert decision.outcome.is_local
