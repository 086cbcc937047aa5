"""Unit tests: region/zone tags, region topology builder, and the
region failure scenarios (whole and partial region loss)."""

import pytest

from repro.simnet import (
    LINK_PRESETS,
    FailureInjector,
    LinkSpec,
    NodeSpec,
    RegionFailureEvent,
    Simulator,
    Topology,
    region_topology,
)
from repro.util.errors import NetworkError
from repro.util.rng import make_rng


def _two_region_topo() -> Topology:
    topo = Topology(make_rng(0))
    lan = LinkSpec(latency_s=1e-3, bandwidth_bps=1e8)
    topo.add_node(NodeSpec("a1", 1e9, region="ra", zone="za"))
    topo.add_node(NodeSpec("a2", 1e9, region="ra", zone="za"))
    topo.add_node(NodeSpec("b1", 1e9, region="rb", zone="zb"))
    topo.add_link("a1", "a2", lan)
    topo.add_link("a2", "b1", lan)
    return topo


class TestRegionTags:
    def test_default_region(self):
        spec = NodeSpec("n", 1e9)
        assert spec.region == "default"
        assert spec.zone is None

    def test_region_filters_and_listing(self):
        topo = _two_region_topo()
        assert topo.regions() == ["ra", "rb"]
        assert {s.name for s in topo.nodes(region="ra")} == {"a1", "a2"}
        assert topo.region_of("b1") == "rb"

    def test_unknown_region_rejected(self):
        with pytest.raises(NetworkError):
            _two_region_topo().fail_region("nope")


class TestRegionTopologyBuilder:
    def test_builds_edges_devices_and_core(self):
        topo = region_topology(make_rng(1))
        assert topo.regions() == ["core", "edge-a", "edge-b"]
        assert {s.name for s in topo.nodes(role="edge")} == \
            {"edge-a-edge", "edge-b-edge"}
        assert len(topo.nodes(role="device", region="edge-a")) == 2
        assert topo.node("edge-a-edge").zone == "edge-a"

    def test_link_tiers(self):
        topo = region_topology(make_rng(1))
        # access link is wifi, inter-edge is metro, backhaul is wan
        assert topo.link("edge-a-dev0", "edge-a-edge").spec \
            == LINK_PRESETS["wifi"]
        assert topo.link("edge-a-edge", "edge-b-edge").spec \
            == LINK_PRESETS["metro"]
        assert topo.link("edge-a-edge", "core").spec == LINK_PRESETS["wan"]

    def test_edge_path_far_below_core_path(self):
        topo = region_topology(make_rng(1))
        edge = topo.nominal_path_latency("edge-a-dev0", "edge-a-edge")
        core = topo.nominal_path_latency("edge-a-dev0", "core")
        assert edge * 5 < core


class TestRegionLoss:
    def test_whole_region_loss_kills_routes(self):
        topo = _two_region_topo()
        topo.fail_region("ra")
        assert not topo.reachable("b1", "a1")
        topo.recover_region("ra")
        assert topo.route("b1", "a1") == ["b1", "a2", "a1"]

    def test_partial_region_loss_reroutes(self):
        """Losing part of a region only reroutes what went through it."""
        topo = region_topology(make_rng(2))
        assert topo.route("edge-a-dev0", "edge-b-dev0")[1] == "edge-a-edge"
        topo.fail_node("edge-a-edge")
        # the zone uplink is gone: edge-a's devices take the fallback
        assert "edge-a-edge" not in topo.route("edge-a-dev0", "edge-b-dev0")
        # the other region keeps its own edge server
        assert topo.route("edge-b-dev0", "edge-b-dev1") == \
            ["edge-b-dev0", "edge-b-edge", "edge-b-dev1"]

    def test_cellular_fallback_survives_edge_loss(self):
        """With the LTE fallback link, losing the zone edge server
        degrades the device to core instead of cutting it off."""
        topo = region_topology(make_rng(2))
        topo.fail_node("edge-a-edge")
        assert topo.reachable("edge-a-dev0", "core")
        assert topo.route("edge-a-dev0", "core") == ["edge-a-dev0", "core"]

    def test_devices_never_forward_transit_traffic(self):
        """A client device can terminate a route but not relay one: an
        edge whose only link out runs through a device's fallback is not
        reachable from core by bouncing through the device."""
        topo = Topology(make_rng(2))
        topo.add_node(NodeSpec("core", 64e9, role="cloud"))
        topo.add_node(NodeSpec("edge", 8e9, role="edge"))
        topo.add_node(NodeSpec("dev", 1.5e9, role="device", forwards=False))
        topo.add_link("dev", "edge", LINK_PRESETS["wifi"])
        topo.add_link("dev", "core", LINK_PRESETS["lte"])
        assert topo.reachable("core", "dev")
        assert topo.reachable("edge", "dev")
        assert not topo.reachable("core", "edge")

    def test_scheduled_region_loss_and_recovery(self):
        topo = _two_region_topo()
        sim = Simulator()
        injector = FailureInjector(sim, topo)
        injector.schedule_region(
            RegionFailureEvent(region="ra", down_at=1.0, up_at=3.0))
        sim.run(until=2.0)
        assert not topo.node("a1").up and not topo.node("a2").up
        assert topo.node("b1").up
        sim.run(until=4.0)
        assert topo.node("a1").up and topo.reachable("b1", "a1")
        assert injector.region_injected[0].region == "ra"
