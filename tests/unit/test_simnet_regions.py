"""Unit tests: region/zone tags, region topology builder, and the
region failure scenarios (asymmetric partitions, partial region loss,
heal-after-partition restoration)."""

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
from repro.util.errors import ConfigError, NetworkError
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
        topo = region_topology(make_rng(1), edge_regions=("e1", "e2"),
                               devices_per_zone=2)
        assert topo.regions() == ["core", "e1", "e2"]
        assert {s.name for s in topo.nodes(role="edge")} == \
            {"e1-edge", "e2-edge"}
        assert len(topo.nodes(role="device", region="e1")) == 2
        assert topo.node("e1-edge").zone == "e1"

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

    def test_duplicate_regions_rejected(self):
        with pytest.raises(ConfigError):
            region_topology(make_rng(0), edge_regions=("e", "e"))


class TestRegionLoss:
    def test_whole_region_loss_kills_routes(self):
        topo = _two_region_topo()
        topo.fail_region("ra")
        assert not topo.reachable("b1", "a1")
        topo.recover_region("ra")
        assert topo.route("b1", "a1") == ["b1", "a2", "a1"]

    def test_partial_region_loss_reroutes(self):
        """Losing part of a region only kills routes through it."""
        topo = region_topology(make_rng(2), edge_regions=("e1", "e2"),
                               fallback=None)
        topo.fail_node("e1-edge")
        assert not topo.reachable("e1-dev0", "core")  # zone uplink gone
        assert topo.reachable("e2-dev0", "core")      # other region fine

    def test_cellular_fallback_survives_edge_loss(self):
        """With the LTE fallback link, losing the zone edge server
        degrades the device to core instead of cutting it off."""
        topo = region_topology(make_rng(2), edge_regions=("e1", "e2"))
        topo.fail_node("e1-edge")
        assert topo.reachable("e1-dev0", "core")
        assert topo.route("e1-dev0", "core") == ["e1-dev0", "core"]

    def test_devices_never_forward_transit_traffic(self):
        """A client device can terminate a route but not relay one:
        with the edge's own links cut, core must not reach it by
        bouncing through another device's fallback link."""
        topo = region_topology(make_rng(2), edge_regions=("e1", "e2"))
        # cut both directions of each of the edge's links
        for other in ("core", "e2-edge"):
            topo._blocked |= {(other, "e1-edge"), ("e1-edge", other)}
        assert not topo.reachable("core", "e1-edge")

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
        assert injector.region_injected[0].mode == "loss"


class TestAsymmetricPartition:
    def test_partition_out_blocks_only_outbound(self):
        topo = _two_region_topo()
        topo.partition_region("ra", "out")
        assert not topo.reachable("a1", "b1")
        assert topo.reachable("b1", "a1")

    def test_partition_in_blocks_only_inbound(self):
        topo = _two_region_topo()
        topo.partition_region("ra", "in")
        assert topo.reachable("a1", "b1")
        assert not topo.reachable("b1", "a1")

    def test_full_partition_blocks_both(self):
        topo = _two_region_topo()
        blocked = topo.partition_region("ra")
        assert blocked == 2  # one boundary link, two directions
        assert not topo.reachable("a1", "b1")
        assert not topo.reachable("b1", "a1")
        # intra-region traffic unaffected
        assert topo.reachable("a1", "a2")

    def test_scheduled_asymmetric_partition(self):
        topo = _two_region_topo()
        sim = Simulator()
        injector = FailureInjector(sim, topo)
        injector.schedule_region(RegionFailureEvent(
            region="ra", down_at=1.0, up_at=3.0, mode="partition_out"))
        sim.run(until=2.0)
        assert not topo.reachable("a1", "b1")
        assert topo.reachable("b1", "a1")
        sim.run(until=4.0)
        assert topo.reachable("a1", "b1")

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            RegionFailureEvent(region="ra", down_at=0.0, up_at=1.0,
                               mode="wat")


class TestHealAfterPartition:
    def test_heal_restores_exact_link_state(self):
        topo = _two_region_topo()
        before = topo.route("a1", "b1")
        topo.partition_region("ra")
        assert topo._blocked
        healed = topo.heal_region("ra")
        assert healed == 2
        assert topo._blocked == set()
        assert topo.route("a1", "b1") == before

    def test_heal_leaves_unrelated_blocks(self):
        topo = Topology(make_rng(3))
        lan = LinkSpec(latency_s=1e-3, bandwidth_bps=1e8)
        for name, region in (("a", "ra"), ("b", "rb"), ("c", "rc")):
            topo.add_node(NodeSpec(name, 1e9, region=region))
        topo.add_link("a", "b", lan)
        topo.add_link("b", "c", lan)
        topo.partition_region("ra")
        topo.partition_region("rc")
        topo.heal_region("ra")
        assert topo.reachable("a", "b")
        assert not topo.reachable("b", "c")

    def test_scheduled_partition_heals_on_time(self):
        topo = _two_region_topo()
        sim = Simulator()
        injector = FailureInjector(sim, topo)
        injector.schedule_region(RegionFailureEvent(
            region="rb", down_at=0.5, up_at=2.5, mode="partition"))
        sim.run(until=1.0)
        assert not topo.reachable("a1", "b1")
        sim.run(until=3.0)
        assert topo._blocked == set()
        assert topo.reachable("a1", "b1")
