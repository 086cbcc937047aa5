"""Unit tests: links, topology routing, failure-aware paths."""

import pytest

from repro.simnet import LINK_PRESETS, Link, LinkSpec, NodeSpec, Topology
from repro.util.errors import ConfigError, NetworkError
from repro.util.rng import make_rng


class TestLinkSpec:
    def test_nominal_transfer_time(self):
        spec = LinkSpec(latency_s=0.01, bandwidth_bps=1000.0)
        assert spec.nominal_transfer_time(500) == pytest.approx(0.51)

    def test_zero_size_costs_propagation(self):
        spec = LinkSpec(latency_s=0.02, bandwidth_bps=1e6)
        assert spec.nominal_transfer_time(0) == pytest.approx(0.02)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            LinkSpec(latency_s=0.0, bandwidth_bps=0.0)

    def test_invalid_loss_rejected(self):
        with pytest.raises(ConfigError):
            LinkSpec(latency_s=0.0, bandwidth_bps=1.0, loss_rate=1.0)

    def test_presets_exist(self):
        for name in ("wifi", "lte", "5g", "wan", "lan", "loopback"):
            assert name in LINK_PRESETS


class TestLink:
    def test_no_jitter_no_loss_is_nominal(self):
        spec = LinkSpec(latency_s=0.01, bandwidth_bps=1000.0)
        link = Link(spec, make_rng(0))
        assert link.transfer_time(1000) == pytest.approx(1.01)

    def test_jitter_only_adds_delay(self):
        spec = LinkSpec(latency_s=0.01, bandwidth_bps=1e9, jitter_s=0.005)
        link = Link(spec, make_rng(1))
        for _ in range(50):
            assert link.transfer_time(100) >= spec.nominal_transfer_time(100)

    def test_loss_triggers_retries(self):
        spec = LinkSpec(latency_s=0.01, bandwidth_bps=1e6, loss_rate=0.3)
        link = Link(spec, make_rng(2))
        times = []
        for _ in range(100):
            try:
                times.append(link.transfer_time(100))
            except NetworkError:
                pass  # an unlucky total loss is legal at 30% loss rate
        assert link.retries > 0
        nominal = spec.nominal_transfer_time(100)
        assert max(times) >= 2 * nominal  # at least one retry happened

    def test_total_loss_raises(self):
        spec = LinkSpec(latency_s=0.01, bandwidth_bps=1e6, loss_rate=0.99)
        link = Link(spec, make_rng(3))  # 6 tries of 1 % each
        with pytest.raises(NetworkError):
            for _ in range(200):
                link.transfer_time(10)

    def test_round_trip_is_two_transfers(self):
        spec = LinkSpec(latency_s=0.01, bandwidth_bps=1000.0)
        link = Link(spec, make_rng(0))
        rtt = link.round_trip_time(1000, 500)
        assert rtt == pytest.approx(1.01 + 0.51)


class TestTopology:
    def _three_tier(self):
        topology = Topology(make_rng(0))
        topology.add_node(NodeSpec("device", cpu_hz=2e9, role="device"))
        topology.add_node(NodeSpec("edge", cpu_hz=16e9, role="edge"))
        topology.add_node(NodeSpec("cloud", cpu_hz=64e9, role="cloud"))
        topology.add_link("device", "edge",
                          LinkSpec(latency_s=0.002, bandwidth_bps=25e6))
        topology.add_link("edge", "cloud",
                          LinkSpec(latency_s=0.050, bandwidth_bps=12.5e6))
        return topology

    def test_duplicate_node_rejected(self):
        topology = Topology(make_rng(0))
        topology.add_node(NodeSpec("a", cpu_hz=1e9))
        with pytest.raises(ConfigError):
            topology.add_node(NodeSpec("a", cpu_hz=1e9))

    def test_self_link_rejected(self):
        topology = Topology(make_rng(0))
        topology.add_node(NodeSpec("a", cpu_hz=1e9))
        with pytest.raises(ConfigError):
            topology.add_link("a", "a", LinkSpec(latency_s=0, bandwidth_bps=1))

    def test_route_multi_hop(self):
        topology = self._three_tier()
        assert topology.route("device", "cloud") == ["device", "edge",
                                                     "cloud"]

    def test_nodes_by_role(self):
        topology = self._three_tier()
        assert [n.name for n in topology.nodes(role="edge")] == ["edge"]

    def test_transfer_same_node_is_free(self):
        topology = self._three_tier()
        assert topology.transfer_time("device", "device", 1e6) == 0.0

    def test_multi_hop_transfer_sums_links(self):
        topology = self._three_tier()
        t = topology.transfer_time("device", "cloud", 1e6)
        expected = (0.002 + 1e6 / 25e6) + (0.050 + 1e6 / 12.5e6)
        assert t == pytest.approx(expected)

    def test_failed_node_breaks_route(self):
        topology = self._three_tier()
        topology.fail_node("edge")
        with pytest.raises(NetworkError):
            topology.route("device", "cloud")

    def test_recovery_restores_route(self):
        topology = self._three_tier()
        topology.fail_node("edge")
        topology.recover_node("edge")
        assert topology.route("device", "cloud") == ["device", "edge",
                                                     "cloud"]

    def test_nominal_path_latency(self):
        topology = self._three_tier()
        assert topology.nominal_path_latency("device", "cloud") == \
            pytest.approx(0.052)

    def test_replace_link(self):
        topology = self._three_tier()
        topology.replace_link("device", "edge",
                              LinkSpec(latency_s=0.1, bandwidth_bps=1e6))
        assert topology.nominal_path_latency("device", "edge") == \
            pytest.approx(0.1)

    def test_replace_missing_link_rejected(self):
        topology = self._three_tier()
        with pytest.raises(ConfigError):
            topology.replace_link("device", "cloud",
                                  LinkSpec(latency_s=0, bandwidth_bps=1))
