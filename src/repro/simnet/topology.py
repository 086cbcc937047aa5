"""Cluster topology: named nodes connected by links, with routing.

Built on :mod:`networkx`: nodes carry compute capacity (cycles/s) and a
role (device / edge / cloud / broker), edges carry :class:`LinkSpec`s.
Path latency composes link transfer times along the shortest
(propagation-latency-weighted) route, which is how the offloading and
remote-healthcare experiments price device->edge->cloud hops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from ..util.errors import ConfigError, NetworkError
from .network import Link, LinkSpec

__all__ = ["NodeSpec", "Topology"]


@dataclass
class NodeSpec:
    """A compute node.

    cpu_hz      effective cycles per second available to tasks
    role        'device' | 'edge' | 'cloud' | 'broker' | arbitrary label
    cores       parallel task slots (queueing model uses this)
    power_w     active power draw, used by the energy model
    region      geographic region this node lives in (failure domain;
                whole-region loss and partitions act on this tag)
    zone        optional sub-region locality tag (an edge zone a mobile
                user can roam between); None for region-wide nodes
    """

    name: str
    cpu_hz: float
    role: str = "device"
    cores: int = 1
    power_w: float = 1.0
    up: bool = field(default=True)
    region: str = "default"
    zone: str | None = None
    #: whether this node relays transit traffic; client endpoints set
    #: False so routes never bounce through somebody's handset
    forwards: bool = True

    def __post_init__(self) -> None:
        if self.cpu_hz <= 0:
            raise ConfigError(f"node {self.name!r}: cpu_hz must be positive")
        if self.cores < 1:
            raise ConfigError(f"node {self.name!r}: cores must be >= 1")


class Topology:
    """Named nodes + links with shortest-path routing and failure state."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._graph = nx.Graph()
        self._rng = rng
        self._links: dict[frozenset[str], Link] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, spec: NodeSpec) -> NodeSpec:
        if spec.name in self._graph:
            raise ConfigError(f"duplicate node {spec.name!r}")
        self._graph.add_node(spec.name, spec=spec)
        return spec

    def add_link(self, a: str, b: str, spec: LinkSpec) -> Link:
        for name in (a, b):
            if name not in self._graph:
                raise ConfigError(f"unknown node {name!r}")
        if a == b:
            raise ConfigError("self-links are not allowed")
        link = Link(spec, self._rng)
        self._graph.add_edge(a, b, spec=spec, weight=spec.latency_s)
        self._links[frozenset((a, b))] = link
        return link

    def replace_link(self, a: str, b: str, spec: LinkSpec) -> Link:
        """Swap the link between ``a`` and ``b`` for one with ``spec``
        (e.g. to degrade the network mid-experiment)."""
        if frozenset((a, b)) not in self._links:
            raise ConfigError(f"no existing link between {a!r} and {b!r}")
        link = Link(spec, self._rng)
        self._graph.edges[a, b]["spec"] = spec
        self._graph.edges[a, b]["weight"] = spec.latency_s
        self._links[frozenset((a, b))] = link
        return link

    # -- lookup -----------------------------------------------------------

    def node(self, name: str) -> NodeSpec:
        try:
            return self._graph.nodes[name]["spec"]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def nodes(self, role: str | None = None,
              region: str | None = None) -> list[NodeSpec]:
        specs = [data["spec"] for _n, data in self._graph.nodes(data=True)]
        if role is not None:
            specs = [s for s in specs if s.role == role]
        if region is not None:
            specs = [s for s in specs if s.region == region]
        return specs

    def regions(self) -> list[str]:
        """Distinct region tags, sorted."""
        return sorted({s.region for s in self.nodes()})

    def region_of(self, name: str) -> str:
        return self.node(name).region

    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[frozenset((a, b))]
        except KeyError:
            raise NetworkError(f"no link between {a!r} and {b!r}") from None

    # -- failures ---------------------------------------------------------

    def fail_node(self, name: str) -> None:
        self.node(name).up = False

    def recover_node(self, name: str) -> None:
        self.node(name).up = True

    def fail_region(self, region: str) -> list[str]:
        """Take every node in ``region`` down (whole-region loss).
        Returns the affected node names."""
        names = self._region_node_names(region)
        for name in names:
            self.fail_node(name)
        return names

    def recover_region(self, region: str) -> list[str]:
        names = self._region_node_names(region)
        for name in names:
            self.recover_node(name)
        return names

    def _region_node_names(self, region: str) -> list[str]:
        names = [s.name for s in self.nodes(region=region)]
        if not names:
            raise NetworkError(f"unknown region {region!r}")
        return names

    def _alive_subgraph(self) -> nx.Graph:
        alive = [n for n, d in self._graph.nodes(data=True) if d["spec"].up]
        return self._graph.subgraph(alive)

    # -- routing ----------------------------------------------------------

    def route(self, src: str, dst: str) -> list[str]:
        """Node names along the minimum-propagation-latency path.

        Non-forwarding nodes (``NodeSpec.forwards=False``, i.e. client
        devices) can be endpoints of a route but not intermediate hops.
        """
        self.node(src), self.node(dst)  # validate both exist
        graph = self._alive_subgraph()
        if src not in graph or dst not in graph:
            raise NetworkError(f"route {src!r}->{dst!r}: endpoint down")
        transit = [n for n in graph.nodes
                   if n in (src, dst) or self.node(n).forwards]
        graph = graph.subgraph(transit)
        try:
            return nx.shortest_path(graph, src, dst, weight="weight")
        except nx.NetworkXNoPath:
            raise NetworkError(f"no path from {src!r} to {dst!r}") from None

    def reachable(self, src: str, dst: str) -> bool:
        """True when a route currently exists (endpoints up, no
        partition in the way)."""
        try:
            self.route(src, dst)
        except NetworkError:
            return False
        return True

    def transfer_time(self, src: str, dst: str, size_bytes: float) -> float:
        """Sampled time to move ``size_bytes`` from src to dst (store-and-
        forward across every hop on the route)."""
        if src == dst:
            return 0.0
        path = self.route(src, dst)
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += self.link(a, b).transfer_time(size_bytes)
        return total

    def nominal_path_latency(self, src: str, dst: str) -> float:
        """Deterministic sum of propagation latencies (no payload)."""
        if src == dst:
            return 0.0
        path = self.route(src, dst)
        return sum(self._graph.edges[a, b]["spec"].latency_s
                   for a, b in zip(path, path[1:]))

    def __len__(self) -> int:
        return self._graph.number_of_nodes()
