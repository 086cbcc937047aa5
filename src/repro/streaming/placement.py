"""Region-affinity placement for physical plans.

A :class:`RegionPlacement` assigns every logical node (source, operator,
sink) of a job to a *region* and prices the links between regions.  The
compiler (:func:`~repro.streaming.plan.compile_execution_graph`)
threads it through lowering:

- operators in different regions never fuse into one chain (a chain is
  a single locality domain);
- every physical edge whose endpoints land in different regions is
  marked ``cross_region`` and carries the inter-region link cost, which
  the executor adds to its modelled ``cross_region_transfer_s`` per
  delivered packet;
- a cross-region edge must have been **declared** on the job graph
  (:meth:`~repro.streaming.graph.JobBuilder.declare_cross_region`) —
  placement never silently turns a local edge into a WAN hop
  (see CONTRIBUTING.md).

Placements are data, not topology: build one by hand for tests, or
derive one from a live :class:`~repro.simnet.topology.Topology` with
:func:`placement_from_topology` so link costs come from the same
latency model the offload experiments price.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..util.errors import JobGraphError, NetworkError

__all__ = ["RegionPlacement", "placement_from_topology"]


@dataclass(frozen=True)
class RegionPlacement:
    """Logical node -> region assignment plus inter-region link costs.

    ``regions`` maps logical node names to region tags; unmapped nodes
    land in ``default_region``.  ``link_latency_s`` prices one-way
    latency between region pairs (order-insensitive); an unpriced pair
    costs ``default_link_latency_s``.
    """

    regions: Mapping[str, str] = field(default_factory=dict)
    default_region: str = "core"
    link_latency_s: Mapping[frozenset[str], float] = \
        field(default_factory=dict)
    default_link_latency_s: float = 0.05  # WAN-ish

    def __post_init__(self) -> None:
        for pair, cost in self.link_latency_s.items():
            if len(pair) != 2:
                raise JobGraphError(
                    f"link cost key {set(pair)!r} must name two regions")
            if cost < 0:
                raise JobGraphError("link latency must be non-negative")
        if self.default_link_latency_s < 0:
            raise JobGraphError("default link latency must be non-negative")

    def region_of(self, node: str) -> str:
        return self.regions.get(node, self.default_region)

    def link_cost_s(self, region_a: str, region_b: str) -> float:
        if region_a == region_b:
            return 0.0
        return float(self.link_latency_s.get(
            frozenset((region_a, region_b)), self.default_link_latency_s))

    def moved(self, node: str, region: str) -> "RegionPlacement":
        """A copy with one node re-pinned — the session-handoff /
        failover primitive (placements are immutable)."""
        regions = dict(self.regions)
        regions[node] = region
        return RegionPlacement(
            regions=regions, default_region=self.default_region,
            link_latency_s=dict(self.link_latency_s),
            default_link_latency_s=self.default_link_latency_s)

    def moved_all(self, region: str,
                  nodes: Any = None) -> "RegionPlacement":
        """A copy with every node (or the given ones) pinned to one
        region — whole-region failover."""
        names = list(self.regions) if nodes is None else list(nodes)
        regions = dict(self.regions)
        for name in names:
            regions[name] = region
        return RegionPlacement(
            regions=regions, default_region=region,
            link_latency_s=dict(self.link_latency_s),
            default_link_latency_s=self.default_link_latency_s)


def placement_from_topology(topology: Any,
                            regions: Mapping[str, str],
                            *, default_region: str | None = None,
                            ) -> RegionPlacement:
    """Derive a placement whose link costs come from a live simnet
    topology: for every pair of assigned regions, the cost is the
    minimum nominal path latency between any two (currently reachable)
    nodes of those regions."""
    wanted = set(regions.values())
    if default_region is not None:
        wanted.add(default_region)
    members: dict[str, list[str]] = {}
    for spec in topology.nodes():
        if spec.region in wanted:
            members.setdefault(spec.region, []).append(spec.name)
    missing = sorted(wanted - set(members))
    if missing:
        raise JobGraphError(
            f"placement regions {missing} have no nodes in the topology")
    link_costs: dict[frozenset[str], float] = {}
    names = sorted(wanted)
    for i, ra in enumerate(names):
        for rb in names[i + 1:]:
            best = None
            for a in members[ra]:
                for b in members[rb]:
                    try:
                        latency = topology.nominal_path_latency(a, b)
                    except NetworkError:
                        # Unreachable right now; anything else (a typo'd
                        # node name, a broken topology) should surface.
                        continue
                    if best is None or latency < best:
                        best = latency
            if best is not None:
                link_costs[frozenset((ra, rb))] = float(best)
    return RegionPlacement(
        regions=dict(regions),
        default_region=(default_region if default_region is not None
                        else names[0]),
        link_latency_s=link_costs)
