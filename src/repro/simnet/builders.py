"""Canonical topology builders.

:func:`region_topology` builds the geo-distributed shape the paper's
timeliness argument needs (Sec 4.1, CloudRiDAR): two *edge regions*
— each an edge zone with an edge server and its attached devices — plus
one deep *core* region, wired with realistic link tiers:

- device -> zone edge server: a WiFi access link,
- device -> core: a cellular (LTE) fallback — the path a
  session degrades onto when its edge zone is down,
- edge region <-> edge region: metro fibre,
- edge region <-> core: a WAN backhaul.

Every node carries its region (and, for edge nodes, zone) tag, so
whole-region loss (:meth:`Topology.fail_region`) and the geo placement
layer act on the same labels.
"""

from __future__ import annotations

import numpy as np

from .network import LINK_PRESETS
from .topology import NodeSpec, Topology

__all__ = ["region_topology"]


def region_topology(rng: np.random.Generator) -> Topology:
    """Two edge zones (``edge-a``, ``edge-b``) of two devices each, plus
    one core, with realistic inter-region latency.

    Devices run at 1.5 GHz, edge servers at 8 GHz and the core at
    64 GHz.  Node naming is deterministic: ``{region}-edge`` per edge
    region, ``{region}-dev{i}`` for its devices, and ``core`` for the
    cloud node — tests and benchmarks address nodes by these names.
    """
    topo = Topology(rng)
    topo.add_node(NodeSpec(name="core", cpu_hz=64e9, role="cloud", cores=16,
                           power_w=250.0, region="core"))
    edge_names = []
    for region in ("edge-a", "edge-b"):
        edge = f"{region}-edge"
        topo.add_node(NodeSpec(name=edge, cpu_hz=8e9, role="edge",
                               cores=4, power_w=45.0, region=region,
                               zone=region))
        topo.add_link(edge, "core", LINK_PRESETS["wan"])
        for i in range(2):
            dev = f"{region}-dev{i}"
            topo.add_node(NodeSpec(name=dev, cpu_hz=1.5e9, role="device",
                                   region=region, zone=region,
                                   forwards=False))
            topo.add_link(dev, edge, LINK_PRESETS["wifi"])
            topo.add_link(dev, "core", LINK_PRESETS["lte"])
        edge_names.append(edge)
    for i, a in enumerate(edge_names):
        for b in edge_names[i + 1:]:
            topo.add_link(a, b, LINK_PRESETS["metro"])
    return topo
