"""Failure injection for topology nodes.

Schedules down/up transitions on the discrete-event kernel so experiments
and tests can exercise recovery paths (event-log leader failover, offload
fallback to local execution, remote-diagnosis link loss).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.errors import ConfigError
from .kernel import Simulator
from .topology import Topology

__all__ = ["FailureEvent", "RegionFailureEvent", "FailureInjector"]


@dataclass(frozen=True)
class FailureEvent:
    node: str
    down_at: float
    up_at: float

    def __post_init__(self) -> None:
        if self.up_at <= self.down_at:
            raise ConfigError("up_at must be after down_at")


@dataclass(frozen=True)
class RegionFailureEvent:
    """A scheduled whole-region outage: every node in the region goes
    down at ``down_at`` and comes back at ``up_at``."""

    region: str
    down_at: float
    up_at: float

    def __post_init__(self) -> None:
        if self.up_at <= self.down_at:
            raise ConfigError("up_at must be after down_at")


class FailureInjector:
    """Applies scripted or random outages to a topology."""

    def __init__(self, sim: Simulator, topology: Topology) -> None:
        self.sim = sim
        self.topology = topology
        self.injected: list[FailureEvent] = []
        self.region_injected: list[RegionFailureEvent] = []

    def schedule(self, event: FailureEvent) -> None:
        """Schedule one scripted outage."""
        self.topology.node(event.node)  # validate
        self.sim.schedule_at(event.down_at,
                             lambda: self.topology.fail_node(event.node),
                             label=f"fail:{event.node}")
        self.sim.schedule_at(event.up_at,
                             lambda: self.topology.recover_node(event.node),
                             label=f"recover:{event.node}")
        self.injected.append(event)

    def schedule_region(self, event: RegionFailureEvent) -> None:
        """Schedule a whole-region outage through
        :meth:`Topology.fail_region` / :meth:`Topology.recover_region`."""
        topo = self.topology
        topo._region_node_names(event.region)  # validate region exists
        self.sim.schedule_at(event.down_at,
                             lambda: topo.fail_region(event.region),
                             label=f"loss:{event.region}")
        self.sim.schedule_at(event.up_at,
                             lambda: topo.recover_region(event.region),
                             label=f"heal:{event.region}")
        self.region_injected.append(event)
