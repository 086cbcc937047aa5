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


#: how a region can fail: all nodes down, a full (two-way) partition, or
#: an asymmetric one-way partition (only outbound / only inbound blocked)
REGION_FAILURE_MODES = ("loss", "partition", "partition_out",
                        "partition_in")


@dataclass(frozen=True)
class RegionFailureEvent:
    """A scheduled whole-region outage.

    ``mode``:

    - ``loss``           every node in the region goes down
    - ``partition``      links crossing the region boundary drop both ways
    - ``partition_out``  only traffic *leaving* the region is dropped
    - ``partition_in``   only traffic *entering* the region is dropped
    """

    region: str
    down_at: float
    up_at: float
    mode: str = "loss"

    def __post_init__(self) -> None:
        if self.up_at <= self.down_at:
            raise ConfigError("up_at must be after down_at")
        if self.mode not in REGION_FAILURE_MODES:
            raise ConfigError(
                f"unknown region failure mode {self.mode!r}; expected one "
                f"of {REGION_FAILURE_MODES}")


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
        """Schedule a whole-region outage (loss or partition).

        ``loss`` maps onto :meth:`Topology.fail_region` /
        :meth:`Topology.recover_region`; the partition modes onto
        :meth:`Topology.partition_region` with the matching direction and
        :meth:`Topology.heal_region` — so heal-after-partition restores
        every blocked link direction at ``up_at``.
        """
        topo = self.topology
        topo._region_node_names(event.region)  # validate region exists
        if event.mode == "loss":
            down = lambda: topo.fail_region(event.region)  # noqa: E731
            up = lambda: topo.recover_region(event.region)  # noqa: E731
        else:
            direction = {"partition": "both", "partition_out": "out",
                         "partition_in": "in"}[event.mode]
            down = lambda: topo.partition_region(  # noqa: E731
                event.region, direction)
            up = lambda: topo.heal_region(event.region)  # noqa: E731
        self.sim.schedule_at(event.down_at, down,
                             label=f"{event.mode}:{event.region}")
        self.sim.schedule_at(event.up_at, up,
                             label=f"heal:{event.region}")
        self.region_injected.append(event)
