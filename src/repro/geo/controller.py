"""Region-level failure detection.

A region is *healthy* while at least one of its nodes is up and
reachable from the observer; the controller beats a per-region
heartbeat on every healthy observation and declares the region lost
when the deadline detector times out.  The detector is the same
:class:`~repro.streaming.coordinator.HeartbeatMonitor` the checkpoint
coordinator uses for fail-silent subtasks — one failure-detection
mechanism, two scales.
"""

from __future__ import annotations

from typing import Any

from ..streaming.coordinator import HEARTBEAT_TIMEOUT_S, HeartbeatMonitor
from ..util.clock import SimClock
from ..util.errors import NetworkError

__all__ = ["RegionController"]

_PREFIX = "region:"


class RegionController:
    """Deadline failure detector over regions.

    ``observer`` names the topology node the controller runs on (the
    survivor's vantage point): a region partitioned away from the
    observer is just as lost as one whose nodes are down — CAP does
    not care why the packets stop.
    """

    def __init__(self, clock: SimClock | None = None, *,
                 timeout_s: float = HEARTBEAT_TIMEOUT_S,
                 observer: str | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.monitor = HeartbeatMonitor(self.clock, timeout_s=timeout_s)
        self.observer = observer
        self._regions: list[str] = []
        #: last sim time each region was observed healthy
        self.last_seen: dict[str, float] = {}

    @property
    def regions(self) -> list[str]:
        return list(self._regions)

    def register(self, region: str) -> None:
        if region not in self._regions:
            self._regions.append(region)
            self.monitor.register(_PREFIX + region)
            self.last_seen[region] = self.clock.now

    def beat(self, region: str) -> None:
        """Record a healthy observation of ``region`` now."""
        if region not in self._regions:
            raise NetworkError(f"region {region!r} is not registered")
        self.monitor.beat(_PREFIX + region)
        self.last_seen[region] = self.clock.now

    def observe(self, topology: Any) -> list[str]:
        """Probe every registered region against a live topology and
        beat the healthy ones.  Returns the regions seen healthy."""
        healthy = []
        for region in self._regions:
            if self._healthy(topology, region):
                self.beat(region)
                healthy.append(region)
        return healthy

    def _healthy(self, topology: Any, region: str) -> bool:
        try:
            specs = topology.nodes(region=region)
        except NetworkError:
            return False
        for spec in specs:
            if not spec.up:
                continue
            if self.observer is None or spec.name == self.observer:
                return True
            if topology.reachable(self.observer, spec.name):
                return True
        return False

    def lost(self) -> list[str]:
        """Regions whose last healthy observation is older than the
        detection timeout."""
        return [key[len(_PREFIX):] for key in self.monitor.dead()
                if key.startswith(_PREFIX)]

    def reset(self, region: str) -> None:
        """A recovered region starts a fresh deadline."""
        self.monitor.reset(_PREFIX + region)
        self.last_seen[region] = self.clock.now
