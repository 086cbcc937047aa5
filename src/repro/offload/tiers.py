"""Live edge-vs-core tier selection.

The static offload experiments pick a tier once and keep it; a
geo-distributed deployment cannot — an edge server three hops away is
only the right serving tier *while its links hold*.
:class:`LiveTierSelector` re-prices the candidate tiers (edge servers
and the core cloud) against the **current** simnet topology on every
call: a tier that is down, partitioned away, or saturated prices as
unreachable and falls out of the running, so a session degrades from
edge to core (and comes back after heal) without any static
configuration.

Selection is sticky: switching tiers costs a session handoff
(state migration — see :meth:`repro.geo.GeoController.handoff`), so
the current tier is kept unless a rival beats it by the hysteresis
factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..util.errors import NetworkError, OffloadError

__all__ = ["TierDecision", "LiveTierSelector"]


@dataclass(frozen=True)
class TierDecision:
    """One serving-tier choice for one device, with the live prices."""

    device: str
    node: str
    region: str
    rtt_s: float
    switched: bool
    #: every candidate's live round-trip estimate (unreachable = inf)
    candidates: dict[str, float] = field(default_factory=dict)


class LiveTierSelector:
    """Pick a serving node per device from live link conditions.

    ``payload_bytes`` models one overlay update (request up, rendered
    annotation delta down); the estimate is the round trip of that
    payload over the topology's *current* routes and link speeds, plus
    the tier's compute share under its reported load.
    """

    def __init__(self, topology: Any, *,
                 roles: tuple[str, ...] = ("edge", "cloud"),
                 payload_bytes: float = 2048.0,
                 response_bytes: float = 8192.0,
                 compute_cycles: float = 2e6,
                 hysteresis: float = 0.8) -> None:
        if not 0.0 < hysteresis <= 1.0:
            raise OffloadError("hysteresis must be in (0, 1]")
        self.topology = topology
        self.roles = tuple(roles)
        self.payload_bytes = float(payload_bytes)
        self.response_bytes = float(response_bytes)
        self.compute_cycles = float(compute_cycles)
        self.hysteresis = float(hysteresis)
        self._load: dict[str, float] = {}

    def set_load(self, node: str, utilization: float) -> None:
        """Report a tier's utilization; rho >= 1 prices it saturated."""
        if utilization < 0:
            raise OffloadError("utilization must be non-negative")
        self.topology.node(node)  # validate
        self._load[node] = float(utilization)

    def candidates(self, device: str) -> list[str]:
        """Serving candidates for ``device``: every up node whose role
        is in scope (the device itself is never a candidate)."""
        return [spec.name for spec in self.topology.nodes()
                if spec.role in self.roles and spec.name != device]

    def rtt_s(self, device: str, node: str) -> float:
        """Live round-trip estimate, or inf when unreachable/saturated.

        Both directions are priced separately because partitions are
        directional: an edge that can receive but not respond is just
        as unusable as one that is fully cut off.
        """
        spec = self.topology.node(node)
        if not spec.up:
            return float("inf")
        rho = self._load.get(node, 0.0)
        if rho >= 1.0:
            return float("inf")
        try:
            up_s = self.topology.transfer_time(device, node,
                                               self.payload_bytes)
            down_s = self.topology.transfer_time(node, device,
                                                 self.response_bytes)
        except NetworkError:
            return float("inf")
        compute_s = self.compute_cycles / spec.cpu_hz / (1.0 - rho)
        return up_s + down_s + compute_s

    def select(self, device: str,
               current: str | None = None) -> TierDecision:
        """Choose the serving node for ``device`` right now.

        With ``current`` set, the incumbent is kept unless the best
        rival's round trip beats ``hysteresis * incumbent`` — or the
        incumbent has become unreachable, in which case the session
        degrades immediately.
        """
        prices = {node: self.rtt_s(device, node)
                  for node in self.candidates(device)}
        if not prices:
            raise OffloadError(f"no serving tiers in scope for {device!r}")
        best = min(sorted(prices), key=lambda n: prices[n])
        if prices[best] == float("inf"):
            raise OffloadError(
                f"no serving tier reachable from {device!r}")
        chosen = best
        if current is not None and prices.get(current, float("inf")) \
                != float("inf"):
            if prices[best] >= self.hysteresis * prices[current]:
                chosen = current
        return TierDecision(
            device=device, node=chosen,
            region=self.topology.region_of(chosen),
            rtt_s=prices[chosen],
            switched=(current is not None and chosen != current),
            candidates=prices)
