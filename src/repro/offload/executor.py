"""Offload plan pricing: latency and energy per (pipeline, cut, tier).

The cost model behind experiment T1:

    latency(cut, tier) = local_cycles / device_hz
                       + upload_time + remote_cycles / tier_hz + download_time
    energy(cut, tier)  = P_active * local_compute_time
                       + P_radio * transfer_time
                       + P_idle * remote_wait_time

All-local plans pay no network; remote plans pay the (sampled, jittery,
lossy) round trip from :mod:`repro.simnet`.  ``plan`` enumerates every
valid cut on every tier and returns the frontier the policies choose
from.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simnet.topology import Topology
from ..util.errors import NetworkError, OffloadError
from .tasks import Pipeline

__all__ = ["EnergyModel", "PlanOutcome", "OffloadPlanner"]


@dataclass(frozen=True)
class EnergyModel:
    """Device power states in watts."""

    active_w: float = 2.5
    radio_w: float = 1.2
    idle_w: float = 0.3

    def __post_init__(self) -> None:
        if min(self.active_w, self.radio_w, self.idle_w) < 0:
            raise OffloadError("power draws must be non-negative")


@dataclass(frozen=True)
class PlanOutcome:
    """One priced execution plan."""

    pipeline: str
    tier_node: str  # node name; == device for all-local
    cut: int
    latency_s: float
    energy_j: float
    upload_bytes: float
    local_compute_s: float
    remote_compute_s: float
    network_s: float

    @property
    def is_local(self) -> bool:
        return self.network_s == 0.0


class OffloadPlanner:
    """Enumerates and prices plans over a topology; a remote tier sends
    ``result_bytes`` back to the device."""

    result_bytes = 128.0

    def __init__(self, topology: Topology, device: str,
                 energy: EnergyModel | None = None) -> None:
        self.topology = topology
        self.device = topology.node(device)
        self.energy = energy if energy is not None else EnergyModel()

    def price(self, pipeline: Pipeline, cut: int,
              tier_node: str) -> PlanOutcome:
        """Price one (cut, tier) plan with sampled network times."""
        local_s = pipeline.local_cycles(cut) / self.device.cpu_hz
        remote_cycles = pipeline.remote_cycles(cut)
        upload = pipeline.upload_bytes(cut)
        if remote_cycles == 0 or tier_node == self.device.name:
            # All-local (any nominally "remote" cycles run on the device).
            total_local_s = pipeline.total_cycles / self.device.cpu_hz
            return PlanOutcome(
                pipeline=pipeline.name, tier_node=self.device.name,
                cut=max(pipeline.valid_cuts()), latency_s=total_local_s,
                energy_j=self.energy.active_w * total_local_s,
                upload_bytes=0.0, local_compute_s=total_local_s,
                remote_compute_s=0.0, network_s=0.0)
        tier = self.topology.node(tier_node)
        if not tier.up:
            raise OffloadError(f"tier node {tier_node!r} is down")
        remote_s = remote_cycles / tier.cpu_hz
        up_s = self.topology.transfer_time(self.device.name, tier_node,
                                           upload)
        down_s = self.topology.transfer_time(tier_node, self.device.name,
                                             self.result_bytes)
        network_s = up_s + down_s
        latency = local_s + network_s + remote_s
        energy = (self.energy.active_w * local_s
                  + self.energy.radio_w * network_s
                  + self.energy.idle_w * remote_s)
        return PlanOutcome(
            pipeline=pipeline.name, tier_node=tier_node, cut=cut,
            latency_s=latency, energy_j=energy, upload_bytes=upload,
            local_compute_s=local_s, remote_compute_s=remote_s,
            network_s=network_s)

    def plan(self, pipeline: Pipeline,
             tiers: list[str] | None = None) -> list[PlanOutcome]:
        """Price every valid cut on every reachable tier (+ all-local)."""
        if tiers is None:
            tiers = [n.name for n in self.topology.nodes()
                     if n.name != self.device.name and n.up]
        cuts = pipeline.valid_cuts()
        outcomes = [self.price(pipeline, max(cuts), self.device.name)]
        for tier in tiers:
            for cut in cuts:
                if pipeline.remote_cycles(cut) == 0:
                    continue
                try:
                    outcomes.append(self.price(pipeline, cut, tier))
                except (OffloadError, NetworkError):
                    continue  # tier down or unreachable over the net
        return outcomes
