"""Traffic / VANET workload (Section 3.4).

Vehicles drive a ring road under an Intelligent-Driver-Model-lite
car-following rule; every vehicle broadcasts (position, speed, heading)
beacons — the VANET share the paper describes.  A scripted slowdown
creates the shock wave whose upstream propagation the public-services
app must warn drivers about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import ConfigError

__all__ = ["VehicleState", "Beacon", "RingRoadSim"]


@dataclass(frozen=True)
class VehicleState:
    vehicle_id: str
    s_m: float  # arc position along the ring
    speed_mps: float


@dataclass(frozen=True)
class Beacon:
    """One VANET broadcast."""

    vehicle_id: str
    timestamp: float
    x: float
    y: float
    speed_mps: float
    heading_rad: float


class RingRoadSim:
    """Single-lane ring road of 30 vehicles with simplified IDM car
    following, stepped every half second."""

    #: desired speed, time headway, minimum gap, maximum acceleration,
    #: comfortable deceleration (IDM), and the update step
    v0 = 14.0
    t_headway = 1.5
    s0 = 4.0
    a_max = 1.2
    b = 2.0
    dt = 0.5

    def __init__(self, rng: np.random.Generator,
                 ring_length_m: float = 2_000.0) -> None:
        num_vehicles = 30
        if ring_length_m <= num_vehicles * self.s0 * 2:
            raise ConfigError("ring too short for vehicle count")
        self.ring = ring_length_m
        spacing = ring_length_m / num_vehicles
        jitter = rng.uniform(-spacing * 0.2, spacing * 0.2,
                             size=num_vehicles)
        self.positions = (np.arange(num_vehicles) * spacing + jitter) \
            % ring_length_m
        order = np.argsort(self.positions)
        self.positions = self.positions[order]
        self.speeds = np.full(num_vehicles, self.v0 * 0.8) \
            + rng.uniform(-1.0, 1.0, size=num_vehicles)
        self.ids = [f"car-{i:03d}" for i in range(num_vehicles)]
        self.time = 0.0
        self._forced_slow: dict[int, tuple[float, float, float]] = {}

    @property
    def num_vehicles(self) -> int:
        return len(self.ids)

    def force_slowdown(self, vehicle_index: int, start_s: float,
                       end_s: float, speed_mps: float) -> None:
        """Cap one vehicle's speed over [start, end] (incident script)."""
        if not 0 <= vehicle_index < self.num_vehicles:
            raise ConfigError("vehicle index out of range")
        self._forced_slow[vehicle_index] = (start_s, end_s, speed_mps)

    def step(self) -> None:
        """One IDM update for every vehicle."""
        dt = self.dt
        n = self.num_vehicles
        new_speeds = np.empty(n)
        for i in range(n):
            lead = (i + 1) % n
            gap = (self.positions[lead] - self.positions[i]) % self.ring
            gap = max(gap - 4.0, 0.1)  # minus vehicle length
            dv = self.speeds[i] - self.speeds[lead]
            s_star = self.s0 + max(
                0.0, self.speeds[i] * self.t_headway
                + self.speeds[i] * dv / (2 * np.sqrt(self.a_max * self.b)))
            accel = self.a_max * (1 - (self.speeds[i] / self.v0) ** 4
                                  - (s_star / gap) ** 2)
            new_speeds[i] = max(0.0, self.speeds[i] + accel * dt)
            if i in self._forced_slow:
                start, end, cap = self._forced_slow[i]
                if start <= self.time <= end:
                    new_speeds[i] = min(new_speeds[i], cap)
        self.speeds = new_speeds
        self.positions = (self.positions + self.speeds * dt) % self.ring
        self.time += dt

    def xy_of(self, s_m: float) -> tuple[float, float]:
        """Ring arc position -> plane coordinates (circle embedding)."""
        radius = self.ring / (2 * np.pi)
        theta = s_m / radius
        return (radius * np.cos(theta), radius * np.sin(theta))

    def beacons(self) -> list[Beacon]:
        """Current VANET broadcast from every vehicle."""
        out = []
        radius = self.ring / (2 * np.pi)
        for i in range(self.num_vehicles):
            x, y = self.xy_of(float(self.positions[i]))
            theta = self.positions[i] / radius
            out.append(Beacon(
                vehicle_id=self.ids[i], timestamp=self.time, x=x, y=y,
                speed_mps=float(self.speeds[i]),
                heading_rad=float((theta + np.pi / 2) % (2 * np.pi))))
        return out

    def states(self) -> list[VehicleState]:
        return [VehicleState(self.ids[i], float(self.positions[i]),
                             float(self.speeds[i]))
                for i in range(self.num_vehicles)]
