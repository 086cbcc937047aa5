"""Built-environment workloads: wind fields over buildings (Figure 1),
BIM excavation sites (Figure 2), and building sensor grids (Section 2.1's
"torrent of data from in-built sensors").

The wind field is a potential-flow composition: uniform flow plus
doublets at building centres, so buildings visibly deflect the flow —
the qualitative property Figure 1 illustrates.  The excavation site is a
voxel grid with design vs as-built occupancy whose diff is the overlay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import ConfigError

__all__ = ["Building", "WindField", "ExcavationSite", "SensorGrid"]


@dataclass(frozen=True)
class Building:
    """A cylinder-approximated building footprint."""

    name: str
    cx: float
    cy: float
    radius: float
    height: float

    def __post_init__(self) -> None:
        if self.radius <= 0 or self.height <= 0:
            raise ConfigError("building radius/height must be positive")


class WindField:
    """2-D potential flow around circular buildings.

    velocity(x, y) = U_inf + sum of doublet deflections; inside a
    building the velocity is zero.  Streaming samples draw sensor
    positions and return (t, x, y, vx, vy) rows.
    """

    def __init__(self, buildings: list[Building],
                 free_stream: tuple[float, float] = (5.0, 0.0)) -> None:
        self.buildings = list(buildings)
        self.free_stream = free_stream

    def velocity(self, x: float, y: float) -> tuple[float, float]:
        u, v = self.free_stream
        u_inf = np.hypot(*self.free_stream)
        for b in self.buildings:
            dx, dy = x - b.cx, y - b.cy
            r_sq = dx * dx + dy * dy
            if r_sq <= b.radius ** 2:
                return (0.0, 0.0)
            # Doublet aligned with the free stream (flow around cylinder).
            k = u_inf * b.radius ** 2
            r4 = r_sq * r_sq
            u += k * (dy * dy - dx * dx) / r4
            v += k * (-2.0 * dx * dy) / r4
        return (float(u), float(v))


class ExcavationSite:
    """Voxelized design vs as-built terrain (Figure 2's overlay).

    ``design`` holds target depth per (x, y) cell, at most
    ``max_depth_m``; ``current`` the as-excavated depth.  Daily scans
    move ``current`` toward ``design`` with noise; the diff is what AR
    overlays on the pit, where it is off by more than ``tolerance_m``.
    """

    cell_m = 2.0
    max_depth_m = 12.0
    tolerance_m = 0.3

    def __init__(self, rng: np.random.Generator, nx: int = 40,
                 ny: int = 30) -> None:
        if nx < 2 or ny < 2:
            raise ConfigError("site grid too small")
        self.nx, self.ny = nx, ny
        max_depth_m = self.max_depth_m
        # Smooth design surface: superposed cosine bumps.
        xs = np.linspace(0, 1, nx)
        ys = np.linspace(0, 1, ny)
        gx, gy = np.meshgrid(xs, ys)
        self.design = max_depth_m * (0.4
                                     + 0.3 * np.cos(2 * np.pi * gx)
                                     * np.sin(np.pi * gy)
                                     + 0.3 * gy)
        self.design = np.clip(self.design, 0.5, max_depth_m)
        self.current = np.zeros_like(self.design)
        self._rng = rng

    def excavate_day(self, fraction: float = 0.15,
                     noise_m: float = 0.2) -> None:
        """One work day: move toward design by ``fraction`` of remaining."""
        if not 0 < fraction <= 1:
            raise ConfigError("fraction must be in (0, 1]")
        remaining = self.design - self.current
        dig = fraction * np.clip(remaining, 0.0, None)
        dig += self._rng.normal(0.0, noise_m, size=dig.shape)
        self.current = np.clip(self.current + np.clip(dig, 0.0, None),
                               0.0, None)

    def diff(self) -> np.ndarray:
        """Signed remaining depth (positive = still to dig, negative =
        over-excavated)."""
        return self.design - self.current

    @property
    def progress(self) -> float:
        """Volume fraction completed, over-dig clipped."""
        done = np.clip(self.current, 0.0, self.design).sum()
        return float(done / self.design.sum())

    def deviation_cells(self) -> int:
        """Cells outside tolerance — what field workers must act on."""
        return int((np.abs(self.diff()) > self.tolerance_m).sum())


class SensorGrid:
    """A building instrumented with temperature sensors (asset
    inspection of Section 2.1): smooth spatial field + hot spots.

    ``nx`` x ``ny`` sensors sit ``floor_m`` apart around a base
    temperature of ``base_temp``; each reading carries Gaussian noise of
    ``noise_c``.
    """

    nx, ny = 10, 8
    floor_m = 4.0
    base_temp = 21.0
    noise_c = 0.1

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._gradients = rng.normal(0.0, 0.3, size=2)
        self.hot_spots: list[tuple[int, int, float]] = []

    def add_hot_spot(self, ix: int, iy: int, delta_c: float) -> None:
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise ConfigError("hot spot outside grid")
        self.hot_spots.append((ix, iy, delta_c))

    def read_all(self, t: float) -> list[dict]:
        """One reading per sensor: dicts with position and value."""
        out = []
        for iy in range(self.ny):
            for ix in range(self.nx):
                temp = (self.base_temp
                        + self._gradients[0] * ix + self._gradients[1] * iy)
                for hx, hy, delta in self.hot_spots:
                    dist_sq = (ix - hx) ** 2 + (iy - hy) ** 2
                    temp += delta * np.exp(-dist_sq / 2.0)
                out.append({
                    "sensor": f"temp-{ix:02d}-{iy:02d}",
                    "t": t,
                    "x": ix * self.floor_m, "y": iy * self.floor_m,
                    "value": float(temp + self._rng.normal(0,
                                                           self.noise_c)),
                })
        return out
