"""Crowdsourced environment modelling (Section 3.2).

"Google Earth allows individuals to contribute digital 3D counterparts
of real constructions ... building a 3D environmental model on a global
scale in a crowdsourcing way.  Aggregating and compiling the redundant
fragmented data helps us to build a detailed and complete environmental
model."

Contributors submit noisy, sometimes-wrong box models of buildings
(position/extent errors, occasional gross outliers, wrong-building
mislabels).  :class:`CrowdModel` aggregates per-building contributions
with a component-wise median — robust to the outlier fraction — and
reports model error against ground truth, the quantity the crowdsourcing
claim rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import SensorError

__all__ = ["BoxModel", "Contribution", "CrowdModel"]


@dataclass(frozen=True)
class BoxModel:
    """An axis-aligned building model: centre + full extents, metres."""

    cx: float
    cy: float
    width: float
    depth: float
    height: float

    def __post_init__(self) -> None:
        if min(self.width, self.depth, self.height) <= 0:
            raise SensorError("box extents must be positive")

    def error_to(self, other: "BoxModel") -> float:
        """Mean absolute parameter error (metres) to another model."""
        a = np.array([self.cx, self.cy, self.width, self.depth,
                      self.height])
        b = np.array([other.cx, other.cy, other.width, other.depth,
                      other.height])
        return float(np.abs(a - b).mean())


@dataclass(frozen=True)
class Contribution:
    """One contributor's submitted model for one building."""

    building_id: str
    contributor: str
    model: BoxModel


class CrowdModel:
    """Aggregates contributions into consensus building models."""

    def __init__(self) -> None:
        self._contributions: dict[str, list[Contribution]] = {}

    def submit(self, contribution: Contribution) -> None:
        self._contributions.setdefault(contribution.building_id,
                                       []).append(contribution)

    def buildings(self) -> list[str]:
        return sorted(self._contributions)

    def consensus(self, building_id: str) -> BoxModel:
        """Component-wise median of all contributions for a building."""
        rows = self._contributions.get(building_id)
        if not rows:
            raise SensorError(f"no contributions for {building_id!r}")
        stack = np.array([[c.model.cx, c.model.cy, c.model.width,
                           c.model.depth, c.model.height] for c in rows])
        med = np.median(stack, axis=0)
        return BoxModel(cx=float(med[0]), cy=float(med[1]),
                        width=float(max(med[2], 1e-6)),
                        depth=float(max(med[3], 1e-6)),
                        height=float(max(med[4], 1e-6)))

    @staticmethod
    def simulate_contributions(truth: BoxModel, n: int,
                               rng: np.random.Generator,
                               outlier_rate: float = 0.1,
                               ) -> list[BoxModel]:
        """Noisy contributions: Gaussian errors (2 m in position, 1 m in
        extent) plus gross outliers, ten times as wide."""
        if n < 1:
            raise SensorError("need at least one contribution")
        models = []
        for _ in range(n):
            gross = rng.random() < outlier_rate
            scale = 10.0 if gross else 1.0
            models.append(BoxModel(
                cx=truth.cx + float(rng.normal(0, 2.0 * scale)),
                cy=truth.cy + float(rng.normal(0, 2.0 * scale)),
                width=max(0.5, truth.width
                          + float(rng.normal(0, 1.0 * scale))),
                depth=max(0.5, truth.depth
                          + float(rng.normal(0, 1.0 * scale))),
                height=max(0.5, truth.height
                           + float(rng.normal(0, 1.0 * scale)))))
        return models
