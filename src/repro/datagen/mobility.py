"""Human mobility traces: truncated Lévy flights.

Gonzalez, Hidalgo & Barabasi (Nature 2008) — the paper's reference [9] —
found human trajectories follow truncated power-law jump lengths with
high regularity (frequent returns to preferred places).  We generate
traces with exactly those two properties: Pareto jump lengths truncated
at ``max_jump_m``, and a per-user set of preferred anchor points
returned to with probability ``return_prob``.  This heavy-tailed,
repetitive structure is what makes mobility re-identifiable (experiment
T5) and what drives realistic POI encounter patterns (F7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import ConfigError

__all__ = ["MobilityConfig", "Trace", "generate_trace", "generate_population"]


@dataclass(frozen=True)
class MobilityConfig:
    """Trace generation parameters."""

    dt_s = 60.0
    levy_alpha = 1.6  # Pareto tail exponent of jump lengths
    min_jump_m = 5.0
    max_jump_m = 1_000.0
    num_anchors = 4  # preferred places per user
    return_prob = 0.3

    area_m: float = 5_000.0  # square side; walks reflect at the borders
    steps: int = 200

    def __post_init__(self) -> None:
        if not (self.area_m > 0 and self.steps >= 1):
            raise ConfigError("area and steps must be positive")


@dataclass(frozen=True)
class Trace:
    """One user's trajectory (arrays of equal length)."""

    user: str
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)


def _truncated_pareto(rng: np.random.Generator, alpha: float, lo: float,
                      hi: float) -> float:
    """Inverse-CDF sample of a Pareto(alpha) truncated to [lo, hi]."""
    u = rng.random()
    lo_a = lo ** -alpha
    hi_a = hi ** -alpha
    return float((lo_a - u * (lo_a - hi_a)) ** (-1.0 / alpha))


def generate_trace(user: str, rng: np.random.Generator,
                   config: MobilityConfig = MobilityConfig()) -> Trace:
    """One truncated-Lévy trace with preferred-place returns."""
    anchors = rng.uniform(0, config.area_m, size=(config.num_anchors, 2))
    position = anchors[0].copy()
    xs = np.empty(config.steps)
    ys = np.empty(config.steps)
    ts = np.arange(config.steps, dtype=float) * config.dt_s
    for i in range(config.steps):
        xs[i], ys[i] = position
        if rng.random() < config.return_prob:
            # Return flight toward a preferred place (arrive exactly —
            # dt is a minute; we model places, not footsteps).
            target = anchors[rng.integers(0, config.num_anchors)]
            position = target + rng.normal(0, config.min_jump_m, size=2)
        else:
            length = _truncated_pareto(rng, config.levy_alpha,
                                       config.min_jump_m, config.max_jump_m)
            angle = rng.uniform(0, 2 * np.pi)
            position = position + length * np.array([np.cos(angle),
                                                     np.sin(angle)])
        # Reflect at the area borders.
        for axis in range(2):
            if position[axis] < 0:
                position[axis] = -position[axis]
            if position[axis] > config.area_m:
                position[axis] = 2 * config.area_m - position[axis]
            position[axis] = float(np.clip(position[axis], 0, config.area_m))
    return Trace(user=user, ts=ts, xs=xs, ys=ys)


def generate_population(num_users: int, rng: np.random.Generator,
                        config: MobilityConfig = MobilityConfig(),
                        ) -> list[Trace]:
    """Independent traces for ``num_users`` users (user-0000, ...)."""
    if num_users < 1:
        raise ConfigError("num_users must be >= 1")
    return [generate_trace(f"user-{i:04d}", rng, config)
            for i in range(num_users)]
