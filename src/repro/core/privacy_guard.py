"""Privacy enforcement at the pipeline boundary (Section 4.3 as a
component).

Personal data leaves the device only through the guard:

- locations are perturbed (geo-indistinguishability) before entering
  any shared topic;
- raw identifiers are pseudonymized with a keyed stable hash.

The guard counts the locations it protected, so the privacy experiments
can relate protection level to utility loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..eventlog.producer import stable_hash
from ..privacy.location import PlanarLaplace
from ..util.errors import PrivacyError

__all__ = ["PrivacyConfig", "PrivacyGuard"]

#: keyed-hash salt for identifier pseudonymization
PSEUDONYM_SALT = "repro"


@dataclass(frozen=True)
class PrivacyConfig:
    """Guard configuration.

    location_mode   'none' | 'laplace'
    geo_epsilon     epsilon per metre for planar Laplace

    Identifiers are pseudonymized under the keyed-hash salt
    ``PSEUDONYM_SALT``.
    """

    location_mode: str = "laplace"
    geo_epsilon: float = 0.01

    def __post_init__(self) -> None:
        if self.location_mode not in ("none", "laplace"):
            raise PrivacyError(
                f"unknown location mode {self.location_mode!r}")


class PrivacyGuard:
    """The single gate personal data passes on its way to big data."""

    def __init__(self, config: PrivacyConfig,
                 rng: np.random.Generator) -> None:
        self.config = config
        self._planar = PlanarLaplace(config.geo_epsilon, rng) \
            if config.location_mode == "laplace" else None
        self.locations_processed = 0

    # -- identifiers -------------------------------------------------------

    def pseudonymize(self, user_id: str) -> str:
        """Stable keyed pseudonym (same user -> same pseudonym)."""
        digest = stable_hash(f"{PSEUDONYM_SALT}:{user_id}")
        return f"anon-{digest % 10**12:012d}"

    # -- locations -----------------------------------------------------------

    def protect_location(self, x: float,
                         y: float) -> tuple[float, float, float]:
        """Returns (x', y', expected_error_m) per the configured mode."""
        self.locations_processed += 1
        if self._planar is None:
            return x, y, 0.0
        px, py = self._planar.perturb(x, y)
        return px, py, self._planar.expected_displacement_m
