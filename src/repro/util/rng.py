"""Seeded randomness plumbing.

All stochastic behaviour in the library flows through
``numpy.random.Generator`` objects created here.  :func:`make_rng` builds
a root generator from an integer seed; :class:`RngRegistry` derives
independent named child streams for subsystems so that adding
randomness to one module never perturbs another (a classic
reproducibility trap in simulators).
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "RngRegistry"]


def make_rng(seed: int | None = 0) -> np.random.Generator:
    """Create a root generator.  ``None`` gives OS entropy (discouraged)."""
    return np.random.default_rng(seed)


class RngRegistry:
    """Named, lazily created child streams off one root seed.

    ``registry.get("gps-noise")`` always returns the same generator for a
    given name, and different names get independent streams.  Names are
    hashed into the seed so the mapping is stable across runs and across
    registration order.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        if name not in self._streams:
            # Stable 64-bit hash of the name, mixed with the root seed.
            h = 1469598103934665603  # FNV-1a offset basis
            for byte in name.encode("utf-8"):
                h ^= byte
                h = (h * 1099511628211) % (1 << 64)
            self._streams[name] = np.random.default_rng((self._seed, h))
        return self._streams[name]

    @property
    def seed(self) -> int:
        return self._seed
