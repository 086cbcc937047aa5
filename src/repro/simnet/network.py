"""Network link and path latency model.

The model the offloading experiments (Sec 4.1) rest on: transferring
``size_bytes`` over a link costs

    propagation + size / bandwidth + jitter

with optional packet loss triggering whole-transfer retries (a coarse but
standard abstraction for request/response AR offloading traffic).

:class:`LinkSpec` is the static description; :class:`Link` adds the
stochastic sampling given an RNG.  Presets for typical tiers (WiFi, LTE,
5G, LAN, WAN) keep benchmark parameters honest and in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import ConfigError, NetworkError

__all__ = ["LinkSpec", "Link", "LINK_PRESETS"]


@dataclass(frozen=True)
class LinkSpec:
    """Static link parameters.

    latency_s        one-way propagation delay in seconds
    bandwidth_bps    bytes per second (not bits; explicit to avoid x8 bugs)
    jitter_s         std-dev of zero-mean Gaussian latency noise
    loss_rate        probability a transfer attempt fails entirely
    """

    latency_s: float
    bandwidth_bps: float
    jitter_s: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0 or self.jitter_s < 0:
            raise ConfigError("latency and jitter must be non-negative")
        if self.bandwidth_bps <= 0:
            raise ConfigError("bandwidth must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigError("loss_rate must be in [0, 1)")

    def nominal_transfer_time(self, size_bytes: float) -> float:
        """Deterministic transfer time: propagation + serialization."""
        if size_bytes < 0:
            raise ConfigError("size_bytes must be non-negative")
        return self.latency_s + size_bytes / self.bandwidth_bps


# Bandwidths in bytes/s.  One-way latencies.
LINK_PRESETS: dict[str, LinkSpec] = {
    "loopback": LinkSpec(latency_s=1e-6, bandwidth_bps=10e9, jitter_s=0.0),
    "lan": LinkSpec(latency_s=0.2e-3, bandwidth_bps=125e6, jitter_s=0.05e-3),
    "wifi": LinkSpec(latency_s=2e-3, bandwidth_bps=25e6, jitter_s=1e-3,
                     loss_rate=0.005),
    "lte": LinkSpec(latency_s=35e-3, bandwidth_bps=4e6, jitter_s=8e-3,
                    loss_rate=0.01),
    "5g": LinkSpec(latency_s=8e-3, bandwidth_bps=40e6, jitter_s=2e-3,
                   loss_rate=0.003),
    "wan": LinkSpec(latency_s=50e-3, bandwidth_bps=12.5e6, jitter_s=5e-3,
                    loss_rate=0.002),
    # metro fibre between edge regions of the same city: far below WAN
    # latency, the reason edge placement wins the geo benchmark
    "metro": LinkSpec(latency_s=4e-3, bandwidth_bps=60e6, jitter_s=0.8e-3,
                      loss_rate=0.001),
}


class Link:
    """A sampled link: adds jitter and loss/retry behaviour to a spec."""

    max_retries = 5

    def __init__(self, spec: LinkSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self._rng = rng
        self.transfers = 0
        self.retries = 0

    def transfer_time(self, size_bytes: float) -> float:
        """Sample the wall time to move ``size_bytes`` across the link.

        Lost attempts are retried up to ``max_retries`` times; each failed
        attempt still costs a full timeout-equivalent (one nominal
        transfer time), matching request/response semantics.  Raises
        :class:`NetworkError` when every attempt is lost.
        """
        self.transfers += 1
        total = 0.0
        for _attempt in range(self.max_retries + 1):
            jitter = abs(self._rng.normal(0.0, self.spec.jitter_s)) \
                if self.spec.jitter_s > 0 else 0.0
            attempt_time = self.spec.nominal_transfer_time(size_bytes) + jitter
            total += attempt_time
            lost = (self.spec.loss_rate > 0
                    and self._rng.random() < self.spec.loss_rate)
            if not lost:
                return total
            self.retries += 1
        raise NetworkError(
            f"transfer of {size_bytes} bytes lost after "
            f"{self.max_retries + 1} attempts"
        )

    def round_trip_time(self, request_bytes: float, response_bytes: float) -> float:
        """Request up, response down — two directional transfers."""
        return self.transfer_time(request_bytes) + self.transfer_time(response_bytes)
