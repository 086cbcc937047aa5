"""Geotagged social streams (Section 3.2's "geocoded Tweets and Flickr").

Posts cluster around POIs with Zipf popularity, carry hashtag topics,
and arrive as a Poisson process — the fragmented, redundant UGC the
paper says must be "aggregated and compiled" into an environmental
model.  A fraction of posts is *untagged* (no subject entity), which is
exactly what breaks interpretation without semantic tagging (T3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import ConfigError

__all__ = ["SocialPost", "SocialStreamConfig", "generate_posts"]


@dataclass(frozen=True)
class SocialPost:
    post_id: str
    user: str
    timestamp: float
    x: float
    y: float
    topic: str
    poi_id: str | None  # None = not geotagged to a known place
    text: str


@dataclass(frozen=True)
class SocialStreamConfig:
    num_users = 50
    topics = ("food", "art", "history", "music", "sport")
    scatter_m = 30.0  # post location scatter around the POI

    rate_per_s: float = 2.0
    horizon_s: float = 600.0
    zipf_s: float = 1.2  # POI popularity skew
    tagged_fraction: float = 0.7  # rest lack a resolvable poi_id

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0 or self.horizon_s <= 0:
            raise ConfigError("rate and horizon must be positive")
        if not 0 <= self.tagged_fraction <= 1:
            raise ConfigError("tagged_fraction must be in [0, 1]")


def generate_posts(rng: np.random.Generator,
                   poi_positions: list[tuple[str, float, float]],
                   config: SocialStreamConfig = SocialStreamConfig(),
                   ) -> list[SocialPost]:
    """Poisson-arrival posts clustered around POIs.

    ``poi_positions`` rows: (poi_id, x, y); their order defines the Zipf
    popularity ranking.
    """
    if not poi_positions:
        raise ConfigError("need at least one POI")
    ranks = np.arange(1, len(poi_positions) + 1, dtype=float)
    weights = ranks ** -config.zipf_s
    weights /= weights.sum()
    posts: list[SocialPost] = []
    t = 0.0
    i = 0
    while True:
        t += float(rng.exponential(1.0 / config.rate_per_s))
        if t >= config.horizon_s:
            break
        poi_idx = int(rng.choice(len(poi_positions), p=weights))
        poi_id, px, py = poi_positions[poi_idx]
        x = px + float(rng.normal(0, config.scatter_m))
        y = py + float(rng.normal(0, config.scatter_m))
        topic = config.topics[int(rng.integers(0, len(config.topics)))]
        tagged = rng.random() < config.tagged_fraction
        posts.append(SocialPost(
            post_id=f"post-{i:05d}",
            user=f"su-{int(rng.integers(0, config.num_users)):03d}",
            timestamp=t, x=x, y=y, topic=topic,
            poi_id=poi_id if tagged else None,
            text=f"#{topic} at {poi_id if tagged else 'somewhere'}"))
        i += 1
    return posts
