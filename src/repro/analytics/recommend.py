"""Recommendation: the "big data" that drives AR content (Section 3.1).

Two recommenders with one interface, so the F6 experiment can compare
"AR with big data" against "AR without":

- :class:`PopularityRecommender` — the no-big-data baseline: rank items
  by global popularity, the same overlay for every customer.
- :class:`ItemCFRecommender` — item-based collaborative filtering over
  the interaction log (cosine similarity on co-occurrence), personal.

Both recommend only items the user has not interacted with yet.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from ..util.errors import ConfigError

__all__ = [
    "Interaction",
    "Recommender",
    "PopularityRecommender",
    "ItemCFRecommender",
    "precision_at_k",
    "hit_rate",
]


@dataclass(frozen=True)
class Interaction:
    """One user-item event (view, gaze dwell, purchase...), each of
    weight 1."""

    weight = 1.0

    user: str
    item: str
    timestamp: float = 0.0


class Recommender:
    """Common interface: feed interactions, ask for ranked items."""

    def add(self, interaction: Interaction) -> None:
        raise NotImplementedError

    def recommend(self, user: str, k: int = 10) -> list[tuple[str, float]]:
        raise NotImplementedError


class PopularityRecommender(Recommender):
    """Global popularity ranking — identical for every user."""

    def __init__(self) -> None:
        self._popularity: dict[str, float] = defaultdict(float)
        self._seen: dict[str, set[str]] = defaultdict(set)

    def add(self, interaction: Interaction) -> None:
        self._popularity[interaction.item] += interaction.weight
        self._seen[interaction.user].add(interaction.item)

    def recommend(self, user: str, k: int = 10) -> list[tuple[str, float]]:
        seen = self._seen.get(user, set())
        ranked = sorted(
            ((item, score) for item, score in self._popularity.items()
             if item not in seen),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return ranked[:k]


class ItemCFRecommender(Recommender):
    """Item-based collaborative filtering with cosine similarity.

    Maintains co-occurrence counts incrementally; similarity is computed
    on demand, so the structure supports streaming updates (the paper's
    velocity requirement) without retraining.  An item's score draws on
    its ``max_neighbors`` most similar items.
    """

    max_neighbors = 50

    def __init__(self) -> None:
        self._user_items: dict[str, dict[str, float]] = defaultdict(dict)
        self._item_users: dict[str, dict[str, float]] = defaultdict(dict)
        self._cooc: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._item_norm_sq: dict[str, float] = defaultdict(float)

    def add(self, interaction: Interaction) -> None:
        user, item, w = interaction.user, interaction.item, interaction.weight
        old = self._user_items[user].get(item, 0.0)
        new = old + w
        # Update co-occurrence with the user's other items incrementally.
        for other_item, other_w in self._user_items[user].items():
            if other_item == item:
                continue
            delta = w * other_w
            self._cooc[item][other_item] += delta
            self._cooc[other_item][item] += delta
        self._item_norm_sq[item] += new ** 2 - old ** 2
        self._user_items[user][item] = new
        self._item_users[item][user] = new

    def similarity(self, a: str, b: str) -> float:
        dot = self._cooc.get(a, {}).get(b, 0.0)
        if dot == 0.0:
            return 0.0
        na = math.sqrt(self._item_norm_sq[a])
        nb = math.sqrt(self._item_norm_sq[b])
        return dot / (na * nb) if na > 0 and nb > 0 else 0.0

    def neighbors(self, item: str) -> list[tuple[str, float]]:
        scored = [(other, self.similarity(item, other))
                  for other in self._cooc.get(item, {})]
        scored = [(i, s) for i, s in scored if s > 0]
        scored.sort(key=lambda kv: (-kv[1], kv[0]))
        return scored[: self.max_neighbors]

    def recommend(self, user: str, k: int = 10) -> list[tuple[str, float]]:
        profile = self._user_items.get(user, {})
        scores: dict[str, float] = defaultdict(float)
        for item, weight in profile.items():
            for neighbor, sim in self.neighbors(item):
                scores[neighbor] += sim * weight
        for item in profile:
            scores.pop(item, None)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


def precision_at_k(recommended: list[str], relevant: set[str], k: int) -> float:
    """Fraction of the top-k that are relevant."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    top = recommended[:k]
    if not top:
        return 0.0
    return sum(1 for item in top if item in relevant) / len(top)


def hit_rate(recommended: list[str], relevant: set[str], k: int) -> float:
    """1.0 if any of the top-k is relevant else 0.0."""
    return 1.0 if any(item in relevant for item in recommended[:k]) else 0.0
