"""Semantic entities and the user-context store.

The interpretation challenge (Section 4.2) is that analytics emit
statistics about *identifiers* while AR needs *semantically meaningful,
spatially anchored* content.  A :class:`SemanticEntity` is the bridge:
a typed, positioned thing ("product p17 is a coffee brand on shelf 3 at
(x, y, z)").  The :class:`ContextStore` tracks what surrounds the user
right now, which is the context analytics results get interpreted into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..util.errors import ContextError

__all__ = ["SemanticEntity", "ContextStore", "UserContext"]


@dataclass
class SemanticEntity:
    """A typed, positioned, described thing in the world."""

    entity_id: str
    entity_type: str  # "product", "poi", "patient", "vehicle", ...
    position: np.ndarray  # world (3,)
    name: str = ""
    tags: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.entity_id:
            raise ContextError("entity_id must be non-empty")
        self.position = np.asarray(self.position, dtype=float).reshape(3)


@dataclass
class UserContext:
    """The user's current situation."""

    user_id: str
    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    heading_rad: float = 0.0
    activity: str = "idle"  # "walking", "shopping", "driving", ...
    attributes: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.position = np.asarray(self.position, dtype=float).reshape(3)


class ContextStore:
    """Entities + per-user contexts, with proximity queries."""

    def __init__(self) -> None:
        self._entities: dict[str, SemanticEntity] = {}
        self._users: dict[str, UserContext] = {}

    # -- entities ----------------------------------------------------------

    def add_entity(self, entity: SemanticEntity) -> SemanticEntity:
        if entity.entity_id in self._entities:
            raise ContextError(f"duplicate entity {entity.entity_id!r}")
        self._entities[entity.entity_id] = entity
        return entity

    def entity(self, entity_id: str) -> SemanticEntity:
        try:
            return self._entities[entity_id]
        except KeyError:
            raise ContextError(f"unknown entity {entity_id!r}") from None

    def entities(self) -> list[SemanticEntity]:
        return sorted(self._entities.values(), key=lambda e: e.entity_id)

    def __len__(self) -> int:
        return len(self._entities)

    # -- users --------------------------------------------------------------

    def update_user(self, context: UserContext) -> None:
        self._users[context.user_id] = context

    def user(self, user_id: str) -> UserContext:
        try:
            return self._users[user_id]
        except KeyError:
            raise ContextError(f"unknown user {user_id!r}") from None

    # -- queries ------------------------------------------------------------

    def nearby(self, user_id: str, radius_m: float) -> list[SemanticEntity]:
        """Entities within ``radius_m`` of the user, nearest first."""
        user = self.user(user_id)
        hits = []
        for entity in self.entities():
            dist = float(np.linalg.norm(entity.position - user.position))
            if dist <= radius_m:
                hits.append((dist, entity))
        hits.sort(key=lambda pair: (pair[0], pair[1].entity_id))
        return [entity for _d, entity in hits]

    def distance(self, user_id: str, entity_id: str) -> float:
        user = self.user(user_id)
        entity = self.entity(entity_id)
        return float(np.linalg.norm(entity.position - user.position))
