"""Point-of-interest database.

The "POI databases, geocoded Tweets, and Flickr" data source of Section
3.2, reduced to one queryable store: POIs carry category, name and
popularity; radius queries are served from the quadtree.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.errors import SensorError
from ..util.geometry import Rect
from .spatial import QuadTree, SpatialPoint

__all__ = ["Poi", "PoiDatabase"]


@dataclass(frozen=True)
class Poi:
    """A point of interest in local metre coordinates."""

    poi_id: str
    name: str
    category: str
    x: float
    y: float
    popularity: float = 0.0


class PoiDatabase:
    """Quadtree-backed POI store."""

    def __init__(self, bounds: Rect) -> None:
        self._tree = QuadTree(bounds)
        self._by_id: dict[str, Poi] = {}

    def add(self, poi: Poi) -> None:
        if poi.poi_id in self._by_id:
            raise SensorError(f"duplicate POI id {poi.poi_id!r}")
        self._tree.insert(SpatialPoint(poi.x, poi.y, payload=poi))
        self._by_id[poi.poi_id] = poi

    def get(self, poi_id: str) -> Poi:
        try:
            return self._by_id[poi_id]
        except KeyError:
            raise SensorError(f"unknown POI {poi_id!r}") from None

    def __len__(self) -> int:
        return len(self._by_id)

    def categories(self) -> list[str]:
        return sorted({p.category for p in self._by_id.values()})

    def within(self, x: float, y: float, radius: float) -> list[Poi]:
        """POIs within ``radius`` metres, ordered by distance then id."""
        hits = [p.payload for p in self._tree.query_radius(x, y, radius)]
        hits.sort(key=lambda p: ((p.x - x) ** 2 + (p.y - y) ** 2, p.poi_id))
        return hits

    def most_popular(self, k: int = 10) -> list[Poi]:
        pois = list(self._by_id.values())
        pois.sort(key=lambda p: (-p.popularity, p.poi_id))
        return pois[:k]
