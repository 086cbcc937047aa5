"""Point quadtree: range queries in local metres.

Backs the POI database and the X-ray-vision object lookup.  Points carry
an opaque payload; coordinates are (x, y) in the local projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..util.errors import SpatialIndexError
from ..util.geometry import Rect

__all__ = ["SpatialPoint", "QuadTree"]


@dataclass(frozen=True)
class SpatialPoint:
    x: float
    y: float
    payload: Any = None

    def distance_sq(self, x: float, y: float) -> float:
        return (self.x - x) ** 2 + (self.y - y) ** 2


class _Node:
    __slots__ = ("bounds", "points", "children")

    def __init__(self, bounds: Rect) -> None:
        self.bounds = bounds
        self.points: list[SpatialPoint] = []
        self.children: list["_Node"] | None = None


class QuadTree:
    """A bucketed point quadtree over a fixed bounding rectangle: a
    leaf splits past ``bucket_size`` points, down to ``max_depth``."""

    bucket_size = 16
    max_depth = 16

    def __init__(self, bounds: Rect) -> None:
        self._root = _Node(bounds)
        self._count = 0

    @property
    def bounds(self) -> Rect:
        return self._root.bounds

    def __len__(self) -> int:
        return self._count

    # -- insert ------------------------------------------------------------

    def insert(self, point: SpatialPoint) -> None:
        if not self._root.bounds.contains(point.x, point.y):
            raise SpatialIndexError(
                f"point ({point.x}, {point.y}) outside index bounds "
                f"{self._root.bounds}"
            )
        self._insert(self._root, point, depth=0)
        self._count += 1

    def _insert(self, node: _Node, point: SpatialPoint, depth: int) -> None:
        if node.children is not None:
            self._insert(self._child_for(node, point), point, depth + 1)
            return
        node.points.append(point)
        if len(node.points) > self.bucket_size and depth < self.max_depth:
            self._split(node)
            points, node.points = node.points, []
            for p in points:
                self._insert(self._child_for(node, p), p, depth + 1)

    def _split(self, node: _Node) -> None:
        b = node.bounds
        hw, hh = b.width / 2, b.height / 2
        node.children = [
            _Node(Rect(b.x, b.y, hw, hh)),
            _Node(Rect(b.x + hw, b.y, b.width - hw, hh)),
            _Node(Rect(b.x, b.y + hh, hw, b.height - hh)),
            _Node(Rect(b.x + hw, b.y + hh, b.width - hw, b.height - hh)),
        ]

    def _child_for(self, node: _Node, point: SpatialPoint) -> _Node:
        assert node.children is not None
        b = node.bounds
        east = point.x >= b.x + b.width / 2
        north = point.y >= b.y + b.height / 2
        return node.children[(2 if north else 0) + (1 if east else 0)]

    # -- queries ------------------------------------------------------------

    def query_rect(self, rect: Rect) -> list[SpatialPoint]:
        """All points inside ``rect`` (inclusive bounds)."""
        out: list[SpatialPoint] = []
        self._query_rect(self._root, rect, out)
        return out

    def _query_rect(self, node: _Node, rect: Rect,
                    out: list[SpatialPoint]) -> None:
        if not node.bounds.intersects(rect):
            return
        if node.children is not None:
            for child in node.children:
                self._query_rect(child, rect, out)
            return
        out.extend(p for p in node.points if rect.contains(p.x, p.y))

    def query_radius(self, x: float, y: float, radius: float,
                     ) -> list[SpatialPoint]:
        """Points within Euclidean ``radius`` of (x, y)."""
        if radius < 0:
            raise SpatialIndexError("radius must be non-negative")
        box = Rect(x - radius, y - radius, 2 * radius, 2 * radius)
        r_sq = radius * radius
        return [p for p in self.query_rect(box)
                if p.distance_sq(x, y) <= r_sq]
