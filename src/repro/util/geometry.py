"""Small shared geometry helpers (2-D points, rectangles).

The vision, sensors and render subsystems all need axis-aligned
rectangles and point containment; keeping one implementation here avoids
three subtly different ones.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Rect", "clamp"]


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into [low, high]."""
    if low > high:
        raise ValueError(f"empty clamp range [{low}, {high}]")
    return max(low, min(high, value))


class _RectFields(NamedTuple):
    x: float
    y: float
    width: float
    height: float


class Rect(_RectFields):
    """Axis-aligned rectangle: (x, y) is the min corner (an immutable record).

    A tuple, like :class:`~repro.render.layout.PlacedLabel`: it equals
    and hashes as the tuple of its fields, and is built in one step where
    a frozen dataclass pays one ``object.__setattr__`` per field; the
    layout builds one per label per frame.  A negative or NaN extent is
    refused.
    """

    __slots__ = ()

    def __new__(cls, x: float, y: float, width: float,
                height: float) -> "Rect":
        if width >= 0 and height >= 0:
            return tuple.__new__(cls, (x, y, width, height))
        raise ValueError("Rect width/height must be non-negative, not NaN")

    @property
    def x2(self) -> float:
        return self.x + self.width

    @property
    def y2(self) -> float:
        return self.y + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def contains(self, px: float, py: float) -> bool:
        return self.x <= px <= self.x2 and self.y <= py <= self.y2

    def intersects(self, other: "Rect") -> bool:
        return not (
            other.x >= self.x2
            or other.x2 <= self.x
            or other.y >= self.y2
            or other.y2 <= self.y
        )

    def translated(self, dx: float, dy: float) -> "Rect":
        return Rect(self.x + dx, self.y + dy, self.width, self.height)
