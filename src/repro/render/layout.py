"""Label layout: from naive floating bubbles to decluttered placement.

MacIntyre's complaint the paper quotes — "a cluster of bobbling tags,
not aligned with anything ... not better than simply displaying the data
on a 2D map" — becomes measurable here:

- :func:`naive_layout` — every label centred on its anchor, overlaps and
  all (the AR-browser baseline).
- :func:`declutter_layout` — greedy priority placement over candidate
  offsets with overlap rejection and optional drop, producing leader-
  line offsets when a label moves off its anchor.
- :func:`clutter_metrics` — overlap ratio, dropped/overlapping counts,
  mean leader length: the quantities experiments F7/A1 report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..util.errors import RenderError
from ..util.geometry import Rect

__all__ = ["PlacedLabel", "naive_layout", "declutter_layout",
           "clutter_metrics", "LayoutMetrics"]


class PlacedLabel(NamedTuple):
    """A label's final screen placement (an immutable record).

    A tuple is built in one step, where a frozen dataclass pays one
    ``object.__setattr__`` per field; the compositor builds one per
    label per frame."""

    annotation_id: str
    rect: Rect
    anchor_x: float
    anchor_y: float
    priority: float
    dropped: bool = False

    @property
    def leader_length(self) -> float:
        """Distance from anchor to the label centre."""
        cx, cy = self.rect.center
        return ((cx - self.anchor_x) ** 2 + (cy - self.anchor_y) ** 2) ** 0.5


@dataclass(frozen=True)
class LayoutMetrics:
    """Quality summary of one laid-out frame."""

    total: int
    placed: int
    dropped: int
    overlapping: int
    overlap_ratio: float  # total pairwise overlap area / screen area
    mean_leader_px: float
    offscreen: int

    @property
    def useful_ratio(self) -> float:
        """Labels placed on-screen without overlap, over all labels."""
        if self.total == 0:
            return 1.0
        good = self.placed - self.overlapping - self.offscreen
        return max(0.0, good) / self.total


def _label_rect(x: float, y: float, width: float, height: float) -> Rect:
    return Rect(x - width / 2.0, y - height / 2.0, width, height)


def naive_layout(items: list[tuple[str, float, float, float, float, float]],
                 ) -> list[PlacedLabel]:
    """Floating bubbles: centre each label on its anchor, no collision
    handling.

    ``items`` rows: (annotation_id, anchor_x, anchor_y, width, height,
    priority).
    """
    return [PlacedLabel(annotation_id=aid,
                        rect=_label_rect(ax, ay, w, h),
                        anchor_x=ax, anchor_y=ay, priority=priority)
            for aid, ax, ay, w, h, priority in items]


_CANDIDATE_OFFSETS = [
    (0.0, 0.0), (0.0, -1.2), (1.2, 0.0), (0.0, 1.2), (-1.2, 0.0),
    (1.0, -1.0), (-1.0, -1.0), (1.0, 1.0), (-1.0, 1.0),
    (0.0, -2.4), (2.4, 0.0), (0.0, 2.4), (-2.4, 0.0),
]


def declutter_layout(items: list[tuple[str, float, float, float, float, float]],
                     screen: Rect, max_labels: int | None = None,
                     allow_drop: bool = True) -> list[PlacedLabel]:
    """Greedy priority placement with candidate offsets.

    Labels are processed in priority order; each tries offsets scaled by
    its own extent until it finds a position inside the screen that does
    not overlap an already-placed label.  Exhausting the candidates
    drops the label (when allowed) or accepts the overlapping anchor
    position.

    Candidates are tested as float edges ``(x1, y1, x2, y2)`` computed
    the way :class:`Rect` computes them; a ``Rect`` exists only for the
    position a label ends up with.
    """
    ordered = sorted(items, key=lambda row: (-row[5], row[0]))
    if max_labels is not None:
        if max_labels < 0:
            raise RenderError("max_labels must be non-negative")
        overflow = ordered[max_labels:]
        ordered = ordered[:max_labels]
    else:
        overflow = []
    sx1, sy1, sx2, sy2 = screen.x, screen.y, screen.x2, screen.y2
    placed: list[PlacedLabel] = []
    occupied: list[tuple[float, float, float, float]] = []
    for aid, ax, ay, w, h, priority in ordered:
        half_w, half_h = w / 2.0, h / 2.0
        for ox, oy in _CANDIDATE_OFFSETS:
            x1 = ax + ox * w - half_w
            y1 = ay + oy * h - half_h
            x2 = x1 + w
            y2 = y1 + h
            if not (x1 >= sx1 and y1 >= sy1 and x2 <= sx2 and y2 <= sy2):
                continue
            for bx1, by1, bx2, by2 in occupied:
                if not (bx1 >= x2 or bx2 <= x1 or by1 >= y2 or by2 <= y1):
                    break
            else:
                break  # on screen and clear of every placed label
        else:
            # every candidate was off-screen or collided
            x1, y1 = ax - half_w, ay - half_h
            x2, y2 = x1 + w, y1 + h
            if allow_drop:
                placed.append(PlacedLabel(aid, Rect(x1, y1, w, h),
                                          ax, ay, priority, dropped=True))
                continue
        occupied.append((x1, y1, x2, y2))
        placed.append(PlacedLabel(aid, Rect(x1, y1, w, h), ax, ay, priority))
    for aid, ax, ay, w, h, priority in overflow:
        placed.append(PlacedLabel(aid, _label_rect(ax, ay, w, h),
                                  ax, ay, priority, dropped=True))
    return placed


def clutter_metrics(labels: list[PlacedLabel], screen: Rect) -> LayoutMetrics:
    """Measure a laid-out frame."""
    active = [label for label in labels if not label.dropped]
    edges = [(r.x, r.y, r.x + r.width, r.y + r.height)
             for r in (label.rect for label in active)]
    overlap_area = 0.0
    overlapping_ids: set[str] = set()
    for i, (ax1, ay1, ax2, ay2) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            bx1, by1, bx2, by2 = edges[j]
            # Rect.intersection on edges, same max/min tie rules
            x1 = bx1 if bx1 > ax1 else ax1
            x2 = bx2 if bx2 < ax2 else ax2
            if x2 <= x1:
                continue
            y1 = by1 if by1 > ay1 else ay1
            y2 = by2 if by2 < ay2 else ay2
            if y2 <= y1:
                continue
            overlap_area += (x2 - x1) * (y2 - y1)
            overlapping_ids.add(active[i].annotation_id)
            overlapping_ids.add(active[j].annotation_id)
    sx1, sy1, sx2, sy2 = screen.x, screen.y, screen.x2, screen.y2
    offscreen = sum(
        1 for x1, y1, x2, y2 in edges
        if not (x1 >= sx1 and y1 >= sy1 and x2 <= sx2 and y2 <= sy2))
    leaders = [label.leader_length for label in active]
    return LayoutMetrics(
        total=len(labels),
        placed=len(active),
        dropped=len(labels) - len(active),
        overlapping=len(overlapping_ids),
        overlap_ratio=overlap_area / screen.area if screen.area > 0 else 0.0,
        mean_leader_px=(sum(leaders) / len(leaders)) if leaders else 0.0,
        offscreen=offscreen,
    )
