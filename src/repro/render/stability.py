"""Temporal label stability — the literal fix for "bobbling tags".

MacIntyre's complaint the paper quotes is about labels that jitter and
jump between frames.  :class:`StableLayout` wraps the per-frame
declutter layout with hysteresis:

- a label keeps its previous *offset from its anchor* as long as the
  resulting rectangle stays on-screen and collision-free (processed in
  priority order);
- only labels whose kept position fails re-run placement.
"""

from __future__ import annotations

from ..util.geometry import Rect
from .layout import PlacedLabel, declutter_layout

__all__ = ["StableLayout"]


class StableLayout:
    """Stateful declutter layout with position hysteresis."""

    def __init__(self, screen: Rect) -> None:
        self.screen = screen
        self._offsets: dict[str, tuple[float, float]] = {}

    def layout(self, items: list[tuple[str, float, float, float, float,
                                       float]]) -> list[PlacedLabel]:
        """Place labels, keeping last frame's anchor offsets when legal."""
        ordered = sorted(items, key=lambda row: (-row[5], row[0]))
        placed: list[PlacedLabel] = []
        occupied: list[Rect] = []
        retry: list[tuple[str, float, float, float, float, float]] = []
        for aid, ax, ay, w, h, priority in ordered:
            offset = self._offsets.get(aid)
            if offset is None:
                retry.append((aid, ax, ay, w, h, priority))
                continue
            rect = Rect(ax + offset[0] - w / 2.0,
                        ay + offset[1] - h / 2.0, w, h)
            inside = (rect.x >= self.screen.x and rect.y >= self.screen.y
                      and rect.x2 <= self.screen.x2
                      and rect.y2 <= self.screen.y2)
            if inside and not any(rect.intersects(o) for o in occupied):
                occupied.append(rect)
                placed.append(PlacedLabel(aid, rect, ax, ay, priority))
            else:
                retry.append((aid, ax, ay, w, h, priority))
        # Labels without a keepable position go through fresh placement
        # against the already-occupied rectangles.
        if retry:
            fresh = declutter_layout(retry, self.screen)
            fresh_by_id = {l.annotation_id: l for l in fresh}
            for aid, ax, ay, w, h, priority in retry:
                label = fresh_by_id[aid]
                if not label.dropped and any(
                        label.rect.intersects(o) for o in occupied):
                    # Collides with a hysteresis-kept label: drop rather
                    # than overlap (stability beats completeness).
                    label = PlacedLabel(aid, label.rect, ax, ay, priority,
                                        dropped=True)
                if not label.dropped:
                    occupied.append(label.rect)
                    cx, cy = label.rect.center
                    self._offsets[aid] = (cx - ax, cy - ay)
                else:
                    self._offsets.pop(aid, None)
                placed.append(label)
        # Remember offsets of kept labels too (no-op but keeps the map
        # pruned to live labels).
        live = {l.annotation_id for l in placed if not l.dropped}
        self._offsets = {aid: off for aid, off in self._offsets.items()
                         if aid in live}
        for label in placed:
            if not label.dropped and label.annotation_id not in self._offsets:
                cx, cy = label.rect.center
                self._offsets[label.annotation_id] = (
                    cx - label.anchor_x, cy - label.anchor_y)
        return placed
