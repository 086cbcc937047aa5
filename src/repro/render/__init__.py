"""AR rendering substrate: scene graph, occlusion, label layout,
overlay composition with frame budgets."""

from .compositor import Compositor, FrameBudget, OverlayFrame, OverlayItem
from .layout import (
    LayoutMetrics,
    PlacedLabel,
    clutter_metrics,
    declutter_layout,
    naive_layout,
)
from .occlusion import BoxOccluder, OcclusionWorld, Visibility
from .scene import Annotation, SceneGraph, SceneNode
from .stability import StableLayout

__all__ = [
    "Compositor",
    "FrameBudget",
    "OverlayFrame",
    "OverlayItem",
    "LayoutMetrics",
    "PlacedLabel",
    "clutter_metrics",
    "declutter_layout",
    "naive_layout",
    "BoxOccluder",
    "OcclusionWorld",
    "Visibility",
    "Annotation",
    "SceneGraph",
    "SceneNode",
    "StableLayout",
]
