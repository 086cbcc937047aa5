"""Overlay composition: world annotations -> one AR frame.

The compositor runs the full per-frame path: project anchors through the
camera, cull off-screen content, resolve occlusion per policy, lay out
labels, and enforce a frame budget by shedding low-priority content.
Its output, :class:`OverlayFrame`, is what the application "sees"; its
metrics are what the visualization experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..util.errors import RenderError
from ..util.geometry import Rect
from ..vision.camera import CameraIntrinsics, Pose
from .layout import (
    LayoutMetrics,
    PlacedLabel,
    clutter_metrics,
    declutter_layout,
    naive_layout,
)
from .occlusion import OcclusionWorld
from .scene import SceneGraph

__all__ = ["OverlayItem", "OverlayFrame", "Compositor", "FrameBudget"]


@dataclass(frozen=True)
class OverlayItem:
    """One composited piece of content."""

    annotation_id: str
    kind: str
    label: PlacedLabel
    depth_m: float
    occluded: bool
    xray: bool  # drawn in see-through style
    payload: dict = field(default_factory=dict)


@dataclass
class OverlayFrame:
    """Result of compositing one frame."""

    items: list[OverlayItem]
    culled_offscreen: int
    culled_occluded: int
    shed_by_budget: int
    layout: LayoutMetrics

    @property
    def drawn(self) -> int:
        return sum(1 for item in self.items if not item.label.dropped)


@dataclass(frozen=True)
class FrameBudget:
    """Per-frame cost model: a label costs ``cost_per_label`` ms, x-ray
    styling costs extra; content is shed lowest-priority-first when the
    total exceeds ``budget_ms`` (the AR real-time cap of Section 4.1)."""

    budget_ms: float = 16.0
    cost_per_label_ms: float = 0.25
    xray_surcharge_ms: float = 0.15

    def __post_init__(self) -> None:
        if self.budget_ms <= 0 or self.cost_per_label_ms <= 0:
            raise RenderError("budget and label cost must be positive")


class Compositor:
    """Projects, culls, occludes, lays out and sheds annotations."""

    def __init__(self, intrinsics: CameraIntrinsics,
                 occlusion: OcclusionWorld | None = None,
                 occlusion_policy: str = "xray",
                 declutter: bool = True,
                 budget: FrameBudget | None = None,
                 tracer=None, metrics=None) -> None:
        if occlusion_policy not in ("hide", "xray", "ignore"):
            raise RenderError(
                f"unknown occlusion policy {occlusion_policy!r}")
        self.intrinsics = intrinsics
        self.occlusion = occlusion if occlusion is not None else OcclusionWorld()
        self.occlusion_policy = occlusion_policy
        self.declutter = declutter
        self.budget = budget
        # Duck-typed observability hooks, same convention as the
        # streaming executor; None keeps compose() hook-free.
        self.tracer = tracer
        self.metrics = metrics
        self.frames_composited = 0

    def compose(self, scene: SceneGraph, pose: Pose) -> OverlayFrame:
        if self.tracer is None:
            return self._compose(scene, pose)
        span = self.tracer.start_span("render:compose")
        with self.tracer.activate(span):
            frame = self._compose(scene, pose)
        span.set_attr("drawn", frame.drawn)
        span.set_attr("culled_offscreen", frame.culled_offscreen)
        span.set_attr("culled_occluded", frame.culled_occluded)
        span.set_attr("shed_by_budget", frame.shed_by_budget)
        span.end()
        return frame

    def _compose(self, scene: SceneGraph, pose: Pose) -> OverlayFrame:
        self.frames_composited += 1
        screen = Rect(0, 0, self.intrinsics.width, self.intrinsics.height)
        annotations = scene.all_world_annotations()
        camera_center = pose.camera_center

        # One row per surviving annotation, built once and carried
        # through cull -> shed -> layout: (annotation, px, py, depth,
        # occluded).
        rows = []
        culled_offscreen = 0
        culled_occluded = 0
        if annotations:
            anchors = np.array([anchor for _a, anchor in annotations])
            cam_points = pose.transform(anchors)
            pixels = self.intrinsics.project(cam_points)
            in_view = self.intrinsics.in_view(pixels)
            check_occlusion = (self.occlusion_policy != "ignore"
                               and bool(self.occlusion.occluders))
            hide = self.occlusion_policy == "hide"
            for (annotation, anchor), (px, py), depth, ok in zip(
                    annotations, pixels.tolist(),
                    cam_points[:, 2].tolist(), in_view.tolist()):
                if not ok:
                    culled_offscreen += 1
                    continue
                occluded = check_occlusion and not self.occlusion.check(
                    camera_center, anchor).visible
                if occluded and hide:
                    culled_occluded += 1
                    continue
                rows.append((annotation, px, py, depth, occluded))

        # Frame budget: shed lowest priority first.
        xray = self.occlusion_policy == "xray"
        shed = 0
        if self.budget is not None:
            rows.sort(key=lambda r: (-r[0].priority, r[0].annotation_id))
            cost = 0.0
            kept = []
            for row in rows:
                item_cost = self.budget.cost_per_label_ms
                if row[4] and xray:
                    item_cost += self.budget.xray_surcharge_ms
                if cost + item_cost > self.budget.budget_ms:
                    shed += 1
                    continue
                cost += item_cost
                kept.append(row)
            rows = kept

        layout_input = [
            (a.annotation_id, px, py, a.width_px, a.height_px, a.priority)
            for a, px, py, _depth, _occluded in rows
        ]
        if self.declutter:
            placed = declutter_layout(layout_input, screen)
        else:
            placed = naive_layout(layout_input)
        placed_by_id = {p.annotation_id: p for p in placed}

        items = [OverlayItem(
            annotation_id=annotation.annotation_id,
            kind=annotation.kind,
            label=placed_by_id[annotation.annotation_id],
            depth_m=depth,
            occluded=occluded,
            xray=occluded and xray,
            payload=annotation.payload,
        ) for annotation, _px, _py, depth, occluded in rows]
        frame = OverlayFrame(
            items=items,
            culled_offscreen=culled_offscreen,
            culled_occluded=culled_occluded,
            shed_by_budget=shed,
            layout=clutter_metrics(placed, screen),
        )
        if self.metrics is not None:
            m = self.metrics
            m.counter("render.frames").inc()
            m.counter("render.culled_offscreen").inc(culled_offscreen)
            m.counter("render.culled_occluded").inc(culled_occluded)
            m.counter("render.shed_by_budget").inc(shed)
            m.summary("render.drawn_per_frame").observe(frame.drawn)
        return frame
