"""Overlay composition: world annotations -> one AR frame.

The compositor runs the full per-frame path: project anchors through the
camera, cull off-screen content, resolve occlusion per policy, lay out
labels, and enforce a frame budget by shedding low-priority content.
Its output, :class:`OverlayFrame`, is what the application "sees"; its
metrics are what the visualization experiments measure.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

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

#: distinct (pose, intrinsics, world anchor) projections a compositor
#: keeps; the memo starts over when it reaches this size (an entry is
#: ~290 bytes, so the memo stays under 5 MB)
_PROJECTION_MEMO_MAX = 1 << 14

#: fields of a compose row, read in C (a sort key or ``map`` of a
#: lambda pays one Python call per label)
_ORDER_KEY = itemgetter(0)
_LAYOUT_ROW = itemgetter(1)
_ANNOTATION_ID = itemgetter(0)


class OverlayItem(NamedTuple):
    """One composited piece of content (an immutable record)."""

    annotation_id: str
    kind: str
    label: PlacedLabel
    depth_m: float
    occluded: bool
    xray: bool  # drawn in see-through style
    payload: dict


@dataclass
class OverlayFrame:
    """Result of compositing one frame.

    ``placed`` is the layout's output in placement order and ``screen``
    the rectangle it was laid out on.  ``layout`` measures them on first
    read and keeps the result: the metrics are quadratic in the labels
    and nothing on the frame's own path reads them.
    """

    items: list[OverlayItem]
    culled_offscreen: int
    culled_occluded: int
    shed_by_budget: int
    placed: list[PlacedLabel]
    screen: Rect

    @property
    def drawn(self) -> int:
        return sum(1 for item in self.items if not item.label.dropped)

    @cached_property
    def layout(self) -> LayoutMetrics:
        return clutter_metrics(self.placed, self.screen)


def _project_rows(pose: Pose, intrinsics: CameraIntrinsics,
                  points: list[list[float]],
                  ) -> list[tuple[float, float, float, bool]]:
    """``(px, py, depth, in_view)`` of each world point: the scalar form
    of ``intrinsics.project(pose.transform(points))`` and ``in_view``.

    Each coordinate is written out (``x*r00 + y*r01 + z*r02 + t0``, ...)
    in Python floats, one rounding per operation, so a point's pixel
    depends on the pose, the intrinsics and that point alone.  A BLAS
    matmul rounds a row differently depending on how many rows share
    the batch; a point must not depend on its neighbours, nor on which
    of them a memo already holds.  A frame misses a few anchors, where a
    loop costs less than numpy's per-call overhead.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = \
        pose.rotation.tolist()
    t0, t1, t2 = pose.translation.tolist()
    fx, fy, cx, cy = intrinsics.fx, intrinsics.fy, intrinsics.cx, intrinsics.cy
    width, height = intrinsics.width, intrinsics.height
    out = []
    for x, y, z in points:
        depth = x * r20 + y * r21 + z * r22 + t2
        if depth > 0:
            px = fx * (x * r00 + y * r01 + z * r02 + t0) / depth + cx
            py = fy * (x * r10 + y * r11 + z * r12 + t1) / depth + cy
        else:  # behind the camera (or NaN): no pixel
            px = py = math.nan
        # NaN and +-inf fail the range test, as in ``in_view``
        out.append((px, py, depth, 0 <= px < width and 0 <= py < height))
    return out


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
        self._projections: dict[tuple[bytes, bytes],
                                tuple[float, float, float, bool]] = {}

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
        annotations, anchors = scene.world_anchors()

        # One row per surviving annotation, built once and carried
        # through cull -> shed -> layout: (budget order key, layout input
        # row, annotation, depth, occluded).  Occlusion is tested per
        # frame, not memoised.
        rows = []
        culled_offscreen = 0
        culled_occluded = 0
        if annotations:
            check_occlusion = (self.occlusion_policy != "ignore"
                               and bool(self.occlusion.occluders))
            camera_center = pose.camera_center if check_occlusion else None
            hide = self.occlusion_policy == "hide"
            for i, (annotation, (px, py, depth, ok)) in enumerate(
                    zip(annotations, self._project(pose, anchors))):
                if not ok:
                    culled_offscreen += 1
                    continue
                occluded = check_occlusion and not self.occlusion.check(
                    camera_center, anchors[i]).visible
                if occluded and hide:
                    culled_occluded += 1
                    continue
                aid = annotation.annotation_id
                priority = annotation.priority
                rows.append(((-priority, aid),
                             (aid, px, py, annotation.width_px,
                              annotation.height_px, priority),
                             annotation, depth, occluded))

        # Frame budget: shed lowest priority first.
        xray = self.occlusion_policy == "xray"
        shed = 0
        budget = self.budget
        if budget is not None:
            rows.sort(key=_ORDER_KEY)
            label_cost = budget.cost_per_label_ms
            xray_cost = label_cost + budget.xray_surcharge_ms
            limit = budget.budget_ms
            cost = 0.0
            kept = []
            for row in rows:
                item_cost = xray_cost if row[4] and xray else label_cost
                if cost + item_cost > limit:
                    shed += 1
                    continue
                cost += item_cost
                kept.append(row)
            rows = kept

        layout_input = list(map(_LAYOUT_ROW, rows))
        if self.declutter:
            placed = declutter_layout(layout_input, screen)
        else:
            placed = naive_layout(layout_input)
        label_of = dict(zip(map(_ANNOTATION_ID, placed), placed))

        items = [OverlayItem(a.annotation_id, a.kind,
                             label_of[a.annotation_id], depth, occluded,
                             occluded and xray, a.payload)
                 for _key, _layout_row, a, depth, occluded in rows]
        frame = OverlayFrame(
            items=items,
            culled_offscreen=culled_offscreen,
            culled_occluded=culled_occluded,
            shed_by_budget=shed,
            placed=placed,
            screen=screen,
        )
        if self.metrics is not None:
            m = self.metrics
            m.counter("render.frames").inc()
            m.counter("render.culled_offscreen").inc(culled_offscreen)
            m.counter("render.culled_occluded").inc(culled_occluded)
            m.counter("render.shed_by_budget").inc(shed)
            m.summary("render.drawn_per_frame").observe(frame.drawn)
        return frame

    def _project(self, pose: Pose, anchors: np.ndarray,
                 ) -> list[tuple[float, float, float, bool]]:
        """:func:`_project_rows` of ``anchors``, memoised per (pose,
        intrinsics, world anchor).  The key is the bytes of everything
        the value depends on, so a pose mutated in place or reassigned
        intrinsics miss; the misses of a frame go through one pass."""
        intr = self.intrinsics
        view = (pose.rotation.tobytes() + pose.translation.tobytes()
                + struct.pack("<6d", intr.fx, intr.fy, intr.cx, intr.cy,
                              intr.width, intr.height))
        raw = anchors.tobytes()
        step = 3 * anchors.itemsize
        keys = [(view, raw[i:i + step]) for i in range(0, len(raw), step)]
        memo = self._projections
        out = list(map(memo.get, keys))
        if None in out:
            missing = [i for i, hit in enumerate(out) if hit is None]
            if len(memo) + len(missing) > _PROJECTION_MEMO_MAX:
                memo.clear()
            for i, value in zip(missing, _project_rows(
                    pose, intr, anchors[missing].tolist())):
                out[i] = memo[keys[i]] = value
        return out
