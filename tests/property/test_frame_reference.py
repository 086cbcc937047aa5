"""A frame is what the frame path composed before its per-label work was
cut, bit for bit.

The reference below is the frame path as it was written with a
frozen-dataclass ``Rect``: the scene walk that composes every node's
transform with matmuls (the root's identity included), the budget pass
that sorts through a key function per row and reads the label costs per
row, and the layout, placement map and items built pass by pass.  Over
random scenes — flat ones, flat ones whose root transform was reassigned
or mutated in place, and nested ones with rotations — with anchors that
may hold ``-0.0``, ``±inf`` or NaN, shared positions, tied (and NaN)
priorities, every occlusion policy, layout on and off and budget on and
off, ``SceneGraph.world_anchors`` gives the same anchors byte for byte
and ``Compositor.compose`` the same frame field for field: items, every
rect float, flags, counts and ``placed``.  A ``Rect`` keeps the
reference's fields, ``repr`` and hash.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render import (
    Annotation,
    BoxOccluder,
    Compositor,
    FrameBudget,
    OcclusionWorld,
    OverlayItem,
    PlacedLabel,
    SceneGraph,
    SceneNode,
)
from repro.render.compositor import _project_rows
from repro.render.layout import _CANDIDATE_OFFSETS
from repro.vision import CameraIntrinsics, Pose

INTRINSICS = CameraIntrinsics(fx=400, fy=400, cx=160, cy=120, width=320,
                              height=240)


# -- the reference ---------------------------------------------------------


@dataclass(frozen=True)
class Rect:
    """The frozen-dataclass rectangle the frame path built before."""

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width < 0 or self.height < 0:
            raise ValueError("Rect width/height must be non-negative")

    @property
    def x2(self) -> float:
        return self.x + self.width

    @property
    def y2(self) -> float:
        return self.y + self.height


def reference_world_anchors(scene):
    annotations, blocks = [], []

    def walk(node, r_p, t_p):
        r = r_p @ node.rotation
        t = r_p @ node.translation + t_p
        if node.annotations:
            annotations.extend(node.annotations)
            local = np.array([a.anchor for a in node.annotations])
            blocks.append(local @ r.T + t)
        for child in node.children:
            walk(child, r, t)

    walk(scene.root, np.eye(3), np.zeros(3))
    if not blocks:
        return annotations, np.empty((0, 3))
    return annotations, (blocks[0] if len(blocks) == 1
                         else np.concatenate(blocks))


def reference_declutter(items, screen):
    ordered = sorted(items, key=lambda row: (-row[5], row[0]))
    sx1, sy1, sx2, sy2 = screen.x, screen.y, screen.x2, screen.y2
    placed, occupied = [], []
    for aid, ax, ay, w, h, priority in ordered:
        half_w, half_h = w / 2.0, h / 2.0
        for ox, oy in _CANDIDATE_OFFSETS:
            x1 = ax + ox * w - half_w
            y1 = ay + oy * h - half_h
            x2 = x1 + w
            y2 = y1 + h
            if not (x1 >= sx1 and y1 >= sy1 and x2 <= sx2 and y2 <= sy2):
                continue
            if not any(not (bx1 >= x2 or bx2 <= x1 or by1 >= y2
                            or by2 <= y1)
                       for bx1, by1, bx2, by2 in occupied):
                break
        else:
            x1, y1 = ax - half_w, ay - half_h
            x2, y2 = x1 + w, y1 + h
            placed.append(PlacedLabel(aid, Rect(x1, y1, w, h), ax, ay,
                                      priority, dropped=True))
            continue
        occupied.append((x1, y1, x2, y2))
        placed.append(PlacedLabel(aid, Rect(x1, y1, w, h), ax, ay, priority))
    return placed


def reference_naive(items):
    return [PlacedLabel(aid, Rect(ax - w / 2.0, ay - h / 2.0, w, h), ax, ay,
                        priority)
            for aid, ax, ay, w, h, priority in items]


def reference_compose(compositor, scene, pose):
    """``(items, culled_offscreen, culled_occluded, shed, placed,
    screen)`` as the frame path composed them before."""
    intr = compositor.intrinsics
    screen = Rect(0, 0, intr.width, intr.height)
    annotations, anchors = reference_world_anchors(scene)
    policy = compositor.occlusion_policy
    rows, culled_offscreen, culled_occluded = [], 0, 0
    if annotations:
        check = policy != "ignore" and bool(compositor.occlusion.occluders)
        center = pose.camera_center if check else None
        for i, (annotation, (px, py, depth, ok)) in enumerate(zip(
                annotations, _project_rows(pose, intr, anchors.tolist()))):
            if not ok:
                culled_offscreen += 1
                continue
            occluded = check and not compositor.occlusion.check(
                center, anchors[i]).visible
            if occluded and policy == "hide":
                culled_occluded += 1
                continue
            rows.append((annotation, px, py, depth, occluded))
    xray = policy == "xray"
    shed = 0
    budget = compositor.budget
    if budget is not None:
        rows.sort(key=lambda r: (-r[0].priority, r[0].annotation_id))
        cost, kept = 0.0, []
        for row in rows:
            item_cost = budget.cost_per_label_ms
            if row[4] and xray:
                item_cost += budget.xray_surcharge_ms
            if cost + item_cost > budget.budget_ms:
                shed += 1
                continue
            cost += item_cost
            kept.append(row)
        rows = kept
    layout_input = [
        (a.annotation_id, px, py, a.width_px, a.height_px, a.priority)
        for a, px, py, _depth, _occluded in rows]
    placed = (reference_declutter(layout_input, screen)
              if compositor.declutter else reference_naive(layout_input))
    placed_by_id = {p.annotation_id: p for p in placed}
    items = [OverlayItem(a.annotation_id, a.kind,
                         placed_by_id[a.annotation_id], depth, occluded,
                         occluded and xray, a.payload)
             for a, _px, _py, depth, occluded in rows]
    return items, culled_offscreen, culled_occluded, shed, placed, screen


# -- what is compared ------------------------------------------------------


def _f(x):
    return struct.pack("<d", x)


def _rect(rect):
    """Fields by their bytes, and the ``repr`` and hash a caller sees."""
    return (_f(rect.x), _f(rect.y), _f(rect.width), _f(rect.height),
            repr(rect), hash(rect))


def _label(label):
    return (label.annotation_id, _rect(label.rect), _f(label.anchor_x),
            _f(label.anchor_y), _f(label.priority), label.dropped)


def _fields(items, culled_offscreen, culled_occluded, shed, placed, screen):
    return ([(i.annotation_id, i.kind, _label(i.label), _f(i.depth_m),
              i.occluded, i.xray, id(i.payload)) for i in items],
            culled_offscreen, culled_occluded, shed,
            [_label(p) for p in placed], _rect(screen),
            sum(1 for i in items if not i.label.dropped))


# -- the draws -------------------------------------------------------------

unit = st.floats(min_value=-1.0, max_value=1.0)
coordinate = st.floats(min_value=-4.0, max_value=4.0)
#: a scene's coordinates: all finite, some of them signed zeros, or
#: some of them NaN or infinite too (one such row anywhere sends a flat
#: scene down the walk's matmul, so each kind gets scenes of its own)
ODDITIES = {
    "finite": [None],
    "zeros": [None] * 3 + [-0.0, 0.0],
    "non-finite": [None] * 6 + [-0.0, 0.0, math.nan, math.inf, -math.inf],
}
quaternion = st.tuples(unit, unit, unit, unit).filter(
    lambda q: sum(c * c for c in q) > 0.05)


def _rotation(q):
    w, x, y, z = np.asarray(q) / math.sqrt(sum(c * c for c in q))
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


@st.composite
def positions(draw, oddity):
    point = np.array([draw(coordinate) for _ in range(3)])
    for axis in range(3):
        odd = draw(oddity)
        if odd is not None:
            point[axis] = odd
    return point


#: how the root's transform is left: as built, reassigned (to a fresh
#: identity, to one with ``-0.0`` off the diagonal, to an int identity,
#: to a rotation) or mutated in place (rotated, shifted, shifted back)
ROOT_EDITS = ["built", "fresh-eye", "negative-zeros", "int-eye",
              "rotated", "mutated-rotation", "shifted", "shifted-back"]


def _edit_root(root, edit, q):
    if edit == "fresh-eye":
        root.rotation = np.eye(3)
    elif edit == "negative-zeros":
        root.rotation = np.where(np.eye(3) == 1.0, 1.0, -0.0)
        root.translation = np.array([-0.0, 0.0, -0.0])
    elif edit == "int-eye":
        root.rotation = np.eye(3, dtype=int)
    elif edit == "rotated":
        root.rotation = _rotation(q)
    elif edit == "mutated-rotation":
        root.rotation[...] = _rotation(q)
    elif edit == "shifted":
        root.translation[1] += 0.75
    elif edit == "shifted-back":
        root.translation[1] += 0.75
        root.translation[1] -= 0.75


@st.composite
def scenes(draw):
    scene = SceneGraph()
    nodes = [scene.root]
    if draw(st.booleans()):  # nested
        for n in range(draw(st.integers(min_value=1, max_value=3))):
            node = SceneNode(
                name=f"n{n}", rotation=_rotation(draw(quaternion)),
                translation=np.array([draw(unit) * 2 for _ in range(3)]))
            scene.add_node(node, draw(st.sampled_from(nodes)))
            nodes.append(node)
    _edit_root(scene.root, draw(st.sampled_from(ROOT_EDITS)),
               draw(quaternion))
    oddity = st.sampled_from(ODDITIES[draw(st.sampled_from(sorted(
        ODDITIES)))])
    pool = draw(st.lists(positions(oddity), min_size=1, max_size=6))
    for i in range(draw(st.integers(min_value=0, max_value=20))):
        scene.add(Annotation(
            annotation_id=f"a{draw(st.integers(0, 99)):02d}-{i}",
            anchor=draw(st.sampled_from(pool)).copy(),
            kind=draw(st.sampled_from(["label", "gauge"])),
            priority=draw(st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan])),
            width_px=draw(st.sampled_from([20.0, 45.5, 80.0])),
            height_px=draw(st.sampled_from([12.0, 24.0])),
            payload={"i": i}), draw(st.sampled_from(nodes)))
    return scene


@st.composite
def poses(draw):
    """A camera 6-20 m from the origin looking near it, rolled."""
    aim = np.array([draw(unit), draw(unit),
                    draw(st.floats(min_value=6.0, max_value=20.0))])
    return Pose(_rotation(draw(quaternion)), aim)


#: boxes big enough to hide a good share of the anchors, so x-ray
#: labels cost their surcharge under a budget that binds
occluders = st.lists(st.tuples(st.tuples(coordinate, coordinate, coordinate),
                               st.floats(min_value=0.5, max_value=5.0)),
                     max_size=3)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(scene=scenes(), pose=poses(), boxes=occluders,
       policy=st.sampled_from(["hide", "xray", "ignore"]),
       declutter=st.booleans(),
       budget_ms=st.none() | st.sampled_from([0.6, 1.0, 1.5, 3.0]))
def test_frames_equal_the_reference(scene, pose, boxes, policy, declutter,
                                    budget_ms):
    annotations, anchors = scene.world_anchors()
    ref_annotations, ref_anchors = reference_world_anchors(scene)
    assert len(annotations) == len(ref_annotations)
    assert all(a is b for a, b in zip(annotations, ref_annotations))
    assert anchors.shape == ref_anchors.shape
    assert anchors.dtype == ref_anchors.dtype
    assert anchors.tobytes() == ref_anchors.tobytes()

    compositor = Compositor(
        INTRINSICS,
        occlusion=OcclusionWorld([
            BoxOccluder(f"box{k}", corner, tuple(c + size for c in corner))
            for k, (corner, size) in enumerate(boxes)]),
        occlusion_policy=policy, declutter=declutter,
        budget=None if budget_ms is None else FrameBudget(budget_ms=budget_ms))
    frame = compositor.compose(scene, pose)
    got = _fields(frame.items, frame.culled_offscreen, frame.culled_occluded,
                  frame.shed_by_budget, frame.placed, frame.screen)
    assert got[-1] == frame.drawn
    assert got == _fields(*reference_compose(compositor, scene, pose))
