"""A long-lived compositor returns what a fresh one returns.

``Compositor`` memoises each anchor's projection per (pose, intrinsics,
world anchor) and measures the layout only when ``frame.layout`` is
read.  Over random scenes — nested nodes with rotations, NaN/inf
anchors, anchors moved between frames, non-axis-aligned poses repeated
across frames and mutated in place, reassigned intrinsics, occluders
under all three policies, budget on and off — every frame of one warm
compositor equals, bit for bit on every field, the frame a fresh
``Compositor`` composes from the same inputs, and ``frame.layout`` is
``clutter_metrics(frame.placed, frame.screen)``.
"""

import math
import struct

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
    SceneGraph,
    SceneNode,
    clutter_metrics,
)
from repro.vision import CameraIntrinsics, Pose

INTRINSICS = [
    CameraIntrinsics(fx=400, fy=400, cx=160, cy=120, width=320, height=240),
    CameraIntrinsics(fx=310.5, fy=290.25, cx=150.0, cy=131.0, width=300,
                     height=260),
]

unit = st.floats(min_value=-1.0, max_value=1.0)
coordinate = st.floats(min_value=-4.0, max_value=4.0)
#: most anchors are finite; some carry one NaN or infinite coordinate
oddity = st.sampled_from([None] * 7 + [math.nan, math.inf, -math.inf])
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
def poses(draw):
    """A camera 12-30 m from the origin looking near it, rolled and
    never axis-aligned in general."""
    r = _rotation(draw(quaternion))
    distance = draw(st.floats(min_value=12.0, max_value=30.0))
    aim = np.array([draw(unit), draw(unit), distance])
    return Pose(r, aim)  # x_cam = R x_world + aim: the origin at +z


@st.composite
def scenes(draw):
    scene = SceneGraph()
    nodes = [scene.root]
    for n in range(draw(st.integers(min_value=0, max_value=3))):
        node = SceneNode(
            name=f"n{n}", rotation=_rotation(draw(quaternion)),
            translation=np.array([draw(unit) * 2, draw(unit) * 2,
                                  draw(unit) * 2]))
        scene.add_node(node, draw(st.sampled_from(nodes)))
        nodes.append(node)
    for i in range(draw(st.integers(min_value=0, max_value=20))):
        anchor = np.array([draw(coordinate) for _ in range(3)])
        odd = draw(oddity)
        if odd is not None:
            anchor[draw(st.integers(min_value=0, max_value=2))] = odd
        scene.add(Annotation(
            annotation_id=f"a{i:02d}",
            anchor=anchor,
            priority=draw(st.sampled_from([0.5, 1.0, 2.0, 3.5])),
            width_px=draw(st.sampled_from([20.0, 45.5, 70.0])),
            height_px=draw(st.sampled_from([12.0, 20.0])),
            payload={"i": i}), draw(st.sampled_from(nodes)))
    return scene


occluders = st.lists(
    st.tuples(st.tuples(coordinate, coordinate, coordinate),
              st.floats(min_value=0.5, max_value=3.0)).filter(
        lambda box: all(math.isfinite(c) for c in box[0])),
    max_size=2)

#: per frame: (pose index, in-place pose mutation — a new rotation or a
#: shifted translation — or None, intrinsics index, annotation to move
#: or None)
frames = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.none() | quaternion | unit,
              st.integers(min_value=0, max_value=1),
              st.none() | st.integers(min_value=0, max_value=20)),
    min_size=1, max_size=8)


def _f(x):
    return struct.pack("<d", x)


def _label(label):
    r = label.rect
    return (label.annotation_id, _f(r.x), _f(r.y), _f(r.width),
            _f(r.height), _f(label.anchor_x), _f(label.anchor_y),
            _f(label.priority), label.dropped)


def _bits(frame):
    """Every field of the frame, floats as their bytes (NaN and -0.0
    compare exactly)."""
    m = frame.layout
    return ([(i.annotation_id, i.kind, _label(i.label), _f(i.depth_m),
              i.occluded, i.xray, id(i.payload)) for i in frame.items],
            frame.culled_offscreen, frame.culled_occluded,
            frame.shed_by_budget, [_label(p) for p in frame.placed],
            frame.screen,
            (m.total, m.placed, m.dropped, m.overlapping,
             _f(m.overlap_ratio), _f(m.mean_leader_px), m.offscreen))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(scene=scenes(), pose_pool=st.lists(poses(), min_size=3, max_size=3),
       boxes=occluders,
       policy=st.sampled_from(["hide", "xray", "ignore"]),
       declutter=st.booleans(),
       budget_ms=st.none() | st.sampled_from([0.6, 1.5, 3.0]),
       script=frames)
def test_warm_compositor_equals_a_fresh_one(scene, pose_pool, boxes, policy,
                                            declutter, budget_ms, script):
    occlusion = OcclusionWorld([
        BoxOccluder(f"box{k}", corner, tuple(c + size for c in corner))
        for k, (corner, size) in enumerate(boxes)])
    budget = None if budget_ms is None else FrameBudget(budget_ms=budget_ms)
    warm = Compositor(INTRINSICS[0], occlusion=occlusion,
                      occlusion_policy=policy, declutter=declutter,
                      budget=budget)
    annotations = sorted(scene.world_anchors()[0],
                         key=lambda a: a.annotation_id)
    for pose_index, mutation, intrinsics_index, moved in script:
        pose = pose_pool[pose_index]
        if isinstance(mutation, tuple):
            pose.rotation[...] = _rotation(mutation)
        elif mutation is not None:
            pose.translation[0] += mutation
        warm.intrinsics = INTRINSICS[intrinsics_index]
        if moved is not None and moved < len(annotations):
            annotations[moved].anchor = annotations[moved].anchor + 0.5
        fresh = Compositor(warm.intrinsics, occlusion=occlusion,
                           occlusion_policy=policy, declutter=declutter,
                           budget=budget)
        frame = warm.compose(scene, pose)
        assert _bits(frame) == _bits(fresh.compose(scene, pose))
        assert frame.layout == clutter_metrics(frame.placed, frame.screen)
