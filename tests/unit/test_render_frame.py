"""What one composed frame may depend on.

- An anchor's pixel and depth are a function of the pose, the
  intrinsics and that anchor alone: composing it among other anchors
  gives the same floats, to the last bit, as composing it alone.
- The six frames of the A1 ablation scene (declutter x occlusion
  policy, ``benchmarks/bench_a1_render_ablation.py``) are pinned: drawn,
  culled and shed counts, every item's id, rectangle and x-ray flag,
  and the layout metrics.
- ``OverlayItem`` and ``PlacedLabel`` are immutable records with
  attribute access and positional or keyword construction.
"""

import hashlib

import numpy as np
import pytest

from repro.render import (
    Annotation,
    BoxOccluder,
    Compositor,
    OcclusionWorld,
    OverlayItem,
    PlacedLabel,
    SceneGraph,
    clutter_metrics,
)
from repro.render import compositor as compositor_module
from repro.util.geometry import Rect
from repro.util.rng import make_rng
from repro.vision import CameraIntrinsics, look_at

WIDE = CameraIntrinsics(fx=800.0, fy=800.0, cx=640.0, cy=360.0,
                        width=1280, height=720)


def _scene(anchors):
    scene = SceneGraph()
    for i, anchor in enumerate(anchors):
        scene.add(Annotation(annotation_id=f"a{i:02d}", anchor=anchor,
                             width_px=10.0, height_px=10.0))
    return scene


def _projected(frame):
    """annotation id -> (anchor_x, anchor_y, depth_m) of every item."""
    return {item.annotation_id: (item.label.anchor_x, item.label.anchor_y,
                                 item.depth_m) for item in frame.items}


class TestAnAnchorsPixelIgnoresItsNeighbours:
    def test_alone_equals_in_a_crowd(self):
        rng = make_rng(33)
        compared = differing = 0
        for _trial in range(120):
            eye = rng.uniform(-20.0, 20.0, size=3)
            target = eye + rng.normal(size=3) * 10.0
            pose = look_at(eye, target)
            # 21 anchors spread in front of the camera
            ahead = target - eye
            anchors = [eye + ahead * rng.uniform(0.3, 3.0)
                       + rng.normal(size=3) * 2.0 for _ in range(21)]
            crowd = _projected(Compositor(WIDE, declutter=False).compose(
                _scene(anchors), pose))
            for i, anchor in enumerate(anchors):
                alone = _projected(Compositor(WIDE, declutter=False).compose(
                    _scene([anchor]), pose))
                key = f"a{i:02d}"
                if key not in crowd:
                    assert alone == {}
                    continue
                compared += 1
                differing += alone["a00"] != crowd[key]
        assert compared > 1000
        assert differing == 0


class TestProjectionMemo:
    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(compositor_module, "_PROJECTION_MEMO_MAX", 4)
        scene = _scene([[0.1, 0.2, 5.0], [-0.3, 0.1, 6.0], [0.2, -0.2, 7.0]])
        warm = Compositor(WIDE)
        for step in range(6):
            pose = look_at([0.1 * step, 0.0, 0.0], [0.0, 0.3, 10.0])
            assert warm.compose(scene, pose) == Compositor(WIDE).compose(
                scene, pose)
            assert sum(map(len, warm._projections.values())) <= 4


# -- A1: the six frames of the 60-label ablation scene ------------------------

A1_INTR = CameraIntrinsics(fx=400, fy=400, cx=160, cy=120, width=320,
                           height=240)


def _a1_scene():
    """``bench_a1_render_ablation._scene(make_rng(71))``, rebuilt here."""
    rng = make_rng(71)
    scene = SceneGraph()
    for i in range(60):
        scene.add(Annotation(
            annotation_id=f"a{i:02d}",
            anchor=np.array([float(rng.uniform(-2.5, 2.5)),
                             float(rng.uniform(-1.5, 1.5)),
                             float(rng.uniform(4.0, 14.0))]),
            text=f"a{i}", priority=float(rng.uniform(0.5, 5.0)),
            width_px=70.0, height_px=20.0))
    return scene


def _items_digest(frame):
    """sha256 over every item's id, rectangle (exact float reprs), x-ray
    flag and drop flag, in item order."""
    h = hashlib.sha256()
    for item in frame.items:
        r = item.label.rect
        h.update(repr((item.annotation_id, r.x, r.y, r.width, r.height,
                       item.xray, item.label.dropped)).encode())
    return h.hexdigest()


def _a1_frames():
    scene = _a1_scene()
    wall = OcclusionWorld([BoxOccluder("wall", (-3.0, -2.0, 8.0),
                                       (3.0, 2.0, 9.0))])
    pose = look_at(eye=[0.0, 0.0, 0.0], target=[0.0, 0.0, 10.0])
    for declutter in (False, True):
        for policy in ("ignore", "hide", "xray"):
            yield (declutter, policy), Compositor(
                A1_INTR, occlusion=wall, occlusion_policy=policy,
                declutter=declutter).compose(scene, pose)


def _a1_record(frame):
    m = frame.layout
    return ((frame.drawn, frame.culled_offscreen, frame.culled_occluded,
             frame.shed_by_budget),
            (m.total, m.placed, m.dropped, m.overlapping, m.overlap_ratio,
             m.mean_leader_px, m.offscreen),
            _items_digest(frame))


#: (declutter, policy) -> ((drawn, culled offscreen, culled occluded,
#: shed), (total, placed, dropped, overlapping, overlap ratio, mean
#: leader px, offscreen), items digest), recorded before the projection
#: memo, lazy layout metrics and record-type items landed
A1_FRAMES = {
    (False, "ignore"): (
        (58, 2, 0, 0), (58, 58, 0, 57, 1.1333876037738362, 0.0, 3),
        "01bf4812b4f4e89d0d416c03773b887cb4b591c7ee87e53ede65ec5562cf68fe"),
    (False, "hide"): (
        (18, 2, 40, 0), (18, 18, 0, 13, 0.04893246405104069, 0.0, 3),
        "798cf58bd61190d419025b781998e55240073da8acd13c9118c7abb4fab62a98"),
    (False, "xray"): (
        (58, 2, 0, 0), (58, 58, 0, 57, 1.1333876037738362, 0.0, 3),
        "a023a33d241b7fd463c14a76ed5c2ed9961490a3910169cc0eee9112e5d76b60"),
    (True, "ignore"): (
        (22, 2, 0, 0), (58, 22, 36, 0, 0.0, 48.65469530356434, 0),
        "376c357d31fbf7f695e22396fa27448c44305fd69539ecc812913e5f87f1355d"),
    (True, "hide"): (
        (15, 2, 40, 0), (18, 15, 3, 0, 0.0, 52.10681318570735, 0),
        "d8b3dabb735e015f9945a4445002d2fb7660f307b1ec2858af44dcd0268390e9"),
    (True, "xray"): (
        (22, 2, 0, 0), (58, 22, 36, 0, 0.0, 48.65469530356434, 0),
        "bca4fcdf66c2a00630f90f2f02996c67fd67ae750631d9bff21e6df28e2a8183"),
}


class TestA1FramesArePinned:
    def test_six_frames(self):
        got = {config: _a1_record(frame) for config, frame in _a1_frames()}
        assert got == A1_FRAMES

    def test_layout_measures_the_placed_labels(self):
        for _config, frame in _a1_frames():
            assert frame.layout == clutter_metrics(frame.placed, frame.screen)
            assert frame.layout is frame.layout  # measured once
            assert sorted(frame.placed) == sorted(i.label for i in frame.items)


# -- the record types ---------------------------------------------------------

class TestRecordTypes:
    def _label(self):
        return PlacedLabel("a", Rect(10.0, 20.0, 6.0, 8.0), 10.0, 20.0, 2.0)

    def test_placed_label(self):
        label = self._label()
        assert label == PlacedLabel(annotation_id="a",
                                    rect=Rect(10.0, 20.0, 6.0, 8.0),
                                    anchor_x=10.0, anchor_y=20.0,
                                    priority=2.0, dropped=False)
        assert not label.dropped
        assert label.leader_length == 5.0  # centre (13, 24) from (10, 20)
        with pytest.raises(AttributeError):
            label.dropped = True

    def test_overlay_item(self):
        label = self._label()
        item = OverlayItem("a", "gauge", label, 4.5, False, False, {"v": 1})
        assert item == OverlayItem(annotation_id="a", kind="gauge",
                                   label=label, depth_m=4.5, occluded=False,
                                   xray=False, payload={"v": 1})
        assert (item.kind, item.label, item.payload) == ("gauge", label,
                                                          {"v": 1})
        with pytest.raises(AttributeError):
            item.depth_m = 1.0
