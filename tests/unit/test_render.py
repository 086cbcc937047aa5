"""Unit tests: scene graph, occlusion, layout, compositor."""

import math

import numpy as np
import pytest

from repro.render import (
    Annotation,
    BoxOccluder,
    Compositor,
    FrameBudget,
    OcclusionWorld,
    SceneGraph,
    SceneNode,
    clutter_metrics,
    declutter_layout,
    naive_layout,
)
from repro.render.layout import (
    _CANDIDATE_OFFSETS,
    LayoutMetrics,
    PlacedLabel,
)
from repro.util.errors import RenderError
from repro.util.geometry import Rect
from repro.util.rng import make_rng
from repro.vision import CameraIntrinsics, look_at

INTR = CameraIntrinsics(fx=400, fy=400, cx=160, cy=120, width=320,
                        height=240)
SCREEN = Rect(0, 0, 320, 240)


def _annotation(aid, x, y, z, priority=1.0, **kw):
    return Annotation(annotation_id=aid, anchor=np.array([x, y, z]),
                      text=aid, priority=priority, **kw)


class TestSceneGraph:
    def test_add_get_remove(self):
        scene = SceneGraph()
        scene.add(_annotation("a", 0, 0, 0))
        assert scene.get("a").text == "a"
        scene.remove("a")
        assert len(scene) == 0

    def test_duplicate_id_rejected(self):
        scene = SceneGraph()
        scene.add(_annotation("a", 0, 0, 0))
        with pytest.raises(RenderError):
            scene.add(_annotation("a", 1, 1, 1))

    def test_unknown_id_rejected(self):
        with pytest.raises(RenderError):
            SceneGraph().get("nope")

    @pytest.mark.parametrize("extent", [math.nan, math.inf, -math.inf,
                                        0.0, -1.0])
    @pytest.mark.parametrize("field", ["width_px", "height_px"])
    def test_non_finite_or_non_positive_extent_rejected(self, field,
                                                        extent):
        # a NaN extent used to pass the ``<= 0`` test and compose to a
        # dropped label at ``Rect(x=nan, ..., width=nan)``
        with pytest.raises(RenderError):
            _annotation("a", 0, 0, 0, **{field: extent})

    def test_an_anchor_that_is_a_float64_point_is_kept(self):
        position = np.array([1.0, -0.0, 3.0])
        assert _annotation("a", 0, 0, 0).anchor.shape == (3,)
        kept = Annotation(annotation_id="a", anchor=position)
        assert kept.anchor is position
        cast = Annotation(annotation_id="b", anchor=[[1, 2, 3]])
        assert cast.anchor.dtype == np.float64 and cast.anchor.shape == (3,)

    def test_node_transform_applies_to_anchor(self):
        scene = SceneGraph()
        node = SceneNode(name="group", translation=np.array([10.0, 0, 0]))
        node.annotations.append(_annotation("a", 1, 2, 3))
        scene.add_node(node)
        annotations, anchors = scene.world_anchors()
        assert [a.annotation_id for a in annotations] == ["a"]
        assert np.allclose(anchors[0], [11.0, 2.0, 3.0])

    def test_nested_transforms_compose(self):
        scene = SceneGraph()
        parent = SceneNode(name="p", translation=np.array([10.0, 0, 0]))
        child = SceneNode(name="c", translation=np.array([0.0, 5.0, 0]))
        child.annotations.append(_annotation("a", 0, 0, 0))
        parent.children.append(child)
        scene.add_node(parent)
        _annotations, anchors = scene.world_anchors()
        assert np.allclose(anchors, [[10.0, 5.0, 0.0]])


class TestOcclusion:
    def test_box_blocks_segment(self):
        box = BoxOccluder("wall", (0, -1, -1), (1, 1, 1))
        world = OcclusionWorld([box])
        verdict = world.check(np.array([-2.0, 0, 0]), np.array([3.0, 0, 0]))
        assert not verdict.visible
        assert verdict.occluder == "wall"

    def test_clear_line_of_sight(self):
        box = BoxOccluder("wall", (0, -1, -1), (1, 1, 1))
        world = OcclusionWorld([box])
        verdict = world.check(np.array([-2.0, 5, 0]), np.array([3.0, 5, 0]))
        assert verdict.visible

    def test_anchor_on_face_not_self_occluded(self):
        box = BoxOccluder("shelf", (0, 0, 0), (1, 1, 1))
        world = OcclusionWorld([box])
        # Anchor on the near face, camera straight in front of it.
        verdict = world.check(np.array([-2.0, 0.5, 0.5]),
                              np.array([0.0, 0.5, 0.5]))
        assert verdict.visible

    def test_anchor_inside_box_occluded(self):
        box = BoxOccluder("shelf", (0, 0, 0), (1, 1, 1))
        world = OcclusionWorld([box])
        verdict = world.check(np.array([-2.0, 0.5, 0.5]),
                              np.array([0.5, 0.5, 0.5]))
        assert not verdict.visible

    def test_empty_extent_rejected(self):
        with pytest.raises(RenderError):
            BoxOccluder("bad", (0, 0, 0), (0, 1, 1))


class TestLayout:
    def _cluster(self, n, spread=5.0):
        return [(f"l{i}", 160.0 + spread * i, 120.0, 60.0, 20.0, float(n - i))
                for i in range(n)]

    def test_naive_overlaps_cluster(self):
        labels = naive_layout(self._cluster(8))
        metrics = clutter_metrics(labels, SCREEN)
        assert metrics.overlapping >= 6
        assert metrics.overlap_ratio > 0.0

    def test_declutter_removes_overlap(self):
        labels = declutter_layout(self._cluster(8), SCREEN)
        metrics = clutter_metrics(labels, SCREEN)
        assert metrics.overlapping == 0

    def test_declutter_beats_naive_on_useful_ratio(self):
        items = self._cluster(12, spread=2.0)
        naive = clutter_metrics(naive_layout(items), SCREEN)
        smart = clutter_metrics(declutter_layout(items, SCREEN), SCREEN)
        assert smart.useful_ratio > naive.useful_ratio

    def test_priority_wins_anchor_position(self):
        labels = declutter_layout(self._cluster(3, spread=1.0), SCREEN)
        top = next(l for l in labels if l.annotation_id == "l0")
        assert top.leader_length == 0.0  # highest priority keeps anchor

    def test_offscreen_anchor_dropped_when_no_candidate_fits(self):
        items = [("off", -500.0, -500.0, 60.0, 20.0, 1.0)]
        labels = declutter_layout(items, SCREEN)
        assert labels[0].dropped

    def test_empty_layout_metrics(self):
        metrics = clutter_metrics([], SCREEN)
        assert metrics.useful_ratio == 1.0
        assert metrics.total == 0


def _reference_rect(x, y, w, h):
    return Rect(x - w / 2.0, y - h / 2.0, w, h)


def _reference_inside(rect, screen):
    return (rect.x >= screen.x and rect.y >= screen.y
            and rect.x2 <= screen.x2 and rect.y2 <= screen.y2)


def _reference_declutter(items, screen):
    """The layout written with one ``Rect`` per candidate and
    ``Rect.intersects``: what ``declutter_layout`` must equal."""
    ordered = sorted(items, key=lambda row: (-row[5], row[0]))
    placed, occupied = [], []
    for aid, ax, ay, w, h, priority in ordered:
        chosen = None
        for ox, oy in _CANDIDATE_OFFSETS:
            rect = _reference_rect(ax + ox * w, ay + oy * h, w, h)
            if (_reference_inside(rect, screen)
                    and not any(rect.intersects(o) for o in occupied)):
                chosen = rect
                break
        if chosen is None:
            placed.append(PlacedLabel(aid, _reference_rect(ax, ay, w, h),
                                      ax, ay, priority, dropped=True))
            continue
        occupied.append(chosen)
        placed.append(PlacedLabel(aid, chosen, ax, ay, priority))
    return placed


def _reference_intersection(a, b):
    """The overlap of two rects, or None when they share no area."""
    x1, y1 = max(a.x, b.x), max(a.y, b.y)
    x2, y2 = min(a.x2, b.x2), min(a.y2, b.y2)
    if x2 <= x1 or y2 <= y1:
        return None
    return Rect(x1, y1, x2 - x1, y2 - y1)


def _reference_metrics(labels, screen):
    """``clutter_metrics`` written with rectangle intersections."""
    active = [label for label in labels if not label.dropped]
    overlap_area = 0.0
    overlapping_ids = set()
    for i, a in enumerate(active):
        for b in active[i + 1:]:
            inter = _reference_intersection(a.rect, b.rect)
            if inter is not None:
                overlap_area += inter.area
                overlapping_ids.update((a.annotation_id, b.annotation_id))
    leaders = [label.leader_length for label in active]
    return LayoutMetrics(
        total=len(labels), placed=len(active),
        dropped=len(labels) - len(active),
        overlapping=len(overlapping_ids),
        overlap_ratio=overlap_area / screen.area if screen.area > 0 else 0.0,
        mean_leader_px=(sum(leaders) / len(leaders)) if leaders else 0.0,
        offscreen=sum(1 for label in active
                      if not _reference_inside(label.rect, screen)))


def _label_sets():
    """Seeded label sets: random crowds whose anchors spill past the
    screen, a grid whose labels touch edge to edge, and a pile on one
    anchor that no candidate offset can spread out."""
    for seed in range(12):
        rng = make_rng(seed)
        yield [(f"r{i}", float(rng.uniform(-80, 400)),
                float(rng.uniform(-60, 300)),
                float(rng.choice([40.0, 60.0, 90.5])),
                float(rng.choice([16.0, 20.0, 33.3])),
                float(rng.integers(4)))
               for i in range(int(rng.integers(1, 30)))]
    yield [(f"g{i}", 30.0 + 60.0 * (i % 5), 10.0 + 20.0 * (i // 5),
            60.0, 20.0, 1.0) for i in range(25)]
    yield [(f"p{i}", 160.0, 120.0, 60.0, 20.0, float(i % 3))
           for i in range(20)]


class TestLayoutMatchesRectReference:
    def test_declutter_and_metrics_equal_the_reference(self):
        for items in _label_sets():
            got = declutter_layout(items, SCREEN)
            assert got == _reference_declutter(items, SCREEN)
            assert clutter_metrics(got, SCREEN) \
                == _reference_metrics(got, SCREEN)

    def test_metrics_of_overlapping_and_offscreen_labels(self):
        for items in _label_sets():
            naive = naive_layout(items)
            assert clutter_metrics(naive, SCREEN) \
                == _reference_metrics(naive, SCREEN)
        touching = naive_layout([("a", 30.0, 10.0, 60.0, 20.0, 1.0),
                                 ("b", 90.0, 10.0, 60.0, 20.0, 1.0)])
        assert clutter_metrics(touching, SCREEN).overlapping == 0


class TestCompositor:
    def _scene(self, n=5, z=5.0):
        scene = SceneGraph()
        for i in range(n):
            scene.add(_annotation(f"a{i}", (i - n // 2) * 0.5, 0.0, z,
                                  priority=float(i)))
        return scene

    def _pose(self):
        return look_at(eye=[0.0, 0.0, 0.0], target=[0.0, 0.0, 5.0])

    def test_composes_visible_annotations(self):
        compositor = Compositor(INTR)
        frame = compositor.compose(self._scene(), self._pose())
        assert frame.drawn >= 3
        assert frame.culled_offscreen == 0

    def test_behind_camera_culled(self):
        scene = self._scene(n=3, z=-5.0)
        compositor = Compositor(INTR)
        frame = compositor.compose(scene, self._pose())
        assert frame.items == []
        assert frame.culled_offscreen == 3

    def test_hide_policy_drops_occluded(self):
        scene = self._scene(n=1, z=5.0)
        wall = OcclusionWorld([BoxOccluder("wall", (-2, -2, 2), (2, 2, 3))])
        compositor = Compositor(INTR, occlusion=wall,
                                occlusion_policy="hide")
        frame = compositor.compose(scene, self._pose())
        assert frame.culled_occluded == 1
        assert frame.items == []

    def test_xray_policy_keeps_occluded_with_style(self):
        scene = self._scene(n=1, z=5.0)
        wall = OcclusionWorld([BoxOccluder("wall", (-2, -2, 2), (2, 2, 3))])
        compositor = Compositor(INTR, occlusion=wall,
                                occlusion_policy="xray")
        frame = compositor.compose(scene, self._pose())
        assert len(frame.items) == 1
        assert frame.items[0].xray
        assert frame.items[0].occluded

    def test_ignore_policy_skips_occlusion_test(self):
        scene = self._scene(n=1, z=5.0)
        wall = OcclusionWorld([BoxOccluder("wall", (-2, -2, 2), (2, 2, 3))])
        compositor = Compositor(INTR, occlusion=wall,
                                occlusion_policy="ignore")
        frame = compositor.compose(scene, self._pose())
        assert not frame.items[0].occluded

    def test_budget_sheds_lowest_priority(self):
        scene = self._scene(n=10)
        budget = FrameBudget(budget_ms=1.0)  # 0.25 ms a label
        compositor = Compositor(INTR, budget=budget)
        frame = compositor.compose(scene, self._pose())
        # a0 and a9 project offscreen; of the 8 visible, 4 fit in 1 ms.
        assert frame.culled_offscreen == 2
        assert frame.shed_by_budget == 4
        kept = {i.annotation_id for i in frame.items}
        assert kept == {"a8", "a7", "a6", "a5"}  # highest priorities

    @pytest.mark.parametrize("fields", [
        {"budget_ms": math.nan}, {"budget_ms": 0.0}, {"budget_ms": -1.0}])
    def test_budget_refuses_nan_and_out_of_range_costs(self, fields):
        # a NaN budget passed ``<= 0`` and turned shedding off
        with pytest.raises(RenderError):
            FrameBudget(**fields)

    def test_depth_recorded(self):
        compositor = Compositor(INTR)
        frame = compositor.compose(self._scene(n=1), self._pose())
        assert frame.items[0].depth_m == pytest.approx(5.0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(RenderError):
            Compositor(INTR, occlusion_policy="fancy")
