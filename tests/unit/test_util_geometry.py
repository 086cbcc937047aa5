"""Unit tests: Rect and clamp."""

import math
import pickle

import pytest

from repro.util.geometry import Rect, clamp


class TestClamp:
    def test_inside(self):
        assert clamp(5, 0, 10) == 5

    def test_below(self):
        assert clamp(-1, 0, 10) == 0

    def test_above(self):
        assert clamp(11, 0, 10) == 10

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            clamp(1, 5, 0)


class TestRect:
    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, -1, 5)

    @pytest.mark.parametrize("extent", [(math.nan, 5), (5, math.nan)])
    def test_nan_extent_rejected(self, extent):
        with pytest.raises(ValueError):
            Rect(0, 0, *extent)

    def test_a_rect_is_the_tuple_of_its_fields(self):
        rect = Rect(x=1.0, y=2.0, width=3.0, height=4.0)
        assert rect == (1.0, 2.0, 3.0, 4.0)
        assert hash(rect) == hash((1.0, 2.0, 3.0, 4.0))
        assert repr(rect) == "Rect(x=1.0, y=2.0, width=3.0, height=4.0)"
        with pytest.raises(AttributeError):
            rect.x = 0.0
        assert pickle.loads(pickle.dumps(rect)) == rect

    def test_corners_and_area(self):
        rect = Rect(1, 2, 3, 4)
        assert rect.x2 == 4
        assert rect.y2 == 6
        assert rect.area == 12
        assert rect.center == (2.5, 4.0)

    def test_contains_boundary_inclusive(self):
        rect = Rect(0, 0, 10, 10)
        assert rect.contains(0, 0)
        assert rect.contains(10, 10)
        assert not rect.contains(10.01, 5)

    def test_intersects(self):
        a = Rect(0, 0, 10, 10)
        assert a.intersects(Rect(5, 5, 10, 10))
        assert not a.intersects(Rect(10, 0, 5, 5))  # touching edge: no

    def test_intersection_area(self):
        inter = Rect(0, 0, 10, 10).intersection(Rect(5, 5, 10, 10))
        assert inter == Rect(5, 5, 5, 5)

    def test_intersection_disjoint_is_none(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(5, 5, 1, 1)) is None

    def test_union_bounds(self):
        union = Rect(0, 0, 1, 1).union_bounds(Rect(5, 5, 1, 1))
        assert union == Rect(0, 0, 6, 6)

    def test_iou_identical(self):
        rect = Rect(0, 0, 4, 4)
        assert rect.iou(rect) == pytest.approx(1.0)

    def test_iou_disjoint(self):
        assert Rect(0, 0, 1, 1).iou(Rect(2, 2, 1, 1)) == 0.0

    def test_iou_half_overlap(self):
        # 2x2 rects overlapping in a 1x2 strip: inter 2, union 6.
        a = Rect(0, 0, 2, 2)
        b = Rect(1, 0, 2, 2)
        assert a.iou(b) == pytest.approx(2 / 6)

    def test_translated(self):
        assert Rect(0, 0, 1, 1).translated(2, 3) == Rect(2, 3, 1, 1)
