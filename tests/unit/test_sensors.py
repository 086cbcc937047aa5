"""Unit tests: quadtree, POIs."""

import pytest

from repro.sensors import Poi, PoiDatabase, QuadTree, SpatialPoint
from repro.util.errors import SensorError, SpatialIndexError
from repro.util.geometry import Rect
from repro.util.rng import make_rng


class TestQuadTree:
    def _tree(self, n=200, seed=0):
        rng = make_rng(seed)
        tree = QuadTree(Rect(0, 0, 100, 100))
        points = [SpatialPoint(float(x), float(y), payload=i)
                  for i, (x, y) in enumerate(rng.uniform(0, 100,
                                                         size=(n, 2)))]
        for p in points:
            tree.insert(p)
        return tree, points

    def test_len(self):
        tree, points = self._tree()
        assert len(tree) == len(points)

    def test_out_of_bounds_rejected(self):
        tree = QuadTree(Rect(0, 0, 10, 10))
        with pytest.raises(SpatialIndexError):
            tree.insert(SpatialPoint(11.0, 5.0))

    def test_rect_query_matches_bruteforce(self):
        tree, points = self._tree()
        rect = Rect(20, 30, 25, 15)
        expected = {p.payload for p in points if rect.contains(p.x, p.y)}
        got = {p.payload for p in tree.query_rect(rect)}
        assert got == expected

    def test_radius_query_matches_bruteforce(self):
        tree, points = self._tree()
        cx, cy, r = 50.0, 50.0, 18.0
        expected = {p.payload for p in points
                    if (p.x - cx) ** 2 + (p.y - cy) ** 2 <= r * r}
        got = {p.payload for p in tree.query_radius(cx, cy, r)}
        assert got == expected


class TestPoiDatabase:
    def _db(self):
        db = PoiDatabase(Rect(0, 0, 1000, 1000))
        db.add(Poi("p1", "Cafe A", "cafe", 100, 100, popularity=5))
        db.add(Poi("p2", "Cafe B", "cafe", 120, 100, popularity=9))
        db.add(Poi("p3", "Museum", "museum", 500, 500, popularity=7))
        return db

    def test_duplicate_id_rejected(self):
        db = self._db()
        with pytest.raises(SensorError):
            db.add(Poi("p1", "dup", "cafe", 1, 1))

    def test_within_radius(self):
        db = self._db()
        hits = db.within(100, 100, 50)
        assert [p.poi_id for p in hits] == ["p1", "p2"]

    def test_within_sorted_by_distance(self):
        db = self._db()
        hits = db.within(119, 100, 500)
        assert hits[0].poi_id == "p2"

    def test_most_popular(self):
        db = self._db()
        assert [p.poi_id for p in db.most_popular(k=2)] == ["p2", "p3"]

    def test_categories(self):
        assert self._db().categories() == ["cafe", "museum"]
