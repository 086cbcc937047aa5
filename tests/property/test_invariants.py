"""Property-based tests (hypothesis) on core data structures and
invariants."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analytics import CountMinSketch, HyperLogLog, RunningStats
from repro.eventlog import LogCluster, Producer, TopicConfig
from repro.privacy import discretize_trace
from repro.sensors import QuadTree, SpatialPoint
from repro.streaming import (
    Element,
    TumblingWindows,
    Watermark,
    WindowAggregateOperator,
)
from repro.util.geometry import Rect
from repro.vision import apply_homography, estimate_homography

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
small_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestKeyedPartitioningProperty:
    @given(st.lists(st.text(min_size=1, max_size=8), min_size=1,
                    max_size=40))
    @settings(max_examples=30)
    def test_same_key_same_partition(self, keys):
        cluster = LogCluster(3)
        cluster.create_topic(TopicConfig("t", partitions=5, replication=1))
        producer = Producer(cluster)
        placements = {}
        for key in keys:
            partition, _offset = producer.send("t", 0, key=key)
            if key in placements:
                assert placements[key] == partition
            placements[key] = partition


class TestWindowProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4,
                              allow_nan=False), min_size=1, max_size=80),
           st.floats(min_value=0.5, max_value=100.0))
    # start + size rounds onto ts: Window(9899.99.., 9999.99..) before
    # the one-step correction
    @example(timestamps=[9999.999999999998], size=99.99999999999999)
    def test_tumbling_assignment_contains_timestamp(self, timestamps, size):
        assigner = TumblingWindows(size)
        starts = assigner.assign_starts(np.asarray(timestamps))
        for ts, start in zip(timestamps, starts):
            windows = assigner.assign(ts)
            assert len(windows) == 1
            assert windows[0].contains(ts)
            assert windows[0].start == start  # columnar stays bit-identical

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                              st.floats(min_value=0.0, max_value=100.0,
                                        allow_nan=False)),
                    min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_window_counts_conserve_elements(self, rows):
        op = WindowAggregateOperator("w", TumblingWindows(10.0), "count")
        for key, ts in rows:
            op.process(Element(value=1, timestamp=ts, key=key))
        fired = [e for batch in op.flush() for e in batch.to_elements()]
        total = sum(item.value.value for item in fired)
        assert total == len(rows)


class TestSketchProperties:
    @given(st.lists(st.text(min_size=1, max_size=6), min_size=1,
                    max_size=200))
    @settings(max_examples=30)
    def test_cms_never_underestimates(self, items):
        cms = CountMinSketch(epsilon=0.01)
        truth = {}
        for item in items:
            cms.add(item)
            truth[item] = truth.get(item, 0) + 1
        for item, count in truth.items():
            assert cms.estimate(item) >= count

    @given(st.sets(st.text(min_size=1, max_size=10), min_size=1,
                   max_size=500))
    @settings(max_examples=20)
    def test_hll_monotone_in_set_size(self, items):
        hll = HyperLogLog()
        previous = 0.0
        for i, item in enumerate(sorted(items)):
            hll.add(item)
            if i % 50 == 0:
                estimate = hll.estimate()
                assert estimate >= previous - 1e-6
                previous = estimate

    @given(st.lists(small_floats, min_size=1, max_size=300))
    def test_running_stats_matches_numpy(self, values):
        stats = RunningStats()
        for v in values:
            stats.add(v)
        assert math.isclose(stats.mean, float(np.mean(values)),
                            rel_tol=1e-9, abs_tol=1e-6)
        assert stats.variance >= -1e-9

    @given(st.lists(small_floats, min_size=1, max_size=100),
           st.lists(small_floats, min_size=1, max_size=100))
    def test_running_stats_merge_associative(self, a_vals, b_vals):
        merged = RunningStats()
        for v in a_vals + b_vals:
            merged.add(v)
        a = RunningStats()
        b = RunningStats()
        for v in a_vals:
            a.add(v)
        for v in b_vals:
            b.add(v)
        a.merge(b)
        assert math.isclose(a.mean, merged.mean, rel_tol=1e-9,
                            abs_tol=1e-6)
        assert math.isclose(a.variance, merged.variance, rel_tol=1e-6,
                            abs_tol=1e-5)


class TestGeoProperties:
    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                              st.floats(min_value=0, max_value=100)),
                    min_size=1, max_size=100),
           st.tuples(st.floats(min_value=0, max_value=100),
                     st.floats(min_value=0, max_value=100),
                     st.floats(min_value=1, max_value=60)))
    @settings(max_examples=40)
    def test_quadtree_radius_query_equals_bruteforce(self, points, query):
        tree = QuadTree(Rect(0, 0, 100, 100))
        sps = [SpatialPoint(x, y, payload=i)
               for i, (x, y) in enumerate(points)]
        for sp in sps:
            tree.insert(sp)
        qx, qy, radius = query
        expected = {sp.payload for sp in sps
                    if sp.distance_sq(qx, qy) <= radius * radius}
        got = {sp.payload for sp in tree.query_radius(qx, qy, radius)}
        assert got == expected


class TestHomographyProperty:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25)
    def test_estimate_inverts_apply(self, seed):
        rng = np.random.default_rng(seed)
        h = np.eye(3) + rng.normal(0, 0.05, size=(3, 3))
        h[2, 2] = 1.0
        src = rng.uniform(0, 100, size=(12, 2))
        dst = apply_homography(h, src)
        if not np.isfinite(dst).all():
            return  # degenerate draw
        try:
            h_est = estimate_homography(src, dst)
        except Exception:
            return  # degenerate configuration is allowed to fail loudly
        back = apply_homography(h_est, src)
        assert np.allclose(back, dst, atol=1e-4)


class TestDiscretizeProperty:
    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e4),
                              st.floats(min_value=0, max_value=1e4),
                              st.floats(min_value=0, max_value=1e5)),
                    min_size=1, max_size=50),
           st.floats(min_value=1.0, max_value=500.0),
           st.floats(min_value=1.0, max_value=5000.0))
    @settings(max_examples=40)
    def test_coarser_grid_never_more_points(self, rows, cell, bucket):
        xs = np.array([r[0] for r in rows])
        ys = np.array([r[1] for r in rows])
        ts = np.array([r[2] for r in rows])
        fine = discretize_trace(xs, ys, ts, cell, bucket)
        coarse = discretize_trace(xs, ys, ts, cell * 4, bucket * 4)
        assert len(coarse) <= len(fine)
