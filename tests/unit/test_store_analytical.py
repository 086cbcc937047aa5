"""Columnar analytical store: query layer pinned against brute force.

Every aggregate (sum/mean/count/min/max), plain and windowed, keyed and
callable-regrouped, is compared to a per-row Python model over the same
elements — the numpy bincount paths must be an optimization, never a
semantic.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.store import AnalyticalStore
from repro.streaming.element import Element
from repro.util.errors import StoreError
from repro.util.rng import make_rng

AGGS = ("sum", "mean", "count", "min", "max")


def _scalar(agg, vals):
    if agg == "count":
        return float(len(vals))
    if agg == "sum":
        return float(sum(vals))
    if agg == "mean":
        return float(sum(vals) / len(vals))
    return float(min(vals) if agg == "min" else max(vals))


def _elements(rng, n, keys):
    return [Element(value={"m": float(rng.uniform(-50, 50)),
                           "tag": f"t-{int(rng.integers(3))}"},
                    timestamp=float(rng.uniform(0, 500)),
                    key=f"k-{int(rng.integers(keys))}")
            for _ in range(n)]


def _columns(store):
    """Views of the installed rows' columns, a copy of the raw values and
    the key table."""
    rows = store.rows
    return {"ts": store._ts[:rows], "metric": store._metric[:rows],
            "codes": store._codes[:rows], "raw": store._raw[:rows],
            "key_dict": store._key_dict}


def _snapshot(store):
    """Everything a reader can see: column bytes, raw values, key table
    and stats."""
    cols = _columns(store)
    return ({name: cols[name].tobytes() for name in ("ts", "metric", "codes")},
            list(cols["raw"]), list(cols["key_dict"]), store.stats())


def _store_with(elements, epochs=4):
    store = AnalyticalStore(metric_fn=lambda v: v["m"])
    chunk = max(1, len(elements) // epochs)
    for i in range(0, len(elements), chunk):
        store.append_epoch(i // chunk + 1, elements[i:i + chunk])
    return store


class TestQueries:
    def setup_method(self):
        self.rng = make_rng(5)
        self.elements = _elements(self.rng, 200, keys=7)
        self.store = _store_with(self.elements)

    def test_group_by_matches_model_for_every_agg(self):
        for agg in AGGS:
            expected = {}
            for e in self.elements:
                expected.setdefault(e.key, []).append(e.value["m"])
            expected = {k: _scalar(agg, v) for k, v in expected.items()}
            got = self.store.group_by(agg)
            assert got.keys() == expected.keys()
            for k in expected:
                assert got[k] == pytest.approx(expected[k])

    def test_group_by_with_key_and_time_filters(self):
        keys = {"k-1", "k-3"}
        start, end = 100.0, 400.0
        sel = [e for e in self.elements
               if e.key in keys and start <= e.timestamp < end]
        expected = {}
        for e in sel:
            expected.setdefault(e.key, []).append(e.value["m"])
        got = self.store.group_by("sum", keys=keys, start=start, end=end)
        assert got.keys() == expected.keys()
        for k in expected:
            assert got[k] == pytest.approx(sum(expected[k]))
        assert self.store.count(keys=keys, start=start, end=end) == len(sel)

    def test_group_by_callable_regroups_raw_values(self):
        expected = {}
        for e in self.elements:
            expected.setdefault(e.value["tag"], []).append(e.value["m"])
        got = self.store.group_by("mean", by=lambda v: v["tag"])
        assert got.keys() == expected.keys()
        for tag, vals in expected.items():
            assert got[tag] == pytest.approx(_scalar("mean", vals))

    def test_tumbling_matches_model_for_every_agg(self):
        window = 60.0
        for agg in AGGS:
            expected = {}
            for e in self.elements:
                w = math.floor(e.timestamp / window) * window
                expected.setdefault((e.key, w), []).append(e.value["m"])
            expected = {kw: _scalar(agg, v) for kw, v in expected.items()}
            got = self.store.tumbling(window, agg)
            assert got.keys() == expected.keys()
            for kw in expected:
                assert got[kw] == pytest.approx(expected[kw])

    def test_filter_returns_aligned_columns(self):
        out = self.store.filter(start=200.0)
        sel = [e for e in self.elements if e.timestamp >= 200.0]
        assert len(out["ts"]) == len(out["metric"]) \
            == len(out["codes"]) == len(out["raw"]) == len(sel)
        # raw values line up with the metric column row by row
        for value, m in zip(out["raw"], out["metric"].tolist()):
            assert value["m"] == pytest.approx(m)

    def test_empty_results(self):
        assert self.store.group_by("sum", keys=["nope"]) == {}
        assert self.store.tumbling(60.0, "sum", keys=["nope"]) == {}
        assert self.store.count(start=1e9) == 0
        empty = AnalyticalStore()
        assert empty.group_by("sum") == {}
        assert empty.tumbling(10.0) == {}
        assert empty.count() == 0


class TestEpochProtocol:
    def test_stale_epoch_stages_none_and_installs_zero(self):
        store = AnalyticalStore(metric_fn=lambda v: v["m"])
        els = _elements(make_rng(1), 10, keys=2)
        assert store.append_epoch(3, els) == 10
        assert store.stage_epoch(3, els) is None
        assert store.stage_epoch(2, els) is None
        assert store.append_epoch(3, els) == 0
        assert store.rows == 10
        assert store.last_applied_epoch == 3

    def test_stage_is_side_effect_free_on_rows(self):
        store = AnalyticalStore(metric_fn=lambda v: v["m"])
        els = _elements(make_rng(2), 8, keys=2)
        staged = store.stage_epoch(1, els)
        assert store.rows == 0 and store.appends == 0
        store.install_epoch(staged)
        assert store.rows == 8 and store.last_applied_epoch == 1

    def test_discarded_stage_leaves_no_keys_behind(self):
        # Staging resolves new keys against an extension of the key
        # table that only an install appends: a token that is dropped,
        # or a metric_fn that raises half way, changes nothing.
        store = AnalyticalStore(metric_fn=lambda v: v["m"])
        store.append_epoch(1, _elements(make_rng(3), 6, keys=2))
        before = _snapshot(store)
        key_dict = list(_columns(store)["key_dict"])
        fresh = [Element({"m": 1.0}, 1.0, "brand-new"),
                 Element({"m": 2.0}, 2.0, "k-0"),
                 Element({"m": 3.0}, 3.0, "another")]
        staged = store.stage_epoch(2, fresh)
        assert staged["new_keys"] == ["brand-new", "another"]
        del staged  # discarded
        with pytest.raises(KeyError):
            store.stage_epoch(2, fresh[:2] + [Element({}, 4.0, "third")])
        assert _snapshot(store) == before
        assert store.count(keys=["brand-new"]) == 0
        # ... and the same rows staged again install cleanly
        assert store.append_epoch(2, fresh) == 3
        assert _columns(store)["key_dict"] == key_dict + ["brand-new",
                                                          "another"]
        assert store.group_by("sum", keys=["brand-new", "another"]) \
            == {"brand-new": 1.0, "another": 3.0}

    def test_token_staged_against_another_key_table_is_refused(self):
        store = AnalyticalStore(metric_fn=lambda v: v["m"])
        a = store.stage_epoch(2, [Element({"m": 1.0}, 1.0, "a-key")])
        b = store.stage_epoch(1, [Element({"m": 2.0}, 2.0, "b-key")])
        assert store.install_epoch(b) == 1
        # A's codes were given out before B's key took the first slot
        before = _snapshot(store)
        with pytest.raises(StoreError):
            store.install_epoch(a)
        assert _snapshot(store) == before
        assert store.stats()["rows"] == 1 and store.stats()["keys"] == 1
        assert store.last_applied_epoch == 1
        assert store.append_epoch(
            2, [Element({"m": 1.0}, 1.0, "a-key")]) == 1
        assert store.group_by("sum") == {"b-key": 2.0, "a-key": 1.0}

    def test_older_epoch_staged_first_is_dropped_by_the_epoch_guard(self):
        store = AnalyticalStore(metric_fn=lambda v: v["m"])
        a = store.stage_epoch(1, [Element({"m": 1.0}, 1.0, "a-key")])
        b = store.stage_epoch(2, [Element({"m": 2.0}, 2.0, "b-key")])
        assert store.install_epoch(b) == 1
        assert store.install_epoch(a) == 0
        assert _columns(store)["key_dict"] == ["b-key"]
        assert store.stats()["rows"] == 1

    def test_a_batch_is_taken_column_by_column(self):
        from repro.streaming.batch import RecordBatch
        els = [Element(float(i), float(i), f"k{i % 3}") for i in range(9)]
        batch = RecordBatch.from_elements(els)
        by_batch, by_rows = AnalyticalStore(), AnalyticalStore()
        by_batch.append_epoch(1, batch)
        by_rows.append_epoch(1, els)
        got, want = _columns(by_batch), _columns(by_rows)
        for name in ("ts", "metric", "codes"):
            assert got[name].tobytes() == want[name].tobytes(), name
        assert got["raw"] == want["raw"]
        assert got["key_dict"] == want["key_dict"]
        # staging takes the batch's own timestamp array, not a copy
        assert AnalyticalStore().stage_epoch(1, batch)["ts"] \
            is batch.timestamps

    def test_views_taken_before_an_install_keep_their_bytes(self):
        # an install writes only past the published row count; a full
        # buffer is replaced, never rewritten, so views of the columns
        # stay valid across in-place appends and reallocations alike
        store = AnalyticalStore(metric_fn=lambda v: v["m"])
        rng = make_rng(4)
        held, reallocated = [], 0
        for epoch in range(1, 40):
            store.append_epoch(epoch, _elements(rng, int(rng.integers(9)),
                                                keys=5))
            cols = _columns(store)
            if held and cols["ts"].base is not held[-1][0]["ts"].base:
                reallocated += 1
            held.append((cols, {name: cols[name].tobytes()
                                for name in ("ts", "metric", "codes")},
                         list(cols["raw"])))
        assert reallocated >= 3
        for cols, data, raw in held:
            for name, want in data.items():
                assert cols[name].tobytes() == want, name
            assert cols["raw"] == raw
        assert store.stats()["segments"] == 39 == store.appends

    def test_default_metric_is_nan_for_objects(self):
        store = AnalyticalStore()
        store.append_epoch(1, [
            Element(value={"not": "numeric"}, timestamp=1.0, key="a"),
            Element(value=4.5, timestamp=2.0, key="a"),
        ])
        cols = _columns(store)
        assert math.isnan(cols["metric"][0])
        assert cols["metric"][1] == 4.5


class TestTumblingMemory:
    def test_peak_follows_the_rows_not_keys_times_windows(self):
        # 2 000 keys x 4 000 windows is an 8 M-slot dense space (64 MB
        # per int64/float64 array); the 4 000 rows occupy 4 000 slots
        store = AnalyticalStore()
        store.append_epoch(1, [Element(float(i), float(i), f"k{i % 2000}")
                               for i in range(4000)])
        tracemalloc.start()
        try:
            got = store.tumbling(1.0, "max")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak
        assert got == {(f"k{i % 2000}", float(i)): float(i)
                       for i in range(4000)}


class TestNonFiniteTimestamps:
    """No window holds a NaN or infinite timestamp: ``tumbling`` skips
    such a row with or without bounds, as a query bounded on both sides
    always did, instead of casting it to a window index."""

    ROWS = [(10.0, 1.0, "a"), (70.0, 4.0, "b"), (15.0, 3.0, "a")]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bounds", [{}, {"start": 0.0}, {"end": 100.0},
                                        {"start": 0.0, "end": 100.0}])
    def test_tumbling_skips_the_row(self, bad, bounds):
        finite = AnalyticalStore()
        finite.append_epoch(1, [Element(v, ts, k) for ts, v, k in self.ROWS])
        store = AnalyticalStore()
        store.append_epoch(1, [Element(v, ts, k) for ts, v, k in self.ROWS]
                           + [Element(2.0, bad, "a"), Element(8.0, bad, "c")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for agg in AGGS:
                got = store.tumbling(60.0, agg, **bounds)
                assert got == finite.tumbling(60.0, agg, **bounds)
        assert got == {("a", 0.0): 3.0, ("b", 60.0): 4.0}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_only_non_finite_rows_give_no_windows(self, bad):
        store = AnalyticalStore()
        store.append_epoch(1, [Element(1.0, bad, "a")])
        assert store.tumbling(60.0, "mean") == {}
        assert store.tumbling(60.0, "mean", start=-1e9) == {}
        assert store.tumbling(60.0, "mean", end=1e9) == {}

    def test_group_by_still_counts_them_unbounded(self):
        store = AnalyticalStore()
        store.append_epoch(1, [Element(1.0, 10.0, "a"),
                               Element(2.0, math.nan, "a")])
        assert store.group_by("count") == {"a": 2.0}


def _tumbling_model(rows, window, agg):
    """``(key, floor(ts / window) * window) -> aggregate``, row by row."""
    cells = {}
    for ts, value, key in rows:
        start = float(np.floor_divide(ts, window) * window)
        cells.setdefault((key, start), []).append(value)
    return {cell: _scalar(agg, vals) for cell, vals in cells.items()}


class TestWideWindowSpans:
    """A span of window indices too wide for an exact ``code * n_windows
    + window`` composite in int64 still lands every row in its own
    ``(key, floor(ts / window) * window)`` cell, with no warning."""

    def _tumbling(self, rows, window):
        store = AnalyticalStore()
        store.append_epoch(1, [Element(v, ts, k) for ts, v, k in rows])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for agg in AGGS:
                got = store.tumbling(window, agg)
                assert got == _tumbling_model(rows, window, agg), agg
        return store.tumbling(window, "sum")

    def test_a_millisecond_window_over_a_billion_seconds(self):
        rows = [(ts, value, f"k{i}") for i in range(20)
                for ts, value in ((0.0, 1.0), (1e15, 2.0))]
        got = self._tumbling(rows, 1e-3)
        assert len(got) == 40 and sum(got.values()) == 60.0
        assert {start for _key, start in got} \
            == {0.0, float(np.floor_divide(1e15, 1e-3) * 1e-3)}

    def test_a_minute_window_past_the_int64_range(self):
        got = self._tumbling([(10.0, 1.0, "a"), (1e300, 2.0, "a")], 60.0)
        assert got == {("a", 0.0): 1.0,
                       ("a", float(np.floor_divide(1e300, 60.0) * 60.0)): 2.0}


class TestValidation:
    def test_unknown_aggregate_raises(self):
        store = AnalyticalStore()
        with pytest.raises(StoreError):
            store.group_by("median")
        with pytest.raises(StoreError):
            store.tumbling(10.0, "p99")

    def test_nonpositive_window_raises(self):
        for window in (0.0, -1.0, math.nan):
            with pytest.raises(StoreError):
                AnalyticalStore().tumbling(window)


class TestWindowBoundaries:
    """The window of a finite ts is ``floor(ts / window_s)``; a width or
    an index that is not finite has no window and is refused."""

    ROWS = [(5.0, 1.0, "a"), (-5.0, 2.0, "b"), (1e308, 3.0, "c")]

    def _store(self):
        store = AnalyticalStore()
        store.append_epoch(1, [Element(v, ts, k) for ts, v, k in self.ROWS])
        return store

    def test_an_infinite_width_is_refused(self):
        store = self._store()
        with pytest.raises(StoreError, match="finite"):
            store.tumbling(math.inf, "sum")

    def test_an_overflowing_index_is_refused_naming_ts_and_width(self):
        store = self._store()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StoreError) as err:
                store.tumbling(1e-300, "sum")
            # the rows whose index is finite still answer
            assert store.tumbling(1e-300, "sum", end=1e300) == {
                ("a", 5.0): 1.0, ("b", -5.0): 2.0}
        assert "1e+308" in str(err.value) and "1e-300" in str(err.value)

    def test_an_index_at_a_whole_quotient_is_the_exact_floor(self):
        # 1.0 / 0.1 rounds to 10.0, but 0.1 is a little over a tenth, so
        # the exact quotient is just under 10 and Python's 1.0 // 0.1 is
        # 9.0; 0.3 / 0.1 rounds to 2.9999999999999996, floored to 2.0
        store = AnalyticalStore()
        store.append_epoch(1, [Element(1.0, 0.3, "a"), Element(2.0, 1.0, "a")])
        got = store.tumbling(0.1, "sum")
        assert 1.0 // 0.1 == 9.0 and 0.3 // 0.1 == 2.0
        assert list(got.items()) == [(("a", 2.0 * 0.1), 1.0),
                                     (("a", 9.0 * 0.1), 2.0)]

    def test_past_2_50_windows_the_index_is_pythons_floor_division(self):
        # 1152518003591066.8 / (1/3) rounds to 3457554010773200.5, whose
        # floor is the exact quotient's; Python's // reads one under it
        ts, window = 1152518003591066.8, 1 / 3
        assert ts // window == 3457554010773199.0
        store = AnalyticalStore()
        store.append_epoch(1, [Element(1.0, ts, "a")])
        assert list(store.tumbling(window, "count")) \
            == [("a", (ts // window) * window)]
