"""Property test: the analytical store against a brute-force per-row model.

Epochs are appended in any shape the commit stream can produce — empty
epochs, keys first seen mid-stream, timestamp ranges that overlap and
run backwards from one epoch to the next (so zone maps overlap), NaN
metrics — and every query method (``group_by`` with and without
``by=``, ``tumbling``, ``count``, ``filter``) is compared with a loop
over the installed rows, for all five aggregates, key sets holding
unknown keys, and time bounds that are ``None`` or lie outside the
data.  Answers must be equal exactly: dict keys, their order and every
value (NaN where the model has NaN).

The model's arithmetic is the store's: keyed aggregates accumulate in
row order and propagate NaN through min/max as numpy does; the ``by=``
path uses Python's ``sum``/``min``/``max`` over the group's values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import AnalyticalStore
from repro.streaming.element import Element

AGGS = ("sum", "mean", "count", "min", "max")
KEYS = [f"k{i}" for i in range(6)]

metrics = st.one_of(st.integers(-40, 40).map(float), st.just(math.nan))
rows = st.lists(st.tuples(st.sampled_from(KEYS), st.integers(0, 40),
                          metrics, st.sampled_from("ab")), max_size=10)
#: each epoch sits at its own base, so epochs overlap and run backwards
epochs = st.lists(st.tuples(st.integers(-60, 60), rows), max_size=8)
bounds = st.one_of(st.none(), st.integers(-120, 120).map(lambda q: q / 4))
key_sets = st.one_of(st.none(), st.lists(
    st.sampled_from(KEYS + ["unknown", "k-never"]), max_size=4))
queries = st.lists(st.tuples(
    st.sampled_from(("group_by", "by", "tumbling", "count", "filter")),
    st.sampled_from(AGGS), key_sets, bounds, bounds,
    st.sampled_from((0.5, 1.5, 4.0, 1000.0))), min_size=1, max_size=12)


def _keyed(agg, vals):
    """What the bincount/ufunc.at kernels compute, one row at a time."""
    if agg == "count":
        return float(len(vals))
    total = 0.0
    for v in vals:
        total += v
    if agg == "sum":
        return total
    if agg == "mean":
        return total / len(vals)
    if any(math.isnan(v) for v in vals):
        return math.nan
    return min(vals) if agg == "min" else max(vals)


def _by(agg, vals):
    if agg == "count":
        return float(len(vals))
    if agg == "mean":
        return float(sum(vals) / len(vals))
    return float({"sum": sum, "min": min, "max": max}[agg](vals))


class Model:
    def __init__(self):
        self.rows = []      # (key, ts, metric, raw) in install order
        self.order = {}     # key -> rank of its first installed row

    def append(self, elements):
        for e in elements:
            self.order.setdefault(e.key, len(self.order))
            self.rows.append((e.key, e.timestamp, e.value["m"], e.value))

    def select(self, keys, start, end):
        return [r for r in self.rows
                if (keys is None or r[0] in set(keys))
                and (start is None or r[1] >= start)
                and (end is None or r[1] < end)]

    def grouped(self, groups, agg, reduce):
        out = {}
        for group, metric in groups:
            out.setdefault(group, []).append(metric)
        return {g: reduce(agg, vals) for g, vals in out.items()}

    def group_by(self, agg, keys, start, end):
        sel = sorted(self.select(keys, start, end),
                     key=lambda r: self.order[r[0]])
        return self.grouped(((r[0], r[2]) for r in sel), agg, _keyed)

    def by(self, agg, keys, start, end):
        return self.grouped(((r[3]["tag"], r[2])
                             for r in self.select(keys, start, end)),
                            agg, _by)

    def tumbling(self, window_s, agg, keys, start, end):
        cells = [((r[0], int(r[1] // window_s)), r[2])
                 for r in self.select(keys, start, end)]
        cells.sort(key=lambda c: (self.order[c[0][0]], c[0][1]))
        return self.grouped((((k, w * window_s), m)
                             for (k, w), m in cells), agg, _keyed)


def _same(got, want):
    """Equal items in equal order, NaN equal to NaN."""
    return list(got) == list(want) and all(
        g == w or (math.isnan(g) and math.isnan(w))
        for g, w in zip(got.values(), want.values()))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@given(epochs, queries)
@settings(max_examples=150, deadline=None)
def test_every_query_equals_the_per_row_model(epoch_rows, query_list):
    store = AnalyticalStore(metric_fn=lambda v: v["m"])
    model = Model()
    for epoch, (base, spec) in enumerate(epoch_rows, start=1):
        elements = [Element({"m": m, "tag": tag}, (base + dt) / 4, key)
                    for key, dt, m, tag in spec]
        assert store.append_epoch(epoch, elements) == len(elements)
        model.append(elements)
    assert store.rows == len(model.rows)
    assert store.stats()["segments"] == len(epoch_rows)
    for method, agg, keys, start, end, window_s in query_list:
        if method == "group_by":
            got = store.group_by(agg, keys=keys, start=start, end=end)
            assert _same(got, model.group_by(agg, keys, start, end))
        elif method == "by":
            got = store.group_by(agg, keys=keys, start=start, end=end,
                                 by=lambda v: v["tag"])
            assert _same(got, model.by(agg, keys, start, end))
        elif method == "tumbling":
            got = store.tumbling(window_s, agg, keys=keys, start=start,
                                 end=end)
            assert _same(got, model.tumbling(window_s, agg, keys, start,
                                             end))
        elif method == "count":
            assert store.count(keys=keys, start=start, end=end) \
                == len(model.select(keys, start, end))
        else:
            out = store.filter(keys=keys, start=start, end=end)
            sel = model.select(keys, start, end)
            assert out["ts"].tolist() == [r[1] for r in sel]
            assert out["metric"].tobytes() \
                == np.asarray([r[2] for r in sel], dtype=np.float64).tobytes()
            assert [out["key_dict"][c] for c in out["codes"].tolist()] \
                == [r[0] for r in sel]
            assert len(out["raw"]) == len(sel)
            assert all(a is r[3] for a, r in zip(out["raw"], sel))
