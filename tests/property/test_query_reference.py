"""Property test: ``tumbling`` and ``group_by`` answer bit for bit what
the per-cell reference below answers.

The reference is the query layer as it stood before the window index
and the answers became whole-column passes: a row selection that masks
every selected zone's rows, a separate ``isfinite`` filter, the window
index from ``np.floor_divide`` and answers assembled cell by cell in
Python.  Answers must agree in their keys, in the ``repr`` of every
window start and value (so ``-0.0`` and the last bit count) and in
their insertion order.

Stores and queries are drawn so that both ``tumbling`` branches run
(the dense ``code * n_windows + window`` composite and the
``np.unique`` over (key, window) pairs), under bounded, half-bounded
and unbounded ranges, key sets holding unknown keys and all five
aggregates, over NaN, +-inf and -0.0 timestamps and over exact
multiples of the width and their ``nextafter`` neighbours, with widths
from 1e-9 to 1e12.  A finite timestamp whose window index overflows is
an error, where the reference keyed it ``inf``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.store import AnalyticalStore
from repro.store.analytical import _window_index
from repro.streaming.element import Element
from repro.util.errors import StoreError

AGGS = ("sum", "mean", "count", "min", "max")
KEYS = ["a", "b", "c", "d", "e"]
WIDTHS = (1e-9, 2.0 ** -30, 0.1, 1 / 3, 1.0, 60.0, 86_400.0, 1e12)


# -- the reference ------------------------------------------------------------

def _ref_select(store, keys, start, end):
    zones = store.appends
    zlo, zhi = store._zone_lo[:zones], store._zone_hi[:zones]
    zmask = np.ones(zones, dtype=bool)
    if start is not None:
        zmask &= zhi >= start
    if end is not None:
        zmask &= zlo < end
    hit = np.flatnonzero(zmask)
    if not len(hit):
        return np.empty(0, dtype=np.int64)
    lo, last = int(store._zone_at[hit[0]]), int(hit[-1]) + 1
    hi = int(store._zone_at[last]) if last < zones else store.rows
    ts = store._ts[lo:hi]
    mask = np.ones(len(ts), dtype=bool)
    if start is not None:
        mask &= ts >= start
    if end is not None:
        mask &= ts < end
    if keys is not None:
        lut = np.zeros(len(store._key_dict), dtype=bool)
        lut[[store._key_index[k] for k in keys
             if k in store._key_index]] = True
        mask &= lut[store._codes[lo:hi]]
    return lo + np.flatnonzero(mask)


def _ref_reduce(agg, codes, metric):
    counts = np.bincount(codes)
    touched = np.flatnonzero(counts)
    if agg == "count":
        return touched, counts[touched].astype(np.float64)
    if agg in ("sum", "mean"):
        sums = np.bincount(codes, weights=metric)
        if agg == "sum":
            return touched, sums[touched]
        return touched, sums[touched] / counts[touched]
    fill = math.inf if agg == "min" else -math.inf
    extrema = np.full(len(counts), fill, dtype=np.float64)
    op = np.minimum if agg == "min" else np.maximum
    op.at(extrema, codes, metric)
    return touched, extrema[touched]


def ref_group_by(store, agg, keys, start, end):
    idx = _ref_select(store, keys, start, end)
    touched, values = _ref_reduce(agg, store._codes[idx],
                                  store._metric[idx])
    kd = store._key_dict
    return {kd[c]: float(v)
            for c, v in zip(touched.tolist(), values.tolist())}


def ref_tumbling(store, window_s, agg, keys, start, end):
    idx = _ref_select(store, keys, start, end)
    ts = store._ts[idx]
    if not np.isfinite(ts).all():
        idx, ts = idx[np.isfinite(ts)], ts[np.isfinite(ts)]
    if not len(idx):
        return {}
    wf = np.floor_divide(ts, window_s)
    base = float(wf.min())
    n_windows = float(wf.max()) - base + 1
    codes, metric = store._codes[idx], store._metric[idx]
    kd = store._key_dict
    if not len(kd) * n_windows < 2 ** 53:
        cells, inverse = np.unique(np.column_stack((codes, wf)), axis=0,
                                   return_inverse=True)
        touched, values = _ref_reduce(agg, inverse.ravel(), metric)
        return {(kd[int(c)], w * window_s): v for (c, w), v
                in zip(cells[touched].tolist(), values.tolist())}
    n_windows = int(n_windows)
    composite = codes * n_windows + (wf - base).astype(np.int64)
    occupied = None
    if len(kd) * n_windows > 4 * len(idx):
        occupied, composite = np.unique(composite, return_inverse=True)
    touched, values = _ref_reduce(agg, composite, metric)
    if occupied is not None:
        touched = occupied[touched]
    return {(kd[c // n_windows], (c % n_windows + base) * window_s): v
            for c, v in zip(touched.tolist(), values.tolist())}


def _overflows(store, window_s, keys, start, end):
    """Whether a selected finite ts has an infinite window index."""
    ts = store._ts[_ref_select(store, keys, start, end)]
    ts = ts[np.isfinite(ts)]
    return not np.isfinite(ts / window_s).all()


def _canon(answer):
    """Keys, the repr of every window start and value, in order."""
    return [((k[0], repr(k[1])) if isinstance(k, tuple) else k, repr(v))
            for k, v in answer.items()]


# -- the draws ------------------------------------------------------------------

#: window multiples: near zero (a dense composite), or spread up to and
#: past 2**50 (np.floor_divide for the whole query, and past 2**53 / keys
#: the np.unique branch)
small_k = st.integers(-40, 40)
wide_k = st.one_of(st.integers(-40, 40),
                   st.integers(2 ** 50 - 3, 2 ** 50 + 3),
                   st.integers(-2 ** 53, 2 ** 53))


def _stamp(k_strategy):
    multiple = st.tuples(k_strategy, st.sampled_from(WIDTHS),
                         st.sampled_from((-1, 0, 0, 1))).map(_near_multiple)
    special = st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0,
                               1e300, -1e300))
    return st.one_of(multiple, multiple, multiple,
                     st.floats(-1e6, 1e6), special)


def _near_multiple(draw):
    """``k * w``, or its next float up or down."""
    k, width, step = draw
    ts = float(k) * width
    if step:
        ts = float(np.nextafter(ts, math.copysign(math.inf, step)))
    return ts


metrics = st.one_of(st.floats(-1e3, 1e3), st.sampled_from((math.nan,
                                                             -0.0)))


@st.composite
def stores(draw):
    stamp = _stamp(draw(st.sampled_from((small_k, wide_k))))
    row = st.tuples(st.sampled_from(KEYS), stamp, metrics)
    return draw(st.lists(st.lists(row, max_size=12), max_size=5))


@st.composite
def queries(draw):
    bound = st.one_of(st.none(), _stamp(small_k).filter(math.isfinite))
    keys = st.one_of(st.none(), st.lists(
        st.sampled_from(KEYS + ["unknown"]), max_size=4))
    return (draw(st.sampled_from(("tumbling", "tumbling", "group_by"))),
            draw(st.sampled_from(AGGS)), draw(keys), draw(bound),
            draw(bound), draw(st.one_of(st.sampled_from(WIDTHS),
                                        st.floats(1e-9, 1e12))))


# -- the properties ---------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:invalid value encountered")
@given(stores(), st.lists(queries(), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
# a window 10**301 wide of 0.1 s puts this in the np.unique branch, where
# window 3 starts at 3 * 0.1 = 0.30000000000000004
@example([[("a", 3 * 0.1, 1.0), ("a", 1e300, 2.0)]],
         [("tumbling", "sum", None, None, None, 0.1)])
def test_answers_equal_the_per_cell_reference(epochs, query_list):
    store = AnalyticalStore()
    for epoch, rows in enumerate(epochs, start=1):
        store.append_epoch(epoch, [Element(m, ts, k) for k, ts, m in rows])
    for method, agg, keys, start, end, window_s in query_list:
        with np.errstate(all="ignore"):
            if method == "group_by":
                want = ref_group_by(store, agg, keys, start, end)
            elif _overflows(store, window_s, keys, start, end):
                with pytest.raises(StoreError, match="no finite window"):
                    store.tumbling(window_s, agg, keys, start, end)
                continue
            else:
                want = ref_tumbling(store, window_s, agg, keys, start, end)
        if method == "group_by":
            got = store.group_by(agg, keys, start, end)
        else:
            got = store.tumbling(window_s, agg, keys, start, end)
        assert _canon(got) == _canon(want)


index_k = st.one_of(st.integers(-2 ** 20, 2 ** 20),
                    st.integers(2 ** 50 - 8, 2 ** 50 + 8),
                    st.integers(-2 ** 50 - 8, -2 ** 50 + 8),
                    st.integers(2 ** 49, 2 ** 53),
                    st.integers(-2 ** 53, -2 ** 49))


@given(st.lists(st.one_of(st.tuples(index_k, st.sampled_from(WIDTHS),
                                     st.sampled_from((-1, 0, 1)))
                          .map(_near_multiple),
                          st.floats(-1e15, 1e15),
                          st.sampled_from((-0.0, 0.0))),
                min_size=1, max_size=40),
       st.one_of(st.sampled_from(WIDTHS), st.floats(1e-9, 1e12)))
@settings(max_examples=500, deadline=None)
# past 2**50 the rounded quotient 3457554010773200.5 floors to ...200,
# floor_divide (and Python's //) to ...199
@example([1152518003591066.8], 1 / 3)
# 1.0 / 0.1 rounds to the whole 10.0; floor_divide reads 9.0
@example([1.0, -0.0, 0.3], 0.1)
def test_the_window_index_is_floor_divide_bit_for_bit(stamps, window_s):
    ts = np.asarray(stamps, dtype=np.float64)
    with np.errstate(over="ignore"):
        overflows = not np.isfinite(ts / window_s).all()
    if overflows:
        with pytest.raises(StoreError):
            _window_index(ts, window_s)
        return
    finite, index = _window_index(ts, window_s)
    assert ts[finite].tobytes() == ts.tobytes()
    assert index.tobytes() == np.floor_divide(ts, window_s).tobytes()
