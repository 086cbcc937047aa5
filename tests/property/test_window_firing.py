"""A window fires one batch: the batched path's fired rows are the
per-item reference's.

A batched window emits what one watermark fires as one ``RecordBatch``
of columns ahead of the watermark — whether the watermark arrived inside
a punctuated batch, loose (the watermark generator's end-of-stream
``Watermark(inf)``), or is the window's own end-of-stream ``flush`` —
and the operators behind it (a plain ``map``, a vectorized ``map``, a
``filter``) run their columnar kernels over it.  The per-item run emits
the same rows as Elements.  Whatever the values (floats with NaN, ±inf,
-0.0, ints), batch sizes, checkpoint cadence or parallelism, the sink
must hold the same rows — values, timestamps, keys, in order — and
every checkpoint must be the same field by field.  A sum that overflows
raises in both modes.

Keys are ints or strings only: equal keys that print differently
(``1`` and ``1.0``) are ordered by ``repr`` and are a known defect of
their own.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.streaming import (
    Element,
    JobBuilder,
    TumblingWindows,
    Watermark,
    WindowAggregateOperator,
)
from repro.streaming.batch import RecordBatch
from repro.streaming.windows import Window
from repro.util.errors import ConfigError
from tests.property.test_window_fold import (
    _assert_same_checkpoint,
    _canon,
    _run,
)

AGGREGATES = ("count", "sum", "mean", "max")


def _job(elements, aggregate, watermarks, splits):
    builder = JobBuilder("firing")
    stream = builder.source("s", elements, splits=splits)
    if watermarks is not None:
        # punctuated batches fire windows mid-stream; the generator's
        # end-of-stream Watermark(inf) reaches the window loose
        stream = stream.with_watermarks(3.0, emit_every=watermarks)
    # without a generator only the window's own flush fires
    (stream.window(TumblingWindows(10.0), aggregate, name="win")
           .map(lambda result: result.value, name="value")
           .map(lambda values: np.asarray(values, dtype=np.float64) * 0.5,
                vectorized=True, name="double")
           .filter(lambda v: not v > 10.0, name="cap")
           .sink("out"))
    return builder.build()


HOSTILE = (float("inf"), float("-inf"), float("nan"), -0.0, 0.0, 1e308,
           -1e308)
keys = st.one_of(st.integers(min_value=-3, max_value=3),
                 st.sampled_from(("a", "b", "bed-1:hr")))
float_rows = st.lists(
    st.tuples(keys, st.one_of(st.sampled_from(HOSTILE),
                              st.floats(min_value=-20.0, max_value=20.0)),
              st.floats(min_value=0.0, max_value=9.0)),
    min_size=1, max_size=100)
int_rows = st.lists(
    st.tuples(keys, st.integers(min_value=-2 ** 62, max_value=2 ** 62),
              st.floats(min_value=0.0, max_value=9.0)),
    min_size=1, max_size=100)

#: two 1e308 in one window: the sum overflows when the window fires
OVERFLOW = [("a", 1e308, 0.0), ("a", 1e308, 0.0), ("b", 1.0, 0.0)]


class TestBatchedFiringEqualsPerItem:
    @given(st.one_of(float_rows, int_rows), st.sampled_from(AGGREGATES),
           st.sampled_from((None, 1, 5, 32)), st.booleans(),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=6), st.sampled_from((1, 2)))
    @example(OVERFLOW, "sum", 1, True, 4, 2, 1)
    @example(OVERFLOW, "mean", None, True, 4, 2, 2)
    @settings(max_examples=100, deadline=None)
    def test_sinks_and_checkpoints(self, rows, aggregate, watermarks,
                                   ordered, source_batch, interval, p):
        elements = [Element(value=v, key=k,
                            timestamp=i * 0.7 + (0.0 if ordered else j))
                    for i, (k, v, j) in enumerate(rows)]
        runs = {batch_mode: _run(_job(elements, aggregate, watermarks, 2),
                                 batch_mode, source_batch, interval, p)
                for batch_mode in (False, True)}
        (ref, ref_ckpts), (got, ckpts) = runs[False], runs[True]
        if ref_ckpts is None or ckpts is None:
            assert got == ref  # the same exception type, in both modes
            return
        out, want = got.sinks["out"], ref.sinks["out"]
        assert _canon(out.elements) == _canon(want.elements)
        assert len(ckpts) == len(ref_ckpts)
        for i, (ckpt, expected) in enumerate(zip(ckpts, ref_ckpts)):
            _assert_same_checkpoint(ckpt, expected, i)

    def test_an_overflowing_sum_raises_in_both_modes(self):
        elements = [Element(value=v, key=k, timestamp=i * 0.7)
                    for i, (k, v, _) in enumerate(OVERFLOW)]
        for batch_mode in (False, True):
            outcome, _ = _run(_job(elements, "sum", 1, 1), batch_mode, 4, 2)
            assert outcome is OverflowError, batch_mode

    def test_every_batched_firing_is_one_batch_ahead_of_its_watermark(self):
        win = WindowAggregateOperator("w", TumblingWindows(10.0), "sum")
        rows = RecordBatch.from_columns([1.0, 2.0, 15.0, 3.0],
                                        [1.0, 2.0, 3.0, 4.0],
                                        ["b", "a", "b", "b"])
        # a punctuated batch: the watermark after row 3 fires [0, 10)
        out = win.process_batch([rows.with_punctuation(
            np.array([4]), np.array([10.0]))])
        assert [type(item) for item in out] == [RecordBatch, Watermark]
        assert [(e.key, e.timestamp, e.value.value, e.value.count)
                for e in out[0].to_elements()] == [("a", 10.0, 2.0, 1),
                                                   ("b", 10.0, 5.0, 2)]
        assert out[1] == Watermark(10.0)
        win.process_batch([RecordBatch.from_columns([25.0], [5.0], ["a"])])
        # loose watermarks: one fires nothing, the next fires [10, 20)
        out = win.process_batch([Watermark(12.0), Watermark(20.0)])
        assert [type(item) for item in out] == [Watermark, RecordBatch,
                                                Watermark]
        assert [e.value.window for e in out[1].to_elements()] == [
            Window(10.0, 20.0)]
        # the end of the stream: what is left, as one batch
        (rest,) = win.flush()
        assert [(e.key, e.value.value) for e in rest.to_elements()] == [
            ("a", 5.0)]
        assert win.flush() == []
        assert win.fired == win.emitted + 1  # flush's row is not counted

    def test_the_executor_decodes_a_flushed_batch_for_per_item_channels(self):
        elements = [Element(value=0.25 * (i % 4), key=i % 3,
                            timestamp=i * 0.7) for i in range(60)]
        runs = [_run(_job(elements, "sum", None, 1), batch_mode, 16, 3)[0]
                for batch_mode in (False, True)]
        ref, got = (run.sinks["out"].elements for run in runs)
        assert got == ref and len(ref) == 14  # 4 windows x 3 keys, then 2


# -- Window is a tuple record ------------------------------------------------

ends = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                 st.sampled_from((-0.0, 0.0, float("nan"), float("inf"),
                                  float("-inf"))))


def _window_or_none(start, end):
    try:
        return Window(start, end)
    except ConfigError:
        return None


class TestWindowRecord:
    @given(ends, ends, ends, ends)
    @settings(max_examples=200, deadline=None)
    def test_hash_equality_and_order_are_the_tuples(self, a, b, c, d):
        w, v = _window_or_none(a, b), _window_or_none(c, d)
        if w is None or v is None:
            return
        tw, tv = (a, b), (c, d)
        assert (w.start, w.end) == tw
        assert hash(w) == hash(tw)
        assert (w == v) == (tw == tv)
        assert (w != v) == (tw != tv)
        assert (w < v) == (tw < tv)
        assert (w <= v) == (tw <= tv)
        assert (w > v) == (tw > tv)
        assert (w == w) and hash(w) == hash(Window(a, b))

    @pytest.mark.parametrize("start, end", [
        (0.0, 10.0), (-0.0, 5.0), (float("-inf"), 0.0), (1.0, float("inf")),
        (float("nan"), 1.0), (0, 10)])
    def test_pickle_round_trip(self, start, end):
        window = Window(start, end)
        back = pickle.loads(pickle.dumps(window))
        assert type(back) is Window
        assert repr(back) == repr(window)
        if start == start:  # a NaN start is equal to itself only
            assert back == window and hash(back) == hash(window)

    @pytest.mark.parametrize("start, end", [
        (10.0, 10.0), (10.0, 0.0), (0.0, -0.0), (float("inf"), float("inf")),
        (1e308, 1e308 + 1.0)])
    def test_an_empty_window_is_refused(self, start, end):
        with pytest.raises(ConfigError, match="empty window"):
            Window(start, end)

    def test_repr_contains_and_fields(self):
        window = Window(0.0, 10.0)
        assert repr(window) == "Window(start=0.0, end=10.0)"
        assert window.contains(0.0) and window.contains(9.99)
        assert not window.contains(10.0) and not window.contains(-0.1)
        assert tuple(window) == (0.0, 10.0)
        assert sorted([Window(5.0, 6.0), Window(0.0, 10.0),
                       Window(0.0, 5.0)]) == [(0.0, 5.0), (0.0, 10.0),
                                              (5.0, 6.0)]
