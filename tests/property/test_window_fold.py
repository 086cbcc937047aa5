"""The window kernel the executor runs: parked columns, one fold.

A batched tumbling window of a built-in aggregate (count, sum, mean)
parks the columns of each pulled batch and folds every parked row into
its ``(key, window)`` accumulator once, when something reads the state
(a loose element, a snapshot, a firing scan, the end of the stream).
Whatever the batch
splits, checkpoint cadence or values, the result must be the per-item
reference's: the same sink output, the same checkpoints compared field
by field, and accumulators holding Python floats only.

The executor deep-copies every operator into its clones, so the tests
go through ``ParallelExecutor`` — the built-in aggregators must survive
that copy, or the bulk kernel silently falls back to one ``add`` per
row.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import (
    CheckpointCoordinator,
    CheckpointStore,
    Element,
    JobBuilder,
    ParallelExecutor,
    TumblingWindows,
)
from repro.streaming import window_operator
from repro.streaming.batch import RecordBatch
from repro.streaming.window_operator import WindowResult, aggregators

BUILTIN = ("count", "sum", "mean")


def _job(elements, aggregate, *, splits=None, ints=False):
    builder = JobBuilder("fold")
    stream = builder.source("s", elements, splits=splits)
    stream = stream.with_watermarks(3.0)
    if ints:
        # an int64 value column: the window must add floats, as the
        # per-item path's float(v) does
        stream = stream.map(lambda v: np.asarray(v).astype(np.int64),
                            vectorized=True, name="ints")
    (stream.window(TumblingWindows(10.0), aggregate, name="win")
           .sink("out"))
    return builder.build()


def _canon(x):
    """``x`` with NaN and -0.0 made comparable by ``==`` (both sides
    compute the same operations, so only their identity differs)."""
    if isinstance(x, float):
        if x != x:
            return "nan"
        if x == 0.0 and math.copysign(1.0, x) < 0:
            return "-0.0"
        return x
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(_canon(v) for v in x)
    if isinstance(x, RecordBatch):
        return ("batch", _canon(x.to_elements()))
    if isinstance(x, Element):
        return ("element", _canon(x.value), x.timestamp, x.key)
    if isinstance(x, WindowResult):
        return ("result", x.key, x.window, _canon(x.value), x.count)
    if dataclasses.is_dataclass(x):
        return {f.name: _canon(getattr(x, f.name))
                for f in dataclasses.fields(x)}
    return x


def _assert_same_checkpoint(ckpt, ref, context):
    """Field-for-field equality (NaN-aware), routing table included:
    a checkpoint names channels by logical operator, so a fused plan's
    table is the per-item plan's."""
    assert _canon(ckpt) == _canon(ref), context


def _partials(ckpt):
    """Every number an accumulator of the checkpoint holds."""
    for blobs in ckpt.keyed_state.values():
        for blob in blobs.values():
            for per_key in blob.values():
                for acc, _count in per_key.values():
                    if isinstance(acc, int):
                        yield acc  # count
                    elif acc and isinstance(acc[0], list):
                        yield from acc[0]  # mean: [partials, n]
                    else:
                        yield from acc  # sum: partials


def _stream(n=600):
    return [Element(value=float((i * 7) % 13) - 6.0 + 0.25,
                    timestamp=i * 0.37, key=i % 11) for i in range(n)]


class TestTheKernelRunsInTheExecutor:
    @pytest.mark.parametrize("p", (1, 2))
    @pytest.mark.parametrize("aggregate", BUILTIN)
    def test_builtins_never_add_per_row(self, monkeypatch, aggregate, p):
        elements = _stream()
        reference = ParallelExecutor(_job(elements, aggregate, splits=2), p,
                                     batch_mode=False)
        reference.run(source_batch=64)
        calls = []
        for name in BUILTIN:
            agg = aggregators[name]

            def counting(acc, v, _add=agg.add, _name=name):
                calls.append(_name)
                return _add(acc, v)
            monkeypatch.setattr(agg, "add", counting)

        def sum_add(acc, v, _add=window_operator._sum_add):
            calls.append("_sum_add")
            return _add(acc, v)
        monkeypatch.setattr(window_operator, "_sum_add", sum_add)
        batched = ParallelExecutor(_job(elements, aggregate, splits=2), p,
                                   batch_mode=True)
        batched.run(source_batch=64)
        assert calls == []
        assert batched.sinks["out"].elements == reference.sinks["out"].elements
        _assert_same_checkpoint(batched.checkpoint(), reference.checkpoint(),
                                (aggregate, p))

    @pytest.mark.parametrize("aggregate", ("sum", "mean"))
    def test_int_columns_accumulate_floats(self, aggregate):
        elements = _stream(300)
        runs = {}
        for batch_mode in (False, True):
            executor = ParallelExecutor(
                _job(elements, aggregate, ints=True), batch_mode=batch_mode)
            executor.run(source_batch=100, max_cycles=2)  # windows open
            runs[batch_mode] = executor.checkpoint()
        partials = list(_partials(runs[True]))
        assert partials
        assert {type(x) for x in partials} == {float}
        _assert_same_checkpoint(runs[True], runs[False], aggregate)

    def test_a_restore_drops_parked_rows(self):
        elements = _stream()
        straight = ParallelExecutor(_job(elements, "mean"), batch_mode=False)
        straight.run(source_batch=64)
        executor = ParallelExecutor(_job(elements, "mean"))
        executor.run(source_batch=64, max_cycles=2)
        checkpoint = executor.checkpoint()
        # a few rows: no window ripens, so nothing reads the state
        executor.run(source_batch=4, max_cycles=1)
        (window,) = executor.subtask_operators("win")
        assert window._parked  # rows accepted since, not yet folded
        executor.restore(checkpoint)
        assert not window._parked
        executor.run(source_batch=64)
        assert executor.sinks["out"].elements == straight.sinks["out"].elements


# -- hostile values -------------------------------------------------------

HOSTILE = (float("inf"), float("-inf"), float("nan"), -0.0, 0.0, 1e308,
           -1e308, 5e-324)
hostile_value = st.one_of(st.sampled_from(HOSTILE),
                          st.floats(min_value=-50.0, max_value=50.0))
hostile_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5),      # key
              hostile_value,
              st.floats(min_value=0.0, max_value=9.0)),   # ts jitter
    min_size=1, max_size=120)
int_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5),
              st.integers(min_value=-2 ** 62, max_value=2 ** 62),
              st.floats(min_value=0.0, max_value=9.0)),
    min_size=1, max_size=120)


def _run(job, batch_mode, source_batch, interval, p=1):
    """Barrier checkpoints every ``interval`` cycles; returns the
    executor and every finalized checkpoint, or the exception the run
    raised (fsum raises on inf + -inf and on overflow, in both modes)."""
    executor = ParallelExecutor(job, p, batch_mode=batch_mode)
    store = CheckpointStore(keep=10_000)
    coordinator = CheckpointCoordinator(executor, store=store,
                                        interval_cycles=interval)
    try:
        while not executor.done:
            executor.run(source_batch=source_batch, max_cycles=1)
        coordinator.savepoint()
    except (OverflowError, ValueError) as exc:
        return type(exc), None
    return executor, [store.snapshot(cid) for cid in store.retained_ids()]


def _elements(rows, ordered):
    return [Element(value=v, key=k,
                    timestamp=i * 0.7 + (0.0 if ordered else jitter))
            for i, (k, v, jitter) in enumerate(rows)]


class TestHostileValues:
    @given(st.one_of(hostile_rows.map(lambda r: (r, False)),
                     int_rows.map(lambda r: (r, True))),
           st.sampled_from(BUILTIN), st.booleans(),
           st.integers(min_value=1, max_value=48),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_per_item(self, data, aggregate, ordered,
                                     source_batch, interval):
        rows, ints = data
        elements = _elements(
            [(k, float(v), j) for k, v, j in rows], ordered)
        runs = {batch_mode: _run(_job(elements, aggregate, ints=ints),
                                 batch_mode, source_batch, interval)
                for batch_mode in (False, True)}
        (ref, ref_ckpts), (got, ckpts) = runs[False], runs[True]
        if ref_ckpts is None or ckpts is None:
            assert got == ref  # the same exception type, in both modes
            return
        assert (_canon(got.sinks["out"].elements)
                == _canon(ref.sinks["out"].elements))
        assert len(ckpts) == len(ref_ckpts)
        for i, (ckpt, want) in enumerate(zip(ckpts, ref_ckpts)):
            _assert_same_checkpoint(ckpt, want, i)
            assert {type(x) for x in _partials(ckpt)} <= {float, int}
            if aggregate != "count":
                assert {type(x) for x in _partials(ckpt)} <= {float}

    @given(hostile_rows, st.sampled_from(BUILTIN),
           st.integers(min_value=1, max_value=32),
           st.integers(min_value=1, max_value=6), st.sampled_from((1, 2)))
    @settings(max_examples=30, deadline=None)
    def test_restore_while_parked(self, rows, aggregate, source_batch, at, p):
        elements = _elements(rows, True)
        straight = ParallelExecutor(_job(elements, aggregate, splits=2), p,
                                    batch_mode=False)
        try:
            straight.run(source_batch=source_batch)
        except (OverflowError, ValueError):
            return  # the reference cannot finish either
        executor = ParallelExecutor(_job(elements, aggregate, splits=2), p)
        executor.run(source_batch=source_batch, max_cycles=at)
        checkpoint = executor.checkpoint()
        executor.run(source_batch=source_batch, max_cycles=1)
        executor.restore(checkpoint)
        executor.run(source_batch=source_batch)
        assert (_canon(executor.sinks["out"].elements)
                == _canon(straight.sinks["out"].elements))
