"""Property tests: the 2PC sink as columns.

A transactional sink keeps its rows as batches from delivery to the
store: the open transaction is whatever the feeders delivered, each
epoch is sealed into one ``RecordBatch`` in canonical form, and that
batch is what the checkpoint records and what ``StoreSink`` stages.
None of it may show: for per-item and batched (chained) execution at
p = 1, 2, 4 the sink's elements, the sealed batches in
every finalized checkpoint, the store a ``StoreSink`` feeds and a
restore into a fresh executor must be identical to the per-item run —
for float, numpy-scalar and opaque values, with and without keys.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import StoreSink, TieredStore, canonical_contents
from repro.store.analytical import AnalyticalStore
from repro.streaming import (
    CheckpointCoordinator,
    CheckpointStore,
    Element,
    JobBuilder,
    ParallelExecutor,
)
from repro.streaming.batch import RecordBatch, items_weight
from repro.streaming.txn_sink import TransactionalSink

MODES = {
    "per_item": dict(batch_mode=False),
    "chained": dict(batch_mode=True),
}
PARALLELISMS = (1, 2, 4)
N_SPLITS = 4

rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5),              # key
              st.floats(min_value=-50.0, max_value=50.0,          # value
                        allow_nan=False)),
    min_size=1, max_size=60)


def _uncommitted(sink):
    """Rows staged or pre-committed but not yet visible."""
    return (items_weight(sink._staged) + items_weight(sink._staged_next)
            + sum(len(rb) for rb in sink.pending.values()))


def _scale(v):
    return v * 1.5


def _tag(v):
    return {"v": v, "tags": ["seen"]}


def _metric(v):
    return float(v["v"]) if isinstance(v, dict) else float(v)


#: value kind -> the operator that produces it in front of the sink
KINDS = {
    "float": None,                          # float64 column, py_values
    "numpy": dict(fn=_scale, vectorized=True),   # numpy scalars
    "opaque": dict(fn=_tag),                # dicts: the opaque list
}


def _job(elements, kind):
    builder = JobBuilder(f"sink-columns-{kind}")
    stream = builder.source("s", elements, splits=N_SPLITS)
    if KINDS[kind] is not None:
        stream = stream.map(KINDS[kind]["fn"], name="shape",
                            vectorized=KINDS[kind].get("vectorized", False))
    stream.sink("out")
    return builder.build()


def _coordinated(job, p, flags, source_batch, store=None):
    """Run under a barrier every cycle with a StoreSink listening;
    returns the executor, its finalized checkpoints and the store."""
    executor = ParallelExecutor(job, p, **flags)
    checkpoints = CheckpointStore(keep=10_000)
    coordinator = CheckpointCoordinator(executor, store=checkpoints,
                                        interval_cycles=1)
    sink = None
    if store is not None:
        sink = StoreSink(store, sink_name="out").attach(coordinator)
    while not executor.done:
        executor.run(source_batch=source_batch, max_cycles=1)
    coordinator.savepoint()
    return executor, [checkpoints.snapshot(cid)
                      for cid in checkpoints.retained_ids()], sink


def _typed(elements):
    """Elements with the type of every value: a numpy scalar equals the
    Python float it wraps, and the sink must not swap one for the
    other."""
    return [(e, type(e.value)) for e in elements]


def _analytical(store):
    cols = store.analytical.filter()
    return ({name: cols[name].tobytes()
             for name in ("ts", "metric", "codes")},
            cols["raw"], cols["key_dict"], store.stats())


class TestSinkAsColumns:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @given(rows, st.sampled_from((3, 7, 32)))
    @settings(max_examples=8, deadline=None)
    def test_every_mode_commits_the_same_columns(self, kind, rows,
                                                 source_batch):
        elements = [Element(value=v, timestamp=i * 0.5, key=f"k{k}")
                    for i, (k, v) in enumerate(rows)]
        for p in PARALLELISMS:
            runs = {}
            for mode, flags in MODES.items():
                store = TieredStore(metric_fn=_metric)
                runs[mode] = (*_coordinated(_job(elements, kind), p, flags,
                                            source_batch, store), store)
            base, base_ckpts, base_sink, base_store = runs["per_item"]
            want = _typed(base.sinks["out"].elements)
            assert len(want) == len(elements)
            for mode, (run, ckpts, sink, store) in runs.items():
                context = (kind, p, mode)
                assert _typed(run.sinks["out"].elements) == want, context
                assert run.sinks["out"].values \
                    == base.sinks["out"].values, context
                # the sealed batches themselves, column for column
                assert ([c.sink_elements for c in ckpts]
                        == [c.sink_elements for c in base_ckpts]), context
                assert canonical_contents(store) \
                    == canonical_contents(base_store), context
                assert _analytical(store) == _analytical(base_store), \
                    context
                assert sink.last_applied_epoch \
                    == base_sink.last_applied_epoch, context
                # a restore into a fresh executor, at this parallelism
                # or another, has it all
                for p_new in (p, 3):
                    fresh = ParallelExecutor(_job(elements, kind), p_new,
                                             **flags)
                    fresh.restore(ckpts[-1])
                    assert _typed(fresh.sinks["out"].elements) == want, \
                        (context, p_new)

    @given(rows, st.sampled_from((3, 32)))
    @settings(max_examples=8, deadline=None)
    def test_unkeyed_rows(self, rows, source_batch):
        # No key anywhere: the sealed batch has no key column, and the
        # analytical tier files every row under the None key.
        elements = [Element(value=v, timestamp=i * 0.5)
                    for i, (_, v) in enumerate(rows)]
        runs = {mode: _coordinated(_job(elements, "float"), 2, flags,
                                   source_batch)
                for mode, flags in MODES.items()}
        base, base_ckpts, _ = runs["per_item"]
        for mode, (run, ckpts, _) in runs.items():
            assert run.sinks["out"].elements \
                == base.sinks["out"].elements, mode
            assert [c.sink_elements for c in ckpts] \
                == [c.sink_elements for c in base_ckpts], mode
            assert all(rb.key_codes is None
                       for rb in ckpts[-1].sink_elements["out"]), mode
            history = AnalyticalStore()
            history.append_epoch(1, run.sinks["out"].rows_from(0))
            assert history.count(keys=[None]) == len(elements)


# -- the sink protocol, fed columns ------------------------------------------

F0, F1 = ("up", 0), ("up", 1)


def _els(n, start=0, value=float):
    return [Element(value=value(i), timestamp=float(i), key=f"k{i % 3}")
            for i in range(start, start + n)]


def _twins():
    """One sink fed Elements (the reference) and one fed batches."""
    return (TransactionalSink("out", (F0, F1)),
            TransactionalSink("out", (F0, F1)))


def _both(sinks, call):
    for as_batch, sink in zip((False, True), sinks):
        call(sink, (lambda els: RecordBatch.from_elements(els)) if as_batch
             else (lambda els: els))


def _assert_same(sinks):
    plain, batched = sinks
    assert batched.elements == plain.elements
    assert batched.batches == plain.batches
    assert _uncommitted(batched) == _uncommitted(plain)


class TestProtocolOverBatches:
    def test_out_of_order_feeders_stage_into_the_next_transaction(self):
        sinks = _twins()

        def drive(sink, rows):
            sink.deliver(rows(_els(4)), F0)
            sink.on_barrier(F0, 1)
            sink.deliver(rows(_els(3, start=10)), F0)   # epoch 2 already
            sink.deliver(rows(_els(2, start=20)), F1)   # still epoch 1
            assert sink.on_barrier(F1, 1) == 1
            assert len(sink.pending[1]) == 6
            sink.commit(1)
            assert _uncommitted(sink) == 3
            sink.on_barrier(F0, 2)
            assert sink.on_barrier(F1, 2) == 2
            sink.commit(2)
        _both(sinks, drive)
        _assert_same(sinks)
        assert [len(rb) for rb in sinks[1].batches] == [6, 3]
        assert [e.timestamp for e in sinks[1].elements] \
            == [0.0, 1.0, 2.0, 3.0, 20.0, 21.0, 10.0, 11.0, 12.0]

    def test_abort_folds_the_sealed_batch_back_in_front(self):
        sinks = _twins()

        def drive(sink, rows):
            sink.deliver(rows(_els(3)), F0)
            sink.on_barrier(F0, 1)
            sink.on_barrier(F1, 1)
            sink.deliver(rows(_els(2, start=5)), F1)
            sink.abort_pending(1)
            assert sink.pending == {} and _uncommitted(sink) == 5
            sink.on_barrier(F0, 2)
            sink.on_barrier(F1, 2)
            sink.commit(2)
        _both(sinks, drive)
        _assert_same(sinks)
        assert [e.timestamp for e in sinks[1].elements] \
            == [0.0, 1.0, 2.0, 5.0, 6.0]
        assert len(sinks[1].batches) == 1  # one epoch, one sealed batch

    def test_overtaking_barrier_restarts_the_epoch_in_arrival_order(self):
        sinks = _twins()

        def drive(sink, rows):
            sink.deliver(rows(_els(2)), F0)
            sink.on_barrier(F0, 1)
            sink.deliver(rows(_els(2, start=4)), F0)  # behind barrier 1
            assert sink.on_barrier(F0, 2) is None     # 1 was abandoned
            sink.deliver(rows(_els(1, start=9)), F1)
            assert sink.on_barrier(F1, 2) == 2
            sink.commit(2)
        _both(sinks, drive)
        _assert_same(sinks)
        assert [e.timestamp for e in sinks[1].elements] \
            == [0.0, 1.0, 4.0, 5.0, 9.0]

    def test_a_sealed_epoch_owns_its_dictionary(self):
        # A delivered slice shares its source's dictionary — thousands
        # of keys for a few rows, and still growing.  The sealed epoch
        # keeps the keys of its own rows, in order of first appearance,
        # and nothing the source appends later reaches it.
        index, table = {}, []
        source = RecordBatch.from_elements(
            [Element(float(i), float(i), f"k{i}") for i in range(500)],
            index, table)
        sink = TransactionalSink("out", (F0,))
        sink.deliver(source.slice(200, 204), F0)
        sink.deliver(source.slice(100, 102), F0)
        sink.on_barrier(F0, 1)
        sealed = sink.pending[1]
        assert sealed.key_dict == ["k200", "k201", "k202", "k203",
                                   "k100", "k101"]
        assert sealed.key_dict is not table
        before = pickle.dumps(sealed)
        RecordBatch.from_elements([Element(1.0, 1.0, "new")], index, table)
        assert pickle.dumps(sealed) == before
        assert sealed == RecordBatch.from_elements(
            source.slice(200, 204).to_elements()
            + source.slice(100, 102).to_elements())

    def test_decoding_is_lazy_and_only_past_what_was_decoded(self):
        sink = TransactionalSink("out", (F0,))
        sink.deliver(RecordBatch.from_elements(_els(3)), F0)
        sink.on_barrier(F0, 1)
        sink.commit(1)
        assert len(sink) == 3 and sink._elements == []
        first = sink.elements
        assert first == _els(3)
        sink.deliver(_els(2, start=3, value=np.float64), F0)
        sink.on_barrier(F0, 2)
        sink.commit(2)
        assert len(sink) == 5 and len(sink._elements) == 3
        assert sink.elements is first       # extended, not rebuilt
        assert [type(e.value) for e in sink.elements] \
            == [float] * 3 + [np.float64] * 2
        assert [type(v) for v in sink.values] \
            == [float] * 3 + [np.float64] * 2

    def test_rows_from_cuts_anywhere(self):
        sink = TransactionalSink("out", (F0,))
        for cid, start in enumerate((0, 4, 8), start=1):
            sink.deliver(_els(4, start=start), F0)
            sink.on_barrier(F0, cid)
            sink.commit(cid)
        everything = _els(12)
        assert sink.rows_from(8) is sink.batches[-1]   # no copy, no splice
        for start in range(14):
            assert sink.rows_from(start).to_elements() \
                == everything[start:], start

    def test_an_empty_epoch_is_one_shared_batch_and_still_an_epoch(self):
        sink = TransactionalSink("out", (F0,))
        sink.on_barrier(F0, 1)
        assert len(sink.pending[1]) == 0
        assert sink.projected_committed(1) == []
        sink.commit(1)
        assert sink.batches == [] and sink.last_committed_id == 1
        store_sink = StoreSink(TieredStore())
        assert store_sink.on_checkpoint_committed(1, sink) == 0
        assert store_sink.last_applied_epoch == 1
        assert store_sink.store.analytical.last_applied_epoch == 1
        assert store_sink.store.analytical.stats()["segments"] == 1
