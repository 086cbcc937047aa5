"""Property tests: the columnar log → engine hand-off.

``log_source`` / ``parallel_log_source`` read columns from the log
(``Partition.read_columns`` → ``Consumer.poll_columns``) and build their
``RecordBatch`` without a per-row object; a columnar ``ParallelExecutor``
keeps a factory's batches as its split buffers.  Neither may change what
a job computes.  The reference here is the per-record path the
connectors used to take: drain ``Consumer.poll``, sort the
``ConsumedRecord``\\ s with Python's ``sort`` on ``(timestamp,
partition, offset)``, build Elements, encode with
``RecordBatch.from_elements``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    SITE_FETCH,
    ChaosLogCluster,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.eventlog import Consumer, LogCluster, Producer, TopicConfig
from repro.streaming import (
    Element,
    JobBuilder,
    ParallelExecutor,
    TumblingWindows,
)
from repro.streaming.batch import RecordBatch, decode_items
from repro.streaming.connectors import log_source, parallel_log_source
from repro.util.errors import BrokerDown
from repro.util.ids import split_ranges

TOPIC = "t"
KEYS = (None, "k0", "k1", "k2", "k3", "kä")  # one non-ASCII key


# -- topics ---------------------------------------------------------------

def _value(kind, draw):
    """all-float / mixed (floats and ints) / opaque (dicts) values."""
    if kind == "float":
        return float(draw)
    if kind == "mixed":
        return float(draw) if draw % 2 else int(draw)
    return {"v": float(draw)}


topics = st.fixed_dictionaries({
    "partitions": st.integers(min_value=1, max_value=8),
    "kind": st.sampled_from(("float", "mixed", "opaque")),
    # few distinct timestamps: ties within and across partitions
    "rows": st.lists(
        st.tuples(st.integers(min_value=0, max_value=7),     # partition
                  st.integers(min_value=0, max_value=6),     # timestamp
                  st.sampled_from(KEYS),
                  st.integers(min_value=-9, max_value=9)),   # value draw
        min_size=0, max_size=60),
})


def _build(spec) -> LogCluster:
    cluster = LogCluster(num_brokers=1)
    n = spec["partitions"]
    cluster.create_topic(TopicConfig(TOPIC, partitions=n))
    for p, ts, key, draw in spec["rows"]:
        cluster.append_row(TOPIC, p % n, _value(spec["kind"], draw), key,
                           ts * 0.5, None)
    return cluster


def _reference(cluster, partitions=None, time_ordered=True):
    """The per-record path: poll, Python-sort, one Element per row."""
    consumer = Consumer(cluster, TOPIC, partitions, dedup=True)
    rows = []
    while True:
        batch = consumer.poll(max_records=7)
        if not batch:
            break
        rows.extend(batch)
    if time_ordered:
        rows.sort(key=lambda r: (r.timestamp, r.partition, r.offset))
    return [Element(value=r.value, timestamp=float(r.timestamp), key=r.key)
            for r in rows]


def _encode(elements, key_index=None, key_dict=None) -> RecordBatch:
    """The per-row encoder ``RecordBatch.from_elements`` used to be —
    kept as the reference for ``from_columns`` and ``splice``."""
    n = len(elements)
    ts = np.fromiter((e.timestamp for e in elements), dtype=np.float64,
                     count=n)
    vals = [e.value for e in elements]
    numeric = set(map(type, vals)) == {float}
    values = np.asarray(vals, dtype=np.float64) if numeric else vals
    shared = key_index is not None
    if not shared and all(e.key is None for e in elements):
        return RecordBatch(ts, values, py_values=numeric)
    if not shared:
        key_index, key_dict = {}, []
    codes = []
    for e in elements:
        code = key_index.get(e.key)
        if code is None and e.key not in key_index:
            code = len(key_dict)
            key_index[e.key] = code
            key_dict.append(e.key)
        codes.append(code)
    return RecordBatch(ts, values, py_values=numeric,
                       key_codes=np.asarray(codes, dtype=np.int64),
                       key_dict=key_dict)


def _assert_same_batch(got: RecordBatch, want: RecordBatch) -> None:
    assert got.timestamps.dtype == want.timestamps.dtype == np.float64
    assert np.array_equal(got.timestamps, want.timestamps, equal_nan=True)
    assert type(got.values) is type(want.values)
    if isinstance(want.values, np.ndarray):
        assert got.values.dtype == want.values.dtype
        assert np.array_equal(got.values, want.values)
    else:
        assert got.values == want.values
        assert list(map(type, got.values)) == list(map(type, want.values))
    assert got.py_values is want.py_values
    assert got.key_dict == want.key_dict          # same first-seen order
    assert (got.key_codes is None) == (want.key_codes is None)
    if want.key_codes is not None:
        assert got.key_codes.dtype == want.key_codes.dtype
        assert np.array_equal(got.key_codes, want.key_codes)
    assert got.wm_offsets is None and got.wm_values is None


class TestLogSources:
    @given(topics)
    @settings(max_examples=60, deadline=None)
    def test_log_source_matches_per_record_path(self, spec):
        cluster = _build(spec)
        want = _reference(cluster)
        batches = list(log_source(cluster, TOPIC)())
        assert all(type(b) is RecordBatch for b in batches)
        assert decode_items(batches) == want
        if want:  # the whole replay is one batch
            (batch,) = batches
            _assert_same_batch(batch, _encode(want))

    @given(topics, st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_parallel_log_source_matches_per_record_path(self, spec, splits):
        cluster = _build(spec)
        columnar, n = parallel_log_source(cluster, TOPIC)
        assert n == spec["partitions"]
        # a job may run the factory at fewer splits than partitions
        n = min(splits, n)
        for s, owned in enumerate(split_ranges(spec["partitions"], n)):
            want = _reference(cluster, list(owned))
            out = columnar(s, n)
            assert decode_items(out) == want
            # re-runnable: a restore re-reads the split
            assert decode_items(columnar(s, n)) == want
            if want:
                (batch,) = out
                _assert_same_batch(batch, _encode(want))
            else:
                assert out == []

    @given(topics)
    @settings(max_examples=40, deadline=None)
    def test_from_elements_matches_the_per_row_encoder(self, spec):
        elements = _reference(_build(spec), time_ordered=False)
        _assert_same_batch(RecordBatch.from_elements(elements),
                           _encode(elements))
        # shared dictionary: two runs, keys carried over, None coded
        cut = len(elements) // 2
        index, table, want_index, want_table = {}, [], {}, []
        for run in (elements[:cut], elements[cut:]):
            _assert_same_batch(
                RecordBatch.from_elements(run, index, table),
                _encode(run, want_index, want_table))
        assert table == want_table and index == want_index

    def test_nan_timestamps_sort_last(self):
        # Python's tuple sort has no defined place for NaN; the
        # columnar order does: after every real timestamp, NaNs among
        # themselves by (partition, offset).
        cluster = LogCluster(num_brokers=1)
        cluster.create_topic(TopicConfig(TOPIC, partitions=2))
        producer = Producer(cluster)
        for p, ts, v in ((1, math.nan, 0.0), (0, 2.0, 1.0),
                         (0, math.nan, 2.0), (1, 1.0, 3.0),
                         (0, 0.5, 4.0)):
            cluster.append_row(TOPIC, p, v, None, ts, None)
        (batch,) = log_source(cluster, TOPIC)()
        assert batch.values.tolist() == [4.0, 3.0, 1.0, 2.0, 0.0]
        assert np.isnan(batch.timestamps[3:]).all()

    def test_columnar_path_builds_no_per_row_object(self, monkeypatch):
        cluster = LogCluster(num_brokers=1)
        cluster.create_topic(TopicConfig(TOPIC, partitions=2))
        producer = Producer(cluster)
        for i in range(20):
            producer.send(TOPIC, float(i), key=f"k{i % 3}",
                          timestamp=float(i))
        factory, n = parallel_log_source(cluster, TOPIC)

        def forbidden(*args, **kwargs):
            raise AssertionError("a per-row object on the columnar path")
        monkeypatch.setattr("repro.eventlog.consumer.ConsumedRecord",
                            forbidden)
        monkeypatch.setattr("repro.streaming.batch.Element", forbidden)
        assert sum(len(b) for s in range(n) for b in factory(s, n)) == 20


    def test_traced_consumer_still_spans_every_record(self):
        from repro.obs.trace import Tracer
        cluster = LogCluster(num_brokers=1)
        cluster.create_topic(TopicConfig(TOPIC, partitions=2))
        tracer = Tracer()
        producer = Producer(cluster, tracer=tracer)
        for i in range(6):
            producer.send(TOPIC, float(i), key=f"k{i}", timestamp=float(i))
        produced = {s.span_id for s in tracer.spans if s.name == "produce"}
        plain = Consumer(cluster, TOPIC).poll_columns(100)
        traced = Consumer(cluster, TOPIC, tracer=tracer).poll_columns(100)
        assert [tuple(map(list, chunk[1:])) for chunk in traced] \
            == [tuple(map(list, chunk[1:])) for chunk in plain]
        consumed = [s for s in tracer.spans if s.name == "consume"]
        assert len(consumed) == 6
        assert {s.parent_id for s in consumed} == produced


# -- the same under fetch faults ----------------------------------------------

fault_plans = st.lists(
    st.one_of(
        st.builds(lambda at, depth: FaultSpec(
            "duplicate_delivery", SITE_FETCH, at=at, param=depth),
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=1, max_value=5)),
        st.builds(lambda at, count: FaultSpec(
            "partition_unavailable", SITE_FETCH, at=at, count=count),
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=1, max_value=3))),
    min_size=1, max_size=4)


def _chaos(cluster, specs) -> ChaosLogCluster:
    return ChaosLogCluster(cluster, FaultInjector(FaultPlan(
        specs=tuple(specs))))


def _drain_rows(consumer, columns: bool):
    """Poll to the end, riding out BrokerDown; returns the delivered
    (partition, offset, timestamp, value, key) rows and how many polls
    raised."""
    rows, raised = [], 0
    for _ in range(200):
        try:
            if columns:
                got = [(p, o, t, v, k)
                       for p, offs, ts, vals, keys
                       in consumer.poll_columns(5)
                       for o, t, v, k in zip(offs, ts, vals, keys)]
            else:
                got = [(r.partition, r.offset, r.timestamp, r.value, r.key)
                       for r in consumer.poll(5)]
        except BrokerDown:
            raised += 1
            continue
        if not got:
            return rows, raised
        rows.extend(got)
    raise AssertionError("consumer never drained")


class TestUnderFetchFaults:
    @given(topics, fault_plans)
    @settings(max_examples=60, deadline=None)
    def test_poll_columns_is_poll_under_faults(self, spec, plan):
        cluster = _build(spec)
        by_record = Consumer(_chaos(cluster, plan), TOPIC, dedup=True)
        by_column = Consumer(_chaos(cluster, plan), TOPIC, dedup=True)
        want, want_raised = _drain_rows(by_record, columns=False)
        got, got_raised = _drain_rows(by_column, columns=True)
        assert got == want
        assert got_raised == want_raised
        assert by_column.duplicates_dropped == by_record.duplicates_dropped
        assert by_column.consumed == by_record.consumed
        assert by_column._positions == by_record._positions
        assert by_column._delivered == by_record._delivered
        # dedup: whatever the faults re-served, no offset twice
        coords = [(p, o) for p, o, *_ in got]
        assert len(coords) == len(set(coords))

    @given(topics, fault_plans)
    @settings(max_examples=60, deadline=None)
    def test_source_replay_loses_and_repeats_nothing(self, spec, plan):
        # How a job rides out a fetch fault: the source is re-run from
        # the start (a fresh consumer); the schedule only moves forward,
        # so some attempt gets through.
        cluster = _build(spec)
        want = _reference(cluster)
        source = log_source(_chaos(cluster, plan), TOPIC)
        for _ in range(20):
            try:
                got = decode_items(list(source()))
                break
            except BrokerDown:
                continue
        else:
            raise AssertionError("source never got through")
        assert got == want

    def test_duplicate_delivery_reaches_the_column_read(self):
        cluster = LogCluster(num_brokers=1)
        cluster.create_topic(TopicConfig(TOPIC, partitions=1))
        producer = Producer(cluster)
        for i in range(12):
            producer.send(TOPIC, float(i), timestamp=float(i))
        chaos = _chaos(cluster, [FaultSpec("duplicate_delivery", SITE_FETCH,
                                           at=1, param=3)])
        plain = Consumer(chaos, TOPIC)
        seen = []
        while True:
            chunks = plain.poll_columns(4)
            if not chunks:
                break
            seen.extend(o for _, offs, *_ in chunks for o in offs)
        assert len(seen) > 12 and sorted(set(seen)) == list(range(12))

    def test_unavailable_partition_reaches_the_column_read(self):
        cluster = LogCluster(num_brokers=1)
        cluster.create_topic(TopicConfig(TOPIC, partitions=1))
        Producer(cluster).send(TOPIC, 1.0)
        chaos = _chaos(cluster, [FaultSpec("partition_unavailable",
                                           SITE_FETCH, at=0, count=1)])
        with pytest.raises(BrokerDown):
            chaos.read_columns(TOPIC, 0, 0)
        assert chaos.read_columns(TOPIC, 0, 0) == ([0], [0.0], [1.0], [None])
        cluster.fail_broker(0)
        with pytest.raises(BrokerDown):
            cluster.read_columns(TOPIC, 0, 0)


# -- the executor's split buffer ----------------------------------------------

N_SPLITS = 4
PARALLELISMS = (1, 2, 4)

split_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7),               # key
              st.floats(min_value=-50.0, max_value=50.0,           # value
                        allow_nan=False)),
    min_size=1, max_size=60)


def _splits(rows, shape):
    """Key-aligned split buffers.  ``shape``: "sorted" (float values,
    timestamps ascending), "unsorted" (split 0 out of order) or "opaque"
    (split 1 holds dicts) — the last two force the heap merge."""
    buffers = {s: [] for s in range(N_SPLITS)}
    for i, (k, v) in enumerate(rows):
        buffers[k % N_SPLITS].append(
            Element(value=float(v), timestamp=i * 0.7, key=k))
    if shape == "unsorted":
        buffers[0].reverse()
    elif shape == "opaque":
        buffers[1] = [e.with_value({"v": e.value}) for e in buffers[1]]
    return buffers


def _as_batches(elements):
    """Two batches with their own dictionaries, so the executor has to
    splice; an unkeyed-looking empty batch rides along."""
    if not elements:
        return []
    cut = len(elements) // 2
    parts = [elements[:cut], elements[cut:]]
    return [RecordBatch.from_elements(part) for part in parts if part] + [
        RecordBatch.from_elements([])]


def _job(buffers, columnar_factory):
    def factory(split, n):
        assert n == N_SPLITS
        run = list(buffers[split])
        return _as_batches(run) if columnar_factory else run
    builder = JobBuilder("split-buffer")
    (builder.source("s", splits=N_SPLITS, split_factory=factory)
            .with_watermarks(5.0, emit_every=4)
            .window(TumblingWindows(10.0), "sum", name="win",
                    value_fn=lambda v: v["v"] if type(v) is dict else v)
            .sink("out"))
    return builder.build()


def _trace(buffers, columnar_factory, p):
    """Everything observable about a run with a crash in the middle:
    positions and checkpoint mid-split, sinks after the restore."""
    executor = ParallelExecutor(_job(buffers, columnar_factory), p)
    stamps = executor.sources.timestamps("s")
    executor.run(source_batch=3, max_cycles=2)
    positions = executor.sources.positions()
    snapshot = executor.checkpoint()
    executor.run(source_batch=5)                 # run ahead, then "crash"
    executor.restore(snapshot)
    executor.run(source_batch=5)
    final = executor.checkpoint()
    return (stamps, positions, snapshot,
            [repr(v) for v in executor.sinks["out"].values], final,
            executor)


class TestSplitBuffers:
    @pytest.mark.parametrize("shape", ("sorted", "unsorted", "opaque"))
    @given(rows=split_rows)
    @settings(max_examples=12, deadline=None)
    def test_batches_and_elements_run_the_same(self, shape, rows):
        buffers = _splits(rows, shape)
        for p in PARALLELISMS:
            *want, _ = _trace(buffers, False, p)
            *got, executor = _trace(buffers, True, p)
            assert got[0] == want[0], "sources.timestamps"
            assert got[1] == want[1], "mid-split positions"
            assert got[2] == want[2], "mid-split checkpoint"
            assert got[3] == want[3], "sinks after restore"
            assert got[4] == want[4], "final checkpoint"
            kept = executor.sources.open("s")
            assert all(kept[s].batch is not None
                       for s in range(N_SPLITS) if buffers[s])

    @pytest.mark.parametrize("shape,split", (("unsorted", 0), ("opaque", 1)))
    def test_heap_fallback_decodes_lazily(self, shape, split):
        rows = [(i % 8, float(i)) for i in range(40)]
        # two splits a subtask: merging them needs the heap where one is
        # out of order or opaque
        executor = ParallelExecutor(_job(_splits(rows, shape), True), 2)
        kept = executor.sources.open("s")
        assert not any(buf.decoded for buf in kept)
        executor.run(source_batch=5)
        # only the subtask whose merge needs item access pays for it
        (owner,) = (r for r in split_ranges(N_SPLITS, 2) if split in r)
        assert [s for s, buf in enumerate(kept) if buf.decoded] == list(owner)

    @pytest.mark.parametrize("shape", ("unsorted", "opaque"))
    def test_single_live_split_is_never_decoded(self, shape):
        # one split a subtask has nothing to merge: its own order is the
        # pull order, sorted and numeric or not
        rows = [(i % 8, float(i)) for i in range(40)]
        buffers = _splits(rows, shape)
        executor = ParallelExecutor(_job(buffers, True), N_SPLITS)
        executor.run(source_batch=5)
        assert not any(buf.decoded for buf in executor.sources.open("s"))
        want = ParallelExecutor(_job(buffers, False), N_SPLITS,
                                batch_mode=False).run(source_batch=5)
        assert ([repr(v) for v in executor.sinks["out"].values]
                == [repr(v) for v in want["out"].values])

    def test_splice_matches_from_elements_of_the_decoded_rows(self):
        runs = [
            [Element(1.0, 0.0, "b"), Element(2.0, 1.0, None),
             Element(3.0, 2.0, "a")],
            [Element(4.0, 3.0, None)],                    # key column elided
            [Element(5.0, 4.0, "a"), Element(6.0, 5.0, "c")],
        ]
        batches = [RecordBatch.from_elements(run) for run in runs]
        # a dictionary that is neither dense nor in row order
        batches[2] = batches[2].with_keys(np.array([2, 0]), ["c", "zz", "a"])
        index, table = {"seen": 0}, ["seen"]
        want_index, want_table = {"seen": 0}, ["seen"]
        want = _encode([e for run in runs for e in run], want_index,
                       want_table)
        _assert_same_batch(RecordBatch.splice(batches, index, table), want)
        assert table == want_table == ["seen", "b", None, "a", "c"]
        assert index == want_index

    def test_sorted_float_log_source_is_never_decoded(self):
        cluster = LogCluster(num_brokers=1)
        cluster.create_topic(TopicConfig(TOPIC, partitions=4))
        producer = Producer(cluster)
        for i in range(400):
            producer.send(TOPIC, float(i), key=f"k{i % 10}",
                          timestamp=i * 0.1)
        factory, n = parallel_log_source(cluster, TOPIC)
        builder = JobBuilder("never-decodes")
        (builder.source("events", splits=n, split_factory=factory)
                .with_watermarks(2.0)
                .window(TumblingWindows(10.0), "mean")
                .sink("out"))
        executor = ParallelExecutor(builder.build(), 1)
        executor.run(source_batch=64)
        splits = executor.sources.open("events")
        assert len(splits) == 4
        assert all(split.batch is not None and len(split.buffer)
                   for split in splits)
        assert not any(split.decoded for split in splits)
        assert executor.sources.pulled("events") == 400
        assert len(executor.sinks["out"].values) == 40
