"""What a consumer sees does not depend on how the log stores a row.

The partition keeps columns and ``poll`` builds a flat
``ConsumedRecord`` per row; every case here states what was sent and
asserts that exactly that comes back — coordinates, fields, stamped
headers, byte accounting, dedup counters — for plain,
idempotent and traced producers alike.  The file passes unchanged on
the commit before the log stored columns.
"""

import pytest

from repro.chaos import (
    SITE_FETCH,
    ChaosLogCluster,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.eventlog import Consumer, LogCluster, Producer, Record, TopicConfig
from repro.obs.trace import Tracer

PID = 7
#: (value, key, timestamp, headers) — keyed and keyless, with and
#: without headers, float and structured values, non-ASCII text
SENDS = [
    (0.5, "bed-1:hr", 0.0, None),
    (1.5, None, 0.5, None),
    ({"spo2": 97}, "bed-2:spo2", 1.0, {"unit": "%"}),
    (3.5, "bed-1:hr", 1.5, {}),
    ("très", "clé", 2.0, {"src": "naïve"}),
    (5.5, None, 2.5, {"unit": "bpm", "ward": "3"}),
    (6.5, "bed-3:hr", 3.0, None),
    (7.5, "bed-1:hr", 3.5, None),
    (None, "bed-2:spo2", 4.0, None),
    (9.5, None, 4.5, None),
]
KINDS = ("plain", "idempotent", "traced", "idempotent+traced")


def _produce(kind, partitions=2):
    cluster = LogCluster(num_brokers=1)
    cluster.create_topic(TopicConfig("t", partitions=partitions))
    tracer = Tracer() if "traced" in kind else None
    producer = Producer(cluster, idempotent="idempotent" in kind,
                        tracer=tracer, producer_id=PID)
    coords = [producer.send("t", value, key=key, timestamp=ts,
                            headers=headers)
              for value, key, ts, headers in SENDS]
    return cluster, producer, tracer, coords


def _expected_rows(kind, tracer, coords):
    """``(partition, offset, value, key, timestamp, headers)`` in poll
    order, headers as the producer of ``kind`` stamps them."""
    spans = ([s for s in tracer.spans if s.name == "produce"]
             if tracer is not None else [])
    rows = []
    for i, ((value, key, ts, headers), (p, offset)) in enumerate(
            zip(SENDS, coords)):
        stamped = dict(headers or {})
        if "traced" in kind:
            stamped["traceparent"] = spans[i].traceparent
        if "idempotent" in kind:
            # every send succeeded: a partition's sequence is its offset
            stamped.update(pid=str(PID), epoch="0", seq=str(offset))
        rows.append((p, offset, value, key, ts, stamped))
    return sorted(rows, key=lambda row: row[:2])


@pytest.mark.parametrize("kind", KINDS)
class TestWhatWasSentComesBack:
    def test_poll_rows_and_their_records(self, kind):
        cluster, _, tracer, coords = _produce(kind)
        expected = _expected_rows(kind, tracer, coords)
        assert len({p for p, *_ in expected}) == 2
        polled = Consumer(cluster, "t").poll(100)
        assert [(r.topic, r.partition, r.offset, r.value, r.key, r.timestamp,
                 r.headers) for r in polled] \
            == [("t", *row) for row in expected]
        assert [r.record for r in polled] \
            == [Record(value=value, key=key, timestamp=ts, headers=headers)
                for _, _, value, key, ts, headers in expected]

    def test_poll_columns_chunks(self, kind):
        cluster, _, tracer, coords = _produce(kind)
        expected = _expected_rows(kind, tracer, coords)
        chunks = [tuple([row[i] for row in expected if row[0] == p]
                        for i in (1, 4, 2, 3)) for p in range(2)]
        for consumer_tracer in (None, Tracer()):
            consumer = Consumer(cluster, "t", tracer=consumer_tracer)
            assert [(p, *map(list, columns))
                    for p, *columns in consumer.poll_columns(100)] \
                == [(p, *map(list, chunk)) for p, chunk in enumerate(chunks)]
            assert consumer.consumed == len(SENDS)

    def test_bytes_sent_is_what_the_partitions_hold(self, kind):
        cluster, producer, _, _ = _produce(kind)
        assert producer.sent == len(SENDS)
        held = sum(cluster.leader_partition("t", p).size_bytes
                   for p in range(2))
        assert producer.bytes_sent == held
        assert held == sum(r.record.size_bytes
                           for r in Consumer(cluster, "t").poll(100))

    def test_small_polls_see_the_same_rows(self, kind):
        cluster, _, tracer, coords = _produce(kind)
        consumer = Consumer(cluster, "t")
        rows = []
        while batch := consumer.poll(3):
            assert len(batch) <= 3
            rows.extend(batch)
        assert sorted(((r.partition, r.offset, r.value, r.key, r.timestamp,
                        r.headers) for r in rows), key=lambda row: row[:2]) \
            == _expected_rows(kind, tracer, coords)


class TestDedupUnderARewindingFetch:
    def _cluster(self):
        cluster, *_ = _produce("idempotent", partitions=1)
        return ChaosLogCluster(cluster, FaultInjector(FaultPlan(specs=(
            FaultSpec("duplicate_delivery", SITE_FETCH, at=1, count=3,
                      param=2),))))

    def test_poll(self):
        consumer = Consumer(self._cluster(), "t", dedup=True)
        offsets = []
        while batch := consumer.poll(4):
            offsets.extend(r.offset for r in batch)
            assert all(r.headers["seq"] == str(r.offset) for r in batch)
        assert offsets == list(range(len(SENDS)))
        assert consumer.duplicates_dropped == 6
        assert consumer.consumed == len(SENDS)

    def test_poll_columns_drops_the_same(self):
        consumer = Consumer(self._cluster(), "t", dedup=True)
        offsets = []
        while chunks := consumer.poll_columns(4):
            for _, chunk_offsets, *_ in chunks:
                offsets.extend(chunk_offsets)
        assert offsets == list(range(len(SENDS)))
        assert consumer.duplicates_dropped == 6

    def test_without_dedup_the_rewinds_show(self):
        consumer = Consumer(self._cluster(), "t")
        offsets = []
        while batch := consumer.poll(4):
            offsets.extend(r.offset for r in batch)
        # fetches 1, 2 and 3 each start two offsets back
        assert offsets == [0, 1, 2, 3, 2, 3, 4, 5, 4, 5, 6, 7, 6, 7, 8, 9]
