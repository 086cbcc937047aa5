"""Unit tests: idempotent producer semantics."""

import pytest

from repro.eventlog import Consumer, LogCluster, Producer, TopicConfig
from repro.util.errors import LogError


def _cluster(partitions=2):
    cluster = LogCluster(3)
    cluster.create_topic(TopicConfig("t", partitions=partitions,
                                     replication=2))
    return cluster


class TestIdempotentProducer:
    def test_retry_does_not_duplicate(self):
        cluster = _cluster()
        producer = Producer(cluster, idempotent=True)
        partition, offset = producer.send("t", {"v": 1}, key="k")
        retry_partition, retry_offset = producer.resend_last()
        assert (retry_partition, retry_offset) == (partition, offset)
        assert cluster.end_offset("t", partition) == 1
        assert producer.duplicates_rejected == 1

    def test_sequences_continue_after_retry(self):
        cluster = _cluster(partitions=1)
        producer = Producer(cluster, idempotent=True)
        producer.send("t", 1)
        producer.resend_last()
        producer.send("t", 2)
        consumer = Consumer(cluster, "t")
        assert [r.value for r in consumer.poll()] == [1, 2]

    def test_retry_survives_failover(self):
        cluster = _cluster(partitions=1)
        producer = Producer(cluster, idempotent=True)
        producer.send("t", 1)
        cluster.fail_broker(cluster.partition_state("t", 0).leader)
        # The ambiguous-failure retry lands on the new leader and is
        # still deduplicated (acks=all means the record replicated).
        producer.resend_last()
        assert cluster.end_offset("t", 0) == 1

    def test_two_producers_do_not_collide(self):
        cluster = _cluster(partitions=1)
        a = Producer(cluster, idempotent=True)
        b = Producer(cluster, idempotent=True)
        a.send("t", "from-a")
        b.send("t", "from-b")
        a.resend_last()
        b.resend_last()
        assert cluster.end_offset("t", 0) == 2

    def test_sequence_headers_attached(self):
        cluster = _cluster(partitions=1)
        producer = Producer(cluster, idempotent=True)
        producer.send("t", 1)
        producer.send("t", 2)
        rows = Consumer(cluster, "t").poll()
        assert rows[0].record.headers["seq"] == "0"
        assert rows[1].record.headers["seq"] == "1"
        assert rows[0].record.headers["pid"] == \
            str(producer.producer_id)

    def test_sequence_gap_rejected(self):
        cluster = _cluster(partitions=1)
        producer = Producer(cluster, idempotent=True)
        producer.send("t", 1)
        from repro.eventlog import Record
        with pytest.raises(LogError):
            cluster.append_idempotent("t", 0, Record(value=9),
                                      producer.producer_id, sequence=5)

    def test_stale_sequence_rejected(self):
        cluster = _cluster(partitions=1)
        producer = Producer(cluster, idempotent=True)
        producer.send("t", 1)
        producer.send("t", 2)
        from repro.eventlog import Record
        with pytest.raises(LogError):
            cluster.append_idempotent("t", 0, Record(value=9),
                                      producer.producer_id, sequence=0)

    def test_non_idempotent_resend_rejected(self):
        cluster = _cluster()
        producer = Producer(cluster)
        producer.send("t", 1)
        with pytest.raises(ValueError):
            producer.resend_last()

    def test_resend_before_any_send_rejected(self):
        producer = Producer(_cluster(), idempotent=True)
        with pytest.raises(ValueError, match="nothing sent yet"):
            producer.resend_last()
        producer.send("t", 1)
        producer.bump_epoch()        # a new incarnation has no last send
        with pytest.raises(ValueError, match="nothing sent yet"):
            producer.resend_last()

    def test_plain_producer_still_duplicates(self):
        """Contrast: without idempotence a retry double-appends."""
        cluster = _cluster(partitions=1)
        producer = Producer(cluster)
        producer.send("t", {"v": 1})
        producer.send("t", {"v": 1})  # "retry"
        assert cluster.end_offset("t", 0) == 2
