"""The plain ``Producer.send`` path appends through writers it resolves
once per topic (``LogCluster.appenders``) and re-resolves when the
cluster's ``generation`` moves.  These tests fail a partition's leader,
lose and recover its replicas, and inject append faults between sends
whose writers are cached, and check the log is what a per-send lookup
would have written."""

import pytest

from repro.chaos import (
    SITE_APPEND,
    ChaosLogCluster,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.eventlog.broker import LogCluster, TopicConfig
from repro.eventlog.producer import Producer
from repro.util.errors import BrokerDown, PartitionNotFound, TopicNotFound


#: a key the two-partition topic routes to partition 0
KEY0 = "k0"


def _cluster():
    cluster = LogCluster(num_brokers=3)
    cluster.create_topic(TopicConfig("t", partitions=2, replication=2))
    return cluster


def _log(cluster, broker, partition=0):
    log = cluster.brokers[broker].replicas[("t", partition)]
    return [(o, r.value) for o, r in log.read(0, 100)]


class TestWriterInvalidation:
    def test_leader_failover_keeps_offsets_contiguous(self):
        cluster = _cluster()
        producer = Producer(cluster)
        state = cluster.partition_state("t", 0)
        first, second = state.replica_brokers
        assert [producer.send("t", i, key=KEY0) for i in range(3)] \
            == [(0, 0), (0, 1), (0, 2)]
        cluster.fail_broker(first)
        assert cluster.partition_state("t", 0).leader == second
        assert producer.send("t", 3, key=KEY0) == (0, 3)
        assert _log(cluster, second) == [(i, i) for i in range(4)]
        # the failed replica's log took nothing after the failure
        assert _log(cluster, first) == [(i, i) for i in range(3)]

    def test_losing_every_replica_raises_and_recovery_resumes(self):
        cluster = _cluster()
        producer = Producer(cluster)
        first, second = cluster.partition_state("t", 0).replica_brokers
        producer.send("t", 0, key=KEY0)
        cluster.fail_broker(first)
        producer.send("t", 1, key=KEY0)
        cluster.fail_broker(second)
        with pytest.raises(BrokerDown, match=r"t\[0\] has no live leader"):
            producer.send("t", 2, key=KEY0)
        # the last in-sync replica comes back as the leader
        cluster.recover_broker(second)
        assert producer.send("t", 3, key=KEY0) == (0, 2)
        # the other catches up, then takes every later append
        cluster.recover_broker(first)
        assert producer.send("t", 4, key=KEY0) == (0, 3)
        expected = [(0, 0), (1, 1), (2, 3), (3, 4)]
        assert _log(cluster, second) == expected
        assert _log(cluster, first) == expected

    def test_keyed_and_keyless_sends_pick_the_same_partitions(self):
        """Partitioning by the resolved writers' count is partitioning by
        the topic's partition count."""
        cluster = _cluster()
        plain = Producer(cluster)
        idempotent = Producer(_cluster(), idempotent=True)
        for i in range(12):
            key = f"k{i % 5}" if i % 3 else None
            assert plain.send("t", i, key=key)[0] \
                == idempotent.send("t", i, key=key)[0]

    def test_unknown_topic_and_partition(self):
        producer = Producer(_cluster())
        with pytest.raises(TopicNotFound):
            producer.send("nope", 0)
        # a send picks a partition that exists; the append primitive
        # under the writers refuses one that does not
        for partition in (2, -1):
            with pytest.raises(PartitionNotFound):
                producer.cluster.append_row("t", partition, 0, None, 0.0,
                                            None)


class TestChaosWriters:
    def _producer(self, *specs):
        base = _cluster()
        injector = FaultInjector(FaultPlan(specs=specs))
        return Producer(ChaosLogCluster(base, injector)), base, injector

    def test_partition_unavailable_reaches_a_plain_send(self):
        producer, base, injector = self._producer(
            FaultSpec("partition_unavailable", SITE_APPEND, at=2, count=2))
        outcomes = []
        for i in range(6):
            try:
                outcomes.append(producer.send("t", i, key=KEY0)[1])
            except BrokerDown:
                outcomes.append("down")
        assert outcomes == [0, 1, "down", "down", 2, 3]
        assert [e.kind for e in injector.trace] \
            == ["partition_unavailable"] * 2

    def test_torn_append_reaches_a_plain_send(self):
        producer, base, injector = self._producer(
            FaultSpec("torn_append", SITE_APPEND, at=1))
        producer.send("t", 0, key=KEY0)
        with pytest.raises(BrokerDown, match="append applied"):
            producer.send("t", 1, key=KEY0)
        assert base.end_offset("t", 0) == 2
        assert producer.send("t", 2, key=KEY0) == (0, 2)

    def test_broker_events_between_cached_sends(self):
        first, _ = _cluster().partition_state("t", 0).replica_brokers
        producer, base, _ = self._producer(
            FaultSpec("broker_down", SITE_APPEND, at=1, count=2,
                      param=first))
        coords = [producer.send("t", i, key=KEY0) for i in range(5)]
        assert coords == [(0, i) for i in range(5)]
        for broker in base.partition_state("t", 0).isr:
            assert _log(base, broker) == [(i, i) for i in range(5)]
