"""Unit tests: log cluster, replication, failover, producer/consumer."""

import pytest

from repro.eventlog import (
    Consumer,
    ConsumerGroup,
    LogCluster,
    Producer,
    TopicConfig,
    stable_hash,
)
from repro.util.errors import (
    BrokerDown,
    ConfigError,
    LogError,
    OffsetOutOfRange,
    TopicExists,
    TopicNotFound,
)


def _cluster(brokers=3, partitions=4, replication=2, name="t"):
    cluster = LogCluster(num_brokers=brokers)
    cluster.create_topic(TopicConfig(name, partitions=partitions,
                                     replication=replication))
    return cluster


class TestTopics:
    def test_create_and_list(self):
        cluster = _cluster()
        assert cluster.topics() == ["t"]
        assert cluster.partition_count("t") == 4

    def test_duplicate_topic_rejected(self):
        cluster = _cluster()
        with pytest.raises(TopicExists):
            cluster.create_topic(TopicConfig("t"))

    def test_unknown_topic_rejected(self):
        cluster = _cluster()
        with pytest.raises(TopicNotFound):
            cluster.partition_count("nope")

    def test_replication_beyond_brokers_rejected(self):
        cluster = LogCluster(num_brokers=2)
        with pytest.raises(ConfigError):
            cluster.create_topic(TopicConfig("t", replication=3))

    def test_replicas_placed_on_distinct_brokers(self):
        cluster = _cluster()
        for p in range(4):
            state = cluster.partition_state("t", p)
            assert len(set(state.replica_brokers)) == 2

    def test_leaders_spread_across_brokers(self):
        cluster = _cluster(brokers=4, partitions=4)
        leaders = {cluster.partition_state("t", p).leader for p in range(4)}
        assert len(leaders) >= 2


class TestReplicationFailover:
    def test_append_replicates_to_isr(self):
        cluster = _cluster()
        producer = Producer(cluster)
        producer.send("t", {"v": 1}, key="k")
        state = next(cluster.partition_state("t", p) for p in range(4)
                     if cluster.end_offset("t", p) == 1)
        for broker_id in state.replica_brokers:
            log = cluster.brokers[broker_id].replicas[("t", state.index)]
            assert log.end_offset == 1

    def test_failover_preserves_data(self):
        cluster = _cluster()
        producer = Producer(cluster)
        for i in range(40):
            producer.send("t", {"i": i}, key=f"k{i}")
        before = {p: cluster.end_offset("t", p) for p in range(4)}
        cluster.fail_broker(0)
        after = {p: cluster.end_offset("t", p) for p in range(4)}
        assert before == after  # acks=all means no loss

    def test_unavailable_when_all_replicas_down(self):
        cluster = _cluster(brokers=2, partitions=1, replication=2)
        cluster.fail_broker(0)
        cluster.fail_broker(1)
        with pytest.raises(BrokerDown):
            cluster.append("t", 0, __import__(
                "repro.eventlog", fromlist=["Record"]).Record(value=1))

    def test_writes_continue_after_failover(self):
        cluster = _cluster()
        producer = Producer(cluster)
        cluster.fail_broker(0)
        for i in range(20):
            producer.send("t", {"i": i}, key=f"k{i}")
        assert sum(cluster.end_offset("t", p) for p in range(4)) == 20

    def test_recovered_broker_catches_up(self):
        cluster = _cluster()
        producer = Producer(cluster)
        cluster.fail_broker(0)
        for i in range(20):
            producer.send("t", {"i": i}, key=f"k{i}")
        cluster.recover_broker(0)
        for p in range(4):
            state = cluster.partition_state("t", p)
            if 0 not in state.replica_brokers:
                continue
            assert 0 in state.isr
            leader_end = cluster.end_offset("t", p)
            assert cluster.brokers[0].replicas[("t", p)].end_offset == \
                leader_end


class TestProducer:
    def test_keyed_records_stay_on_one_partition(self):
        cluster = _cluster()
        producer = Producer(cluster)
        partitions = {producer.send("t", i, key="fixed")[0]
                      for i in range(20)}
        assert len(partitions) == 1

    def test_keyless_round_robin(self):
        cluster = _cluster()
        producer = Producer(cluster)
        partitions = [producer.send("t", i)[0] for i in range(8)]
        assert partitions == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_stable_hash_is_stable(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash("abc") != stable_hash("abd")


class TestConsumer:
    def test_poll_reads_everything(self):
        cluster = _cluster()
        producer = Producer(cluster)
        for i in range(30):
            producer.send("t", {"i": i}, key=f"k{i}")
        consumer = Consumer(cluster, "t")
        rows = consumer.poll(max_records=100)
        assert len(rows) == 30
        assert [consumer.lag(p) for p in consumer.partitions] == [0] * 4

    def test_poll_resumes_from_position(self):
        cluster = _cluster(partitions=1)
        producer = Producer(cluster)
        for i in range(10):
            producer.send("t", i)
        consumer = Consumer(cluster, "t")
        first = consumer.poll(max_records=4)
        second = consumer.poll(max_records=100)
        assert [r.value for r in first] == [0, 1, 2, 3]
        assert [r.value for r in second] == [4, 5, 6, 7, 8, 9]

    def test_latest_start_skips_history(self):
        cluster = _cluster(partitions=1)
        producer = Producer(cluster)
        producer.send("t", 0)
        consumer = Consumer(cluster, "t")
        consumer.seek(0, cluster.end_offset("t", 0))
        assert consumer.poll() == []
        producer.send("t", 1)
        assert [r.value for r in consumer.poll()] == [1]

    def test_seek_validation(self):
        cluster = _cluster(partitions=1)
        consumer = Consumer(cluster, "t")
        with pytest.raises(OffsetOutOfRange):
            consumer.seek(0, 5)

    def test_lag(self):
        cluster = _cluster(partitions=1)
        producer = Producer(cluster)
        for i in range(5):
            producer.send("t", i)
        consumer = Consumer(cluster, "t")
        assert consumer.lag(0) == 5
        consumer.poll(max_records=2)
        assert consumer.lag(0) == 3


class TestConsumerGroup:
    def test_single_member_gets_all_partitions(self):
        cluster = _cluster()
        group = ConsumerGroup(cluster, "t", "g")
        member = group.join("m1")
        assert member.partitions == [0, 1, 2, 3]

    def test_two_members_split_evenly(self):
        cluster = _cluster()
        group = ConsumerGroup(cluster, "t", "g")
        group.join("m1")
        group.join("m2")
        assert group.member("m1").partitions == [0, 1]
        assert group.member("m2").partitions == [2, 3]

    def test_uneven_split(self):
        cluster = _cluster(partitions=5)
        group = ConsumerGroup(cluster, "t", "g")
        group.join("m1")
        group.join("m2")
        assert group.member("m1").partitions == [0, 1, 2]
        assert group.member("m2").partitions == [3, 4]

    def test_committed_offsets_survive_rebalance(self):
        cluster = _cluster(partitions=2)
        producer = Producer(cluster)
        for i in range(20):
            producer.send("t", i)
        group = ConsumerGroup(cluster, "t", "g")
        group.join("m1")
        group.member("m1").poll(max_records=100)
        group.commit("m1")
        group.join("m2")  # triggers rebalance
        # Both members resume from committed positions: nothing re-read.
        assert [group.member(m).poll() for m in group.members()] == [[], []]

    def test_duplicate_join_rejected(self):
        cluster = _cluster()
        group = ConsumerGroup(cluster, "t", "g")
        group.join("m1")
        with pytest.raises(LogError):
            group.join("m1")

    def test_group_consumes_disjoint_records(self):
        cluster = _cluster()
        producer = Producer(cluster)
        for i in range(40):
            producer.send("t", {"i": i}, key=f"k{i}")
        group = ConsumerGroup(cluster, "t", "g")
        group.join("m1")
        group.join("m2")
        rows = [r for m in group.members() for r in group.member(m).poll(100)]
        seen = [(r.partition, r.offset) for r in rows]
        assert len(seen) == 40
        assert len(set(seen)) == 40
