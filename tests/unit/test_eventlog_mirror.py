"""Unit tests: cross-region topic mirroring — prefix property, bounded
observable lag, idempotent re-pump, epoch fencing, crash resync."""

import pytest

from repro.eventlog import (
    LogCluster,
    Producer,
    Record,
    ReplicatedTopic,
    TopicConfig,
)
from repro.eventlog.mirror import MIRROR_PRODUCER_ID
from repro.util.errors import ConfigError, LogError


def _clusters(partitions: int = 2):
    source = LogCluster(num_brokers=1)
    source.create_topic(TopicConfig(name="t", partitions=partitions))
    dest = LogCluster(num_brokers=1)
    return source, dest


def _produce(source: LogCluster, n: int, partitions: int = 2) -> None:
    for i in range(n):
        source.append("t", i % partitions, Record(value=i, key=str(i)))


def _contents(cluster: LogCluster, partition: int) -> list:
    end = cluster.end_offset("t", partition)
    return [r.value for _o, r in cluster.read("t", partition, 0, end or 1)]


class TestMirrorBasics:
    def test_replica_is_prefix_with_aligned_offsets(self):
        source, dest = _clusters()
        mirror = ReplicatedTopic(source, dest, "t")
        _produce(source, 10)
        applied = mirror.pump()
        assert applied == 10
        for p in (0, 1):
            assert _contents(dest, p) == _contents(source, p)
            assert dest.end_offset("t", p) == source.end_offset("t", p)

    def test_creates_destination_topic(self):
        source, dest = _clusters(partitions=3)
        ReplicatedTopic(source, dest, "t")
        assert dest.partition_count("t") == 3

    def test_partition_count_mismatch_rejected(self):
        source, dest = _clusters(partitions=3)
        dest.create_topic(TopicConfig(name="t", partitions=2))
        with pytest.raises(ConfigError):
            ReplicatedTopic(source, dest, "t")


class TestLag:
    def test_lag_observable_before_pump(self):
        source, dest = _clusters()
        mirror = ReplicatedTopic(source, dest, "t")
        _produce(source, 6)
        assert mirror.lag() == {0: 3, 1: 3}
        assert max(mirror.lag().values()) == 3
        mirror.pump()
        assert max(mirror.lag().values()) == 0

    def test_incremental_pump_cadence(self):
        source, dest = _clusters()
        mirror = ReplicatedTopic(source, dest, "t")
        for round_ in range(4):
            _produce(source, 4)
            mirror.pump()
            assert max(mirror.lag().values()) == 0
        assert mirror.mirrored == 16


class TestExactlyOnce:
    def test_resync_after_crash_never_duplicates(self):
        source, dest = _clusters()
        mirror = ReplicatedTopic(source, dest, "t")
        _produce(source, 8)
        mirror.pump()
        # a restarted mirror derives its positions from the replica
        restarted = ReplicatedTopic(source, dest, "t")
        _produce(source, 4)
        restarted.pump()
        for p in (0, 1):
            assert _contents(dest, p) == _contents(source, p)


class TestFencing:
    def test_fenced_mirror_cannot_pump(self):
        source, dest = _clusters()
        mirror = ReplicatedTopic(source, dest, "t")
        _produce(source, 4)
        mirror.fence()
        with pytest.raises(LogError):
            mirror.pump()

    def test_zombie_incarnation_fenced_by_broker(self):
        """A newer epoch on the same producer id locks out appends from
        the older one at the broker itself."""
        source, dest = _clusters(partitions=1)
        zombie = ReplicatedTopic(source, dest, "t")
        _produce(source, 2, partitions=1)
        zombie.pump()
        # failover: a controller-side bump writes at a newer epoch
        dest.append_idempotent("t", 0, Record(value="fence-marker"),
                               producer_id=MIRROR_PRODUCER_ID,
                               sequence=0, epoch=zombie.epoch + 1)
        _produce(source, 2, partitions=1)
        with pytest.raises(LogError, match="fenced"):
            zombie.pump()


class TestProducerInterop:
    def test_mirror_of_producer_traffic(self):
        source, dest = _clusters()
        producer = Producer(source)
        for i in range(20):
            producer.send("t", {"v": i}, key=f"k{i % 5}",
                          timestamp=float(i))
        mirror = ReplicatedTopic(source, dest, "t")
        mirror.pump()
        for p in (0, 1):
            assert dest.end_offset("t", p) == source.end_offset("t", p)
