"""Consumer-group rebalance under membership churn.

The invariants a rebalance must keep no matter how members come and go:
every partition is owned by exactly one member (full cover, no double
ownership), and committed offsets survive reassignment so no record is
lost and none is delivered to two owners.
"""

import pytest

from repro.eventlog import Consumer, ConsumerGroup, LogCluster, Producer, TopicConfig
from repro.util.errors import LogError

N_PARTITIONS = 7
N_RECORDS = 70


def _cluster(n_partitions=N_PARTITIONS, n_records=N_RECORDS):
    cluster = LogCluster(3)
    cluster.create_topic(TopicConfig("t", partitions=n_partitions,
                                     replication=2))
    producer = Producer(cluster)
    for i in range(n_records):
        producer.send("t", {"i": i}, key=f"k{i}", timestamp=float(i))
    return cluster


def _assignment(group: ConsumerGroup) -> dict[str, list[int]]:
    return {m: group.member(m).partitions for m in group.members()}


def _assert_exact_cover(group: ConsumerGroup) -> None:
    owned = [p for parts in _assignment(group).values() for p in parts]
    assert sorted(owned) == list(range(N_PARTITIONS)), \
        f"partitions not covered exactly once: {_assignment(group)}"


class TestRebalanceCover:
    def test_cover_through_membership_churn(self):
        group = ConsumerGroup(_cluster(), "t", "g")
        group.join("a")
        _assert_exact_cover(group)
        group.join("b")
        _assert_exact_cover(group)
        group.join("c")
        _assert_exact_cover(group)
        group.join("d")
        group.join("e")
        _assert_exact_cover(group)
        assert group.rebalances == 5

    def test_more_members_than_partitions(self):
        group = ConsumerGroup(_cluster(), "t", "g")
        for m in "abcdefghij":  # 10 members, 7 partitions
            group.join(m)
        _assert_exact_cover(group)
        empty = [m for m, parts in _assignment(group).items() if not parts]
        assert len(empty) == 10 - N_PARTITIONS

    def test_duplicate_join_rejected(self):
        group = ConsumerGroup(_cluster(), "t", "g")
        group.join("a")
        with pytest.raises(LogError):
            group.join("a")


class TestRebalanceOffsets:
    def test_no_record_lost_or_duplicated_across_churn(self):
        cluster = _cluster()
        group = ConsumerGroup(cluster, "t", "g")
        seen: list[tuple[int, int]] = []  # (partition, offset)

        def drain_some(member_id, n):
            records = group.member(member_id).poll(n)
            seen.extend((r.partition, r.offset) for r in records)
            group.commit(member_id)

        group.join("a")
        drain_some("a", 25)
        group.join("b")  # a's progress must hand over via commits
        drain_some("a", 10)
        drain_some("b", 10)
        group.join("c")  # b and c inherit what a had committed
        for member_id in "abc":
            drain_some(member_id, N_RECORDS)

        assert len(seen) == len(set(seen)), "a record was delivered twice"
        expected = {(p, o) for p in range(N_PARTITIONS)
                    for o in range(cluster.end_offset("t", p))}
        assert set(seen) == expected, "a committed record was lost"

    def test_committed_offsets_survive_reassignment(self):
        cluster = _cluster()
        group = ConsumerGroup(cluster, "t", "g")
        group.join("a")
        group.member("a").poll(30)
        group.commit("a")
        committed_before = {p: group.committed(p)
                            for p in range(N_PARTITIONS)
                            if group.committed(p) is not None}
        group.join("b")
        for member in group.members():
            consumer = group.member(member)
            for p in consumer.partitions:
                expected = committed_before.get(p, 0)
                assert consumer.position(p) == expected

    def test_uncommitted_progress_is_replayed_not_lost(self):
        # Work past the last commit is discarded on rebalance: the new
        # owner restarts from the committed offset (at-least-once).
        cluster = _cluster()
        group = ConsumerGroup(cluster, "t", "g")
        group.join("a")
        group.member("a").poll(20)
        group.commit("a")
        group.member("a").poll(20)  # NOT committed
        group.join("b")
        total = sum(group.member(m).lag(p) for m in group.members()
                    for p in group.member(m).partitions)
        committed_total = sum(
            group.committed(p)
            for p in range(N_PARTITIONS) if group.committed(p) is not None)
        assert total == N_RECORDS - committed_total
