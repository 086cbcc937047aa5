"""Unit tests: partition offsets; record sizing; the columnar partition
(and a replicated cluster of them) against a plain list-of-records
model."""

import random

import pytest

from repro.eventlog import (
    LogCluster,
    Partition,
    Producer,
    Record,
    TopicConfig,
    estimate_size,
)
from repro.util.errors import BrokerDown, OffsetOutOfRange


def _record(i, key=None, ts=0.0):
    return Record(value={"i": i}, key=key, timestamp=ts)


class TestRecordSize:
    def test_primitives(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(7) == 8
        assert estimate_size(3.14) == 8
        assert estimate_size("abc") == 3
        assert estimate_size(b"abcd") == 4

    def test_containers(self):
        assert estimate_size([1, 2]) == 18
        assert estimate_size({"a": 1}) == 11

    def test_record_size_includes_key_and_headers(self):
        bare = Record(value="v").size_bytes
        keyed = Record(value="v", key="kk").size_bytes
        headered = Record(value="v", headers={"h": "x"}).size_bytes
        assert keyed == bare + 2
        assert headered == bare + 2

    def test_record_size_is_computed_once(self, monkeypatch):
        from repro.eventlog import record as record_module
        calls = []
        real = record_module.estimate_size
        monkeypatch.setattr(
            record_module, "estimate_size",
            lambda value: calls.append(value) or real(value))
        r = Record(value={"a": 1.0}, key="k", headers={"h": "x"})
        assert r.size_bytes == r.size_bytes == real({"a": 1.0}) + 8 + 1 + 2
        assert sum(1 for value in calls if value is r.value) == 1
        # the cache is not a field: equality ignores it
        assert r == Record(value={"a": 1.0}, key="k", headers={"h": "x"})

    @pytest.mark.parametrize("value", (1.5, float("nan"), 7, True, None,
                                       "v", {"a": 1.0}, [1.0]))
    @pytest.mark.parametrize("key", (None, "", "patient:hr", "kä", "键"))
    @pytest.mark.parametrize("headers", ({}, {"h": "x", "seq": "12"}))
    def test_fast_paths_price_the_same_bytes(self, value, key, headers):
        generic = estimate_size(value) + 8
        if key is not None:
            generic += len(key.encode("utf-8"))
        generic += sum(len(k) + len(v) for k, v in headers.items())
        record = Record(value=value, key=key, headers=headers)
        assert record.size_bytes == generic


class TestPartitionAppendRead:
    def test_append_returns_sequential_offsets(self):
        p = Partition("t", 0)
        assert [p.append(_record(i)) for i in range(3)] == [0, 1, 2]
        assert p.end_offset == 3

    def test_read_from_offset(self):
        p = Partition("t", 0)
        for i in range(5):
            p.append(_record(i))
        rows = p.read(2)
        assert [offset for offset, _r in rows] == [2, 3, 4]

    def test_read_at_end_is_empty(self):
        p = Partition("t", 0)
        p.append(_record(0))
        assert p.read(1) == []

    def test_read_past_end_raises(self):
        p = Partition("t", 0)
        with pytest.raises(OffsetOutOfRange):
            p.read(1)

    def test_read_respects_max_records(self):
        p = Partition("t", 0)
        for i in range(10):
            p.append(_record(i))
        assert len(p.read(0, max_records=4)) == 4

    def test_get_single(self):
        p = Partition("t", 0)
        p.append(_record(0))
        p.append(_record(1))
        assert p.get(1).value == {"i": 1}

    def test_size_bytes_tracks_appends(self):
        """A producer prices each row it appends: ``bytes_sent`` is the
        ``size_bytes`` of the records the partition reads back."""
        cluster = LogCluster(num_brokers=1)
        cluster.create_topic(TopicConfig("t", partitions=1))
        producer = Producer(cluster)
        for i in range(3):
            producer.send("t", {"i": i}, key=f"k{i}",
                          headers={"h": "x"} if i else None)
        read = cluster.leader_partition("t", 0).read(0)
        assert producer.bytes_sent == sum(r.size_bytes for _, r in read)
        assert producer.bytes_sent > sum(_record(i).size_bytes
                                         for i in range(3))


class TestClone:
    def test_clone_is_independent(self):
        p = Partition("t", 0)
        p.append(_record(0))
        twin = p.clone()
        p.append(_record(1))
        assert twin.end_offset == 1
        assert p.end_offset == 2


class TestColumnRead:
    def _partition(self, n=6, keyed=False):
        p = Partition("t", 0)
        for i in range(n):
            p.append(_record(i, key=f"k{i % 2}" if keyed else None,
                             ts=i * 0.5))
        return p

    @pytest.mark.parametrize("keyed", (False, True))
    @pytest.mark.parametrize("first", (0, 2))
    def test_read_columns_is_read_transposed(self, keyed, first):
        p = self._partition(keyed=keyed)
        for offset in range(first, p.end_offset + 1):
            for max_records in (1, 2, 100):
                rows = p.read(offset, max_records)
                offsets, timestamps, values, keys = p.read_columns(
                    offset, max_records)
                assert offsets == [o for o, _ in rows]
                assert timestamps == [r.timestamp for _, r in rows]
                assert values == [r.value for _, r in rows]
                assert keys == [r.key for _, r in rows]

    def test_same_range_errors_as_read(self):
        p = self._partition()
        assert p.read_columns(p.end_offset) == ([], [], [], [])
        for offset in (-1, p.end_offset + 1):
            with pytest.raises(OffsetOutOfRange):
                p.read_columns(offset)
            with pytest.raises(OffsetOutOfRange):
                p.read(offset)


# -- the columnar partition against a list-of-records model -------------------

VALUES = (1.5, float("inf"), 7, True, None, "v", "väl", {"a": 1.0}, [1.0, 2],
          b"\x00\x01")
KEYS = (None, None, "", "a", "b", "patient:hr", "kä", "键")
HEADERS = (None, None, {}, {"h": "x"}, {"seq": "12", "tré": "é"})


class ListModel:
    """What a partition is, said the slow way: one ``Record`` per
    offset."""

    def __init__(self):
        self.slots = []

    def clone(self):
        twin = ListModel()
        twin.slots = list(self.slots)
        return twin

    @property
    def end(self):
        return len(self.slots)

    def live(self):
        return list(enumerate(self.slots))

    def append(self, record):
        self.slots.append(record)
        return self.end - 1


def _assert_matches(partition, model):
    live = model.live()
    assert len(partition) == len(live)
    assert partition.end_offset == model.end
    for offset in (-1, model.end + 1):
        with pytest.raises(OffsetOutOfRange):
            partition.read(offset)
        with pytest.raises(OffsetOutOfRange):
            partition.read_columns(offset)
    assert partition.read(model.end) == []
    for start in {0, model.end // 2}:
        for limit in (1, 3, 10_000):
            want = [(o, r) for o, r in live if o >= start][:limit]
            assert partition.read(start, limit) == want
            assert partition.read_columns(start, limit) == (
                [o for o, _ in want], [r.timestamp for _, r in want],
                [r.value for _, r in want], [r.key for _, r in want])
            assert partition.read_columns(start, limit, headers=True)[4] \
                == [r.headers for _, r in want]
    for offset, slot in live:
        assert partition.get(offset) == slot


def _random_record(rng, clock):
    headers = rng.choice(HEADERS)
    return Record(value=rng.choice(VALUES), key=rng.choice(KEYS),
                  timestamp=clock,
                  **({} if headers is None else {"headers": dict(headers)}))


@pytest.mark.parametrize("seed", range(30))
def test_partition_matches_the_list_model(seed):
    rng = random.Random(seed)
    partition, model = Partition("t", 0), ListModel()
    clock = 0.0
    for _ in range(60):
        op = rng.choice(("append", "append", "append_row", "append_row",
                         "clone"))
        if op in ("append", "append_row"):
            for _ in range(rng.randint(1, 6)):
                clock += rng.choice((0.0, 0.5))
                record = _random_record(rng, clock)
                if op == "append":
                    got = partition.append(record)
                else:
                    got = partition.append_row(
                        record.value, record.key, record.timestamp,
                        record.headers)
                assert got == model.append(record)
        else:
            # the clone carries on; the original must not follow it
            frozen, frozen_model = partition, model.clone()
            partition = partition.clone()
            partition.append(Record(value="after-clone", timestamp=clock))
            model.append(Record(value="after-clone", timestamp=clock))
            _assert_matches(frozen, frozen_model)
        _assert_matches(partition, model)


def test_a_read_record_is_a_copy():
    p = Partition("t", 0)
    p.append(Record(value=1.0, key="k", headers={"h": "x"}))
    p.append(Record(value=2.0))
    for _, record in p.read(0):
        record.value = "scribble"
        record.headers["h"] = "scribble"
    assert p.read(0) == [(0, Record(value=1.0, key="k", headers={"h": "x"})),
                         (1, Record(value=2.0))]


@pytest.mark.parametrize("seed", range(10))
def test_followers_hold_the_leaders_columns(seed):
    """Replication 2 with brokers failing and recovering between
    appends: every in-sync replica's columns equal the leader's, and the
    leader equals the model of what was acknowledged."""
    rng = random.Random(seed)
    cluster = LogCluster(num_brokers=3)
    cluster.create_topic(TopicConfig("t", partitions=2, replication=2))
    models = {0: ListModel(), 1: ListModel()}
    # Brokers come back last-down-first: a partition that lost both
    # replicas restarts from whichever comes back first, and only the
    # one that failed last still has every acknowledged row.
    down: list[int] = []
    clock = 0.0
    for _ in range(80):
        op = rng.choice(("append", "append", "append_row", "fail", "recover"))
        if op == "fail" and len(down) < 2:
            broker = rng.choice(sorted(set(range(3)) - set(down)))
            cluster.fail_broker(broker)
            down.append(broker)
        elif op == "recover" and down:
            cluster.recover_broker(down.pop())
        elif op in ("append", "append_row"):
            clock += 0.5
            record = _random_record(rng, clock)
            p = rng.randrange(2)
            try:
                if op == "append":
                    got = cluster.append("t", p, record)
                else:
                    got = cluster.append_row(
                        "t", p, record.value, record.key, record.timestamp,
                        record.headers)
            except BrokerDown:
                assert cluster.partition_state("t", p).leader == -1
                continue
            assert got == models[p].append(record)
        for p, model in models.items():
            state = cluster.partition_state("t", p)
            if state.leader == -1:
                continue
            leader = cluster.brokers[state.leader].replicas[("t", p)]
            _assert_matches(leader, model)
            for b in state.isr:
                replica = cluster.brokers[b].replicas[("t", p)]
                assert replica.read_columns(0, 10_000, headers=True) \
                    == leader.read_columns(0, 10_000, headers=True)
