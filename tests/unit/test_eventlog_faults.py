"""Event-log faults: retries, torn appends, duplicates, epoch fencing."""

import pytest

from repro.chaos import (
    SITE_APPEND,
    SITE_FETCH,
    ChaosLogCluster,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.eventlog.broker import LogCluster, TopicConfig
from repro.eventlog.consumer import Consumer
from repro.eventlog.producer import Producer
from repro.util.clock import SimClock
from repro.util.errors import BrokerDown, LogError, RetryExhausted


def _cluster(partitions=2):
    cluster = LogCluster(num_brokers=3)
    cluster.create_topic(TopicConfig("t", partitions=partitions,
                                     replication=2))
    return cluster


def _chaos(specs, partitions=2):
    cluster = _cluster(partitions)
    injector = FaultInjector(FaultPlan(specs=tuple(specs)))
    return ChaosLogCluster(cluster, injector), cluster


def _drain(consumer, batch=4):
    rows = []
    while True:
        out = consumer.poll(batch)
        if not out:
            return rows
        rows.extend((r.partition, r.offset) for r in out)


class TestRetryOnUnavailable:
    def test_send_with_retry_rides_out_unavailable_window(self):
        chaos, base = _chaos([
            FaultSpec("partition_unavailable", SITE_APPEND, at=3, count=2)])
        producer = Producer(chaos, clock=SimClock(), idempotent=True)
        for i in range(10):
            producer.send_with_retry("t", {"i": i}, key=str(i))
        assert sum(base.end_offset("t", p) for p in range(2)) == 10
        assert producer.retries >= 1

    def test_plain_send_surfaces_broker_down(self):
        chaos, _ = _chaos([
            FaultSpec("partition_unavailable", SITE_APPEND, at=0, count=1)])
        producer = Producer(chaos, clock=SimClock())
        with pytest.raises(BrokerDown):
            producer.send("t", {"i": 0})

    def test_retry_exhaustion_when_window_outlasts_policy(self):
        chaos, _ = _chaos([
            FaultSpec("partition_unavailable", SITE_APPEND, at=0,
                      count=100)])
        producer = Producer(chaos, clock=SimClock(), idempotent=True)
        with pytest.raises(RetryExhausted):
            producer.send_with_retry("t", {"i": 0})


class TestPlainSendUnderFaults:
    """A non-idempotent, untraced ``send`` appends through
    ``append_row``, not ``append``: the proxy has to inject there too.
    Every expected value below was printed by the commit before the log
    stored columns."""

    def _run(self):
        base = LogCluster(num_brokers=3)
        base.create_topic(TopicConfig("t", partitions=2, replication=2))
        injector = FaultInjector(FaultPlan(specs=(
            FaultSpec("torn_append", SITE_APPEND, at=3),
            FaultSpec("partition_unavailable", SITE_APPEND, at=2, count=2,
                      target="t[1]"),
            FaultSpec("broker_down", SITE_APPEND, at=8, count=3, param=0),
        )))
        producer = Producer(ChaosLogCluster(base, injector))
        failed = []
        for i in range(14):
            try:
                producer.send(
                    "t", float(i), key=f"k{i % 5}" if i % 3 else None,
                    timestamp=i * 0.5,
                    headers={"h": str(i)} if i % 4 == 0 else None)
            except BrokerDown as exc:
                failed.append((i, str(exc)))
        return base, injector, producer, failed

    def test_same_sends_fail(self):
        _, _, producer, failed = self._run()
        assert failed == [
            (3, "injected: ack lost for t[1]@1 (append applied)"),
            (8, "injected: t[1] unavailable for appends"),
            (9, "injected: t[1] unavailable for appends")]
        assert (producer.sent, producer.bytes_sent) == (11, 199)

    def test_same_log_on_every_replica(self):
        base, _, _, _ = self._run()
        log = {p: [(o, r.value, r.key, r.timestamp, r.headers)
                   for o, r in base.read("t", p, 0, 100)] for p in range(2)}
        assert log == {
            0: [(0, 0.0, None, 0.0, {"h": "0"}), (1, 2.0, "k2", 1.0, {}),
                (2, 4.0, "k4", 2.0, {"h": "4"}), (3, 5.0, "k0", 2.5, {}),
                (4, 6.0, None, 3.0, {}), (5, 7.0, "k2", 3.5, {}),
                (6, 10.0, "k0", 5.0, {}), (7, 12.0, None, 6.0, {"h": "12"})],
            # offset 1 is the torn append: applied, never acknowledged
            1: [(0, 1.0, "k1", 0.5, {}), (1, 3.0, None, 1.5, {}),
                (2, 11.0, "k1", 5.5, {}), (3, 13.0, "k3", 6.5, {})]}
        for p in range(2):
            leader = base.leader_partition("t", p)
            for b in base.partition_state("t", p).replica_brokers:
                replica = base.brokers[b].replicas[("t", p)]
                assert replica.read(0, 100) == leader.read(0, 100)

    def test_same_counters_and_fault_trace(self):
        _, injector, _, _ = self._run()
        assert [injector.count(SITE_APPEND, ident)
                for ident in (None, "t", "t[0]", "t[1]")] == [14, 14, 8, 6]
        assert injector.trace_tuples() == [
            ("torn_append", "eventlog.append", "*", 3, "torn t[1]"),
            ("broker_down", "eventlog.append", "broker:0", 8, "fail"),
            ("partition_unavailable", "eventlog.append", "t[1]", 2,
             "append t[1]"),
            ("partition_unavailable", "eventlog.append", "t[1]", 3,
             "append t[1]"),
            ("broker_down", "eventlog.append", "broker:0", 11, "recover")]


class TestTornAppend:
    def test_idempotent_retry_is_exactly_once(self):
        # The ack is lost but the append applied: resend deduplicates.
        chaos, base = _chaos([FaultSpec("torn_append", SITE_APPEND, at=4)],
                             partitions=1)
        producer = Producer(chaos, clock=SimClock(), idempotent=True)
        for i in range(10):
            producer.send_with_retry("t", {"i": i})
        assert base.end_offset("t", 0) == 10
        assert producer.duplicates_rejected == 1
        values = [r.value["i"] for _, r in base.read("t", 0, 0, 100)]
        assert values == list(range(10))

    def test_non_idempotent_retry_double_appends(self):
        # The control: without sequences the same retry duplicates.
        chaos, base = _chaos([FaultSpec("torn_append", SITE_APPEND, at=4)],
                             partitions=1)
        producer = Producer(chaos, clock=SimClock(), idempotent=False)
        for i in range(10):
            producer.send_with_retry("t", {"i": i})
        assert base.end_offset("t", 0) == 11
        values = [r.value["i"] for _, r in base.read("t", 0, 0, 100)]
        assert values.count(4) == 2


class TestDuplicateDelivery:
    def test_plain_consumer_sees_duplicates(self):
        chaos, base = _chaos([], partitions=1)
        Producer(base, clock=SimClock()).send_batch(
            "t", [{"i": i} for i in range(12)])
        chaos, _ = (ChaosLogCluster(base, FaultInjector(FaultPlan(specs=(
            FaultSpec("duplicate_delivery", SITE_FETCH, at=1, param=3),)))),
            base)
        rows = _drain(Consumer(chaos, "t"))
        assert len(rows) > 12
        assert len(set(rows)) == 12

    def test_dedup_consumer_is_effectively_once(self):
        base = _cluster(partitions=1)
        Producer(base, clock=SimClock()).send_batch(
            "t", [{"i": i} for i in range(12)])
        chaos = ChaosLogCluster(base, FaultInjector(FaultPlan(specs=(
            FaultSpec("duplicate_delivery", SITE_FETCH, at=1, param=3),))))
        consumer = Consumer(chaos, "t", dedup=True)
        rows = _drain(consumer)
        assert rows == [(0, i) for i in range(12)]
        assert consumer.duplicates_dropped > 0

    def test_dedup_does_not_suppress_explicit_seek(self):
        base = _cluster(partitions=1)
        Producer(base, clock=SimClock()).send_batch(
            "t", [{"i": i} for i in range(6)])
        consumer = Consumer(base, "t", dedup=True)
        assert len(_drain(consumer)) == 6
        consumer.seek(0, 2)
        assert [o for _, o in _drain(consumer)] == [2, 3, 4, 5]

    def test_a_failed_later_partition_read_loses_no_earlier_chunk(self):
        # partition 0's read returns, partition 1's raises BrokerDown:
        # the retry must re-read partition 0 too, not skip past it
        base = _cluster(partitions=2)
        for p in (0, 1):
            for i in range(4):
                base.append_row("t", p, {"p": p, "i": i}, None, 0.0, None)
        chaos = ChaosLogCluster(base, FaultInjector(FaultPlan(specs=(
            FaultSpec("partition_unavailable", SITE_FETCH, at=1,
                      count=1),))))
        consumer = Consumer(chaos, "t", dedup=True)
        with pytest.raises(BrokerDown):
            consumer.poll(100)
        assert [consumer.position(p) for p in (0, 1)] == [0, 0]
        rows = consumer.poll(100)
        assert sorted((r.partition, r.offset) for r in rows) \
            == [(p, o) for p in (0, 1) for o in range(4)]
        assert [consumer.position(p) for p in (0, 1)] \
            == [base.end_offset("t", p) for p in (0, 1)] == [4, 4]
        assert consumer.consumed == 8
        assert consumer.poll(100) == []


class TestEpochFencing:
    def test_old_epoch_is_fenced(self):
        cluster = _cluster(partitions=1)
        producer = Producer(cluster, clock=SimClock(), idempotent=True)
        producer.send("t", {"i": 0})
        record = cluster.read("t", 0, 0, 1)[0][1]
        producer.bump_epoch()
        producer.send("t", {"i": 1})
        # A zombie with the pre-bump epoch can no longer append.
        with pytest.raises(LogError, match="fenced"):
            cluster.append_idempotent("t", 0, record,
                                      producer.producer_id, 1, epoch=0)

    def test_bump_resets_sequence_space(self):
        cluster = _cluster(partitions=1)
        producer = Producer(cluster, clock=SimClock(), idempotent=True)
        for i in range(3):
            producer.send("t", {"i": i})
        producer.bump_epoch()
        # Sequences restart at 0 in the new epoch without a gap error.
        partition, offset = producer.send("t", {"i": 3})
        assert (partition, offset) == (0, 3)

    def test_same_epoch_duplicate_still_dedups(self):
        cluster = _cluster(partitions=1)
        producer = Producer(cluster, clock=SimClock(), idempotent=True)
        _, first = producer.send("t", {"i": 0})
        _, again = producer.resend_last()
        assert first == again
        assert cluster.end_offset("t", 0) == 1
