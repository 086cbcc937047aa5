"""Brokers and the replicated log cluster.

:class:`LogCluster` owns topics; each topic partition has a replica set
spread across brokers with one leader.  Produce goes to the leader and is
synchronously replicated to in-sync followers (acks=all semantics, the
only mode we model — it keeps failover lossless and the simulation
simple).  When a broker fails, leadership moves to the first surviving
in-sync replica; when no replica survives, the partition is unavailable
and producers see :class:`BrokerDown`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..util.errors import (
    BrokerDown,
    ConfigError,
    LogError,
    PartitionNotFound,
    TopicExists,
    TopicNotFound,
)
from .partition import Partition
from .record import Record

__all__ = ["Broker", "TopicConfig", "PartitionState", "LogCluster"]


@dataclass
class Broker:
    """A storage node hosting partition replicas."""

    broker_id: int
    up: bool = True
    # (topic, partition-index) -> replica log
    replicas: dict[tuple[str, int], Partition] = field(default_factory=dict)


@dataclass(frozen=True)
class TopicConfig:
    """Topic creation parameters."""

    name: str
    partitions: int = 1
    replication: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("topic name must be non-empty")
        if self.partitions < 1:
            raise ConfigError("partitions must be >= 1")
        if self.replication < 1:
            raise ConfigError("replication must be >= 1")


@dataclass
class PartitionState:
    """Metadata for one partition: replica placement and leadership."""

    topic: str
    index: int
    replica_brokers: list[int]
    leader: int
    isr: list[int]  # in-sync replicas, leader included


class LogCluster:
    """The control plane: topics, placement, leadership, produce and
    fetch (``read`` rows, ``read_columns`` columns)."""

    def __init__(self, num_brokers: int = 3) -> None:
        if num_brokers < 1:
            raise ConfigError("need at least one broker")
        self.brokers: dict[int, Broker] = {
            i: Broker(broker_id=i) for i in range(num_brokers)
        }
        self._topics: dict[str, TopicConfig] = {}
        self._states: dict[tuple[str, int], PartitionState] = {}
        self._placement_cursor = 0
        # (topic, partition, producer_id) -> (epoch, last sequence, offset)
        self._producer_state: dict[tuple[str, int, int],
                                   tuple[int, int, int]] = {}
        #: bumped whenever leadership, an ISR or a replica log changes
        #: (:meth:`fail_broker`, :meth:`recover_broker`): what
        #: :meth:`appenders` returned stays valid until it moves
        self.generation = 0

    # -- topic management ---------------------------------------------------

    def create_topic(self, config: TopicConfig) -> TopicConfig:
        if config.name in self._topics:
            raise TopicExists(config.name)
        if config.replication > len(self.brokers):
            raise ConfigError(
                f"replication {config.replication} exceeds broker count "
                f"{len(self.brokers)}"
            )
        self._topics[config.name] = config
        broker_ids = sorted(self.brokers)
        for p in range(config.partitions):
            # Round-robin placement with a rotating cursor spreads leaders.
            start = self._placement_cursor % len(broker_ids)
            self._placement_cursor += 1
            replicas = [broker_ids[(start + r) % len(broker_ids)]
                        for r in range(config.replication)]
            for b in replicas:
                self.brokers[b].replicas[(config.name, p)] = Partition(
                    config.name, p)
            self._states[(config.name, p)] = PartitionState(
                topic=config.name, index=p, replica_brokers=replicas,
                leader=replicas[0], isr=list(replicas),
            )
        return config

    def topic_config(self, topic: str) -> TopicConfig:
        try:
            return self._topics[topic]
        except KeyError:
            raise TopicNotFound(topic) from None

    def topics(self) -> list[str]:
        return sorted(self._topics)

    def partition_count(self, topic: str) -> int:
        return self.topic_config(topic).partitions

    def partition_state(self, topic: str, partition: int) -> PartitionState:
        self.topic_config(topic)
        try:
            return self._states[(topic, partition)]
        except KeyError:
            raise PartitionNotFound(f"{topic}[{partition}]") from None

    # -- leadership / failure -------------------------------------------------

    def fail_broker(self, broker_id: int) -> None:
        """Take a broker down and re-elect leaders from surviving ISRs."""
        broker = self._broker(broker_id)
        broker.up = False
        self.generation += 1
        for state in self._states.values():
            if broker_id in state.isr:
                state.isr = [b for b in state.isr if b != broker_id]
            if state.leader == broker_id:
                state.leader = state.isr[0] if state.isr else -1

    def recover_broker(self, broker_id: int) -> None:
        """Bring a broker back; it catches up from leaders and rejoins ISRs."""
        broker = self._broker(broker_id)
        broker.up = True
        self.generation += 1
        for (topic, index), state in self._states.items():
            if broker_id not in state.replica_brokers:
                continue
            if state.leader == -1:
                # Whole partition was offline; the recovering replica's log
                # is authoritative again.
                state.leader = broker_id
                state.isr = [broker_id]
                continue
            if broker_id not in state.isr:
                # Catch up by cloning the leader replica's retained state —
                # the simulation shortcut for a follower fetch loop.
                leader_log = self.brokers[state.leader].replicas[(topic, index)]
                broker.replicas[(topic, index)] = leader_log.clone()
                state.isr.append(broker_id)

    def _broker(self, broker_id: int) -> Broker:
        try:
            return self.brokers[broker_id]
        except KeyError:
            raise LogError(f"unknown broker {broker_id}") from None

    # -- data plane -------------------------------------------------------------

    def leader_partition(self, topic: str, partition: int) -> Partition:
        state = self.partition_state(topic, partition)
        if state.leader == -1 or not self.brokers[state.leader].up:
            raise BrokerDown(f"{topic}[{partition}] has no live leader")
        return self.brokers[state.leader].replicas[(topic, partition)]

    def append_row(self, topic: str, partition: int, value: Any,
                   key: str | None, timestamp: float,
                   headers: Mapping[str, str] | None, size: int) -> int:
        """Leader append + synchronous ISR replication of one row's
        fields; returns its offset.  The one append primitive — every
        other append shape ends here.  ``size`` is
        ``record_size(value, key, headers)``."""
        tp = (topic, partition)
        state = self._states.get(tp) or self.partition_state(topic, partition)
        brokers = self.brokers
        leader = state.leader
        if leader == -1 or not brokers[leader].up:
            raise BrokerDown(f"{topic}[{partition}] has no live leader")
        offset = brokers[leader].replicas[tp].append_row(
            value, key, timestamp, headers, size)
        for b in state.isr:
            if b == leader:
                continue
            follower = brokers[b]
            if follower.up:
                follower.replicas[tp].append_row(
                    value, key, timestamp, headers, size)
        return offset

    def appenders(self, topic: str
                  ) -> tuple[tuple[Callable[..., int], ...] | None, ...]:
        """:meth:`append_row` resolved once for many rows: per partition
        of ``topic``, the ``append_row(value, key, timestamp, headers,
        size)`` of every live in-sync replica log, leader first (the
        leader's returns the offset), or None for a partition with no
        live leader.  Valid while :attr:`generation` is unchanged."""
        config = self.topic_config(topic)
        brokers = self.brokers
        out: list[tuple[Callable[..., int], ...] | None] = []
        for p in range(config.partitions):
            tp = (topic, p)
            state = self._states[tp]
            leader = state.leader
            if leader == -1 or not brokers[leader].up:
                out.append(None)
                continue
            out.append((brokers[leader].replicas[tp].append_row,) + tuple(
                brokers[b].replicas[tp].append_row for b in state.isr
                if b != leader and brokers[b].up))
        return tuple(out)

    def append(self, topic: str, partition: int, record: Record) -> int:
        """:meth:`append_row` of the record's fields."""
        return self.append_row(topic, partition, record.value, record.key,
                               record.timestamp, record.headers,
                               record.size_bytes)

    def append_idempotent(self, topic: str, partition: int, record: Record,
                          producer_id: int, sequence: int,
                          epoch: int = 0) -> int:
        """Deduplicating append: (producer, epoch, sequence) seen before on
        the partition returns the original offset; a gap is an error.

        Epochs fence zombie producers: a bumped epoch resets the sequence
        space, and appends from an older epoch are rejected outright.
        """
        key = (topic, partition, producer_id)
        last_epoch, last_seq, last_offset = self._producer_state.get(
            key, (-1, -1, -1))
        if epoch < last_epoch:
            raise LogError(
                f"fenced: producer {producer_id} epoch {epoch} is older "
                f"than {last_epoch} on {topic}[{partition}]")
        if epoch > last_epoch:
            # New incarnation: its sequence numbering starts over.
            last_seq, last_offset = -1, -1
        if sequence <= last_seq:
            if sequence == last_seq:
                return last_offset  # the retry case: already appended
            raise LogError(
                f"stale sequence {sequence} (last {last_seq}) from "
                f"producer {producer_id} on {topic}[{partition}]")
        if sequence != last_seq + 1:
            raise LogError(
                f"sequence gap from producer {producer_id} on "
                f"{topic}[{partition}]: got {sequence}, expected "
                f"{last_seq + 1}")
        offset = self.append(topic, partition, record)
        self._producer_state[key] = (epoch, sequence, offset)
        return offset

    def read(self, topic: str, partition: int, offset: int,
             max_records: int = 512):
        """Fetch from the leader replica."""
        return self.leader_partition(topic, partition).read(offset, max_records)

    def read_columns(self, topic: str, partition: int, offset: int,
                     max_records: int = 512, headers: bool = False):
        """:meth:`read` as ``(offsets, timestamps, values, keys)``, plus
        a headers column with ``headers=True``."""
        return self.leader_partition(topic, partition).read_columns(
            offset, max_records, headers)

    def end_offset(self, topic: str, partition: int) -> int:
        return self.leader_partition(topic, partition).end_offset
