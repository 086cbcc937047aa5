"""Cross-region topic replication with bounded, observable lag.

A :class:`ReplicatedTopic` asynchronously mirrors one topic from a
source :class:`~repro.eventlog.broker.LogCluster` (the primary region)
into a destination cluster (a standby region), partition by partition
and strictly in order.  The mirror is itself a client of both clusters,
so it composes with broker failures on either side.

Exactly-once mirroring reuses the idempotent-producer machinery
(:meth:`LogCluster.append_idempotent`): every mirrored record carries a
contiguous per-partition sequence number, so a re-pumped batch (e.g.
after a mirror crash and offset rewind) deduplicates to the original
offsets, and a *fenced* epoch bump (:meth:`ReplicatedTopic.fence`)
permanently locks out a zombie mirror incarnation after failover — the
same fencing path transactional sinks use.

Because mirroring preserves order and never duplicates, the destination
partition is always a **prefix** of the source partition: offsets line
up one-to-one.  That is what lets a failed-over job restore a
checkpoint taken against the primary and resume reading the replica at
the same positions.

Lag is first-class: :meth:`lag` reports, per partition, how many source
records the replica has not yet applied; :meth:`pump` drains it to
zero, so a deployment that pumps once per supervision step keeps
replication lag observable *and* bounded by one step's appends.
"""

from __future__ import annotations

from ..util.errors import ConfigError, LogError
from .broker import LogCluster, TopicConfig

__all__ = ["ReplicatedTopic"]

#: the idempotent-producer id every mirrored record is appended under
MIRROR_PRODUCER_ID = 9_000
#: source records read per fetch while pumping
PUMP_BATCH = 256


class ReplicatedTopic:
    """Asynchronous fenced mirror of one topic between two clusters."""

    def __init__(self, source: LogCluster, dest: LogCluster,
                 topic: str) -> None:
        self.source = source
        self.dest = dest
        self.topic = topic
        self.epoch = 0
        self.fenced = False
        config = source.topic_config(topic)
        if topic not in dest.topics():
            dest.create_topic(TopicConfig(name=topic,
                                          partitions=config.partitions))
        elif dest.partition_count(topic) != config.partitions:
            raise ConfigError(
                f"mirror of {topic!r}: destination has "
                f"{dest.partition_count(topic)} partitions, source "
                f"{config.partitions}")
        self.partitions = config.partitions
        #: next source offset to mirror, per partition; because the
        #: replica is a strict prefix, this doubles as the sequence
        #: number of the next mirrored record
        self._positions: dict[int, int] = {
            p: dest.end_offset(topic, p) for p in range(self.partitions)
        }
        self.mirrored = 0

    # -- observability ----------------------------------------------------

    def lag(self) -> dict[int, int]:
        """Per-partition replication lag: source records not yet applied
        to the replica."""
        return {
            p: self.source.end_offset(self.topic, p)
            - self.dest.end_offset(self.topic, p)
            for p in range(self.partitions)
        }

    # -- control ----------------------------------------------------------

    def fence(self) -> int:
        """Fence this incarnation's epoch: any still-running mirror at
        the old epoch gets a ``fenced`` :class:`LogError` on its next
        append.  Called by the region controller at failover, before the
        standby starts serving, so a zombie primary-side mirror can
        never write behind the new deployment's back.  Returns the new
        epoch."""
        self.epoch += 1
        self.fenced = True
        return self.epoch

    def pump(self) -> int:
        """Mirror every pending record, partition by partition.

        Returns the number of records applied to the replica.  Raises
        the underlying :class:`~repro.util.errors.BrokerDown` when a
        side is unavailable (the caller's supervision loop decides what
        that means), and :class:`LogError` once fenced.
        """
        if self.fenced:
            raise LogError(
                f"mirror of {self.topic!r} is fenced at epoch {self.epoch}")
        applied = 0
        for p in range(self.partitions):
            while self.source.end_offset(self.topic, p) > self._positions[p]:
                records = self.source.read(self.topic, p,
                                           self._positions[p], PUMP_BATCH)
                if not records:
                    break
                for offset, record in records:
                    got = self.dest.append_idempotent(
                        self.topic, p, record,
                        producer_id=MIRROR_PRODUCER_ID,
                        sequence=offset, epoch=self.epoch)
                    if got != offset:
                        raise LogError(
                            f"mirror of {self.topic!r}[{p}] diverged: "
                            f"source offset {offset} landed at replica "
                            f"offset {got}")
                    self._positions[p] = offset + 1
                    applied += 1
        self.mirrored += applied
        return applied
