"""Consumers and consumer groups.

A :class:`Consumer` polls assigned partitions with per-partition position
tracking.  A :class:`ConsumerGroup` owns committed offsets and assigns
partitions to members with range assignment, rebalancing on join/leave —
the mechanism behind the horizontal-scaling ablation (exp A2).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import repeat
from typing import Any

from ..util.errors import LogError, OffsetOutOfRange
from ..util.ids import split_ranges
from .broker import LogCluster
from .record import ConsumedRecord

__all__ = ["Consumer", "ConsumerGroup"]


class Consumer:
    """Reads one or more partitions of one topic, a record at a time
    (``poll``) or as per-partition columns (``poll_columns``).

    With ``dedup=True`` the consumer keeps a delivered high-watermark per
    partition and silently drops any fetched record at an offset it has
    already delivered — so a broker that re-delivers (duplicate delivery,
    a fetch retried past an ambiguous failure) still yields each offset
    exactly once downstream.  Positions only move forward.
    """

    def __init__(self, cluster: LogCluster, topic: str,
                 partitions: list[int] | None = None, dedup: bool = False,
                 tracer: Any = None) -> None:
        self.cluster = cluster
        self.topic = topic
        #: optional :class:`repro.obs.trace.Tracer` (duck-typed).  When
        #: set, each delivered record gets a "consume" span parented on
        #: the producer's span via the record's ``traceparent`` header —
        #: the cross-broker-hop causal link.
        self.tracer = tracer
        if partitions is None:
            partitions = list(range(cluster.partition_count(topic)))
        self.partitions = sorted(partitions)
        self.dedup = dedup
        # Every partition is read from its earliest offset.
        self._positions: dict[int, int] = dict.fromkeys(self.partitions, 0)
        # Highest offset + 1 already handed to the caller, per partition.
        self._delivered: dict[int, int] = dict.fromkeys(self.partitions, 0)
        self.consumed = 0
        self.duplicates_dropped = 0

    def position(self, partition: int) -> int:
        try:
            return self._positions[partition]
        except KeyError:
            raise LogError(
                f"partition {partition} not assigned to this consumer"
            ) from None

    def seek(self, partition: int, offset: int) -> None:
        self.position(partition)  # validate assignment
        end = self.cluster.end_offset(self.topic, partition)
        if not 0 <= offset <= end:
            raise OffsetOutOfRange(
                f"{self.topic}[{partition}]: seek to {offset} outside "
                f"[0, {end}]"
            )
        self._positions[partition] = offset
        # An explicit seek is a deliberate rewind: re-delivery from the
        # new position is wanted, so the dedup watermark follows it.
        self._delivered[partition] = offset

    def lag(self, partition: int) -> int:
        """Records between the consumer position and the end offset."""
        return (self.cluster.end_offset(self.topic, partition)
                - self.position(partition))

    def _fetch(self, max_records: int, read: Any) -> list[tuple]:
        """The fetch loop behind :meth:`poll` and :meth:`poll_columns`,
        and the only place positions move.

        ``read(topic, partition, offset, n)`` returns parallel columns,
        offsets first and ascending.  Per assigned partition: fetch, cut
        the already-delivered prefix (``dedup``) and advance — forward
        only, so a fetch that re-delivered older offsets cannot rewind
        us.  Returns one
        ``(partition, *columns)`` chunk per partition that delivered
        anything.  Positions, delivered marks and counters move only
        once every read of a pass has returned: a :class:`BrokerDown`
        from a later partition's read leaves the consumer where it was,
        so a retry re-reads the chunks that pass had already fetched.

        When dedup filters a whole pass (everything was re-delivered)
        the pass is repeated — bounded — so callers that treat an empty
        poll as end-of-partition don't stop early with live data still
        ahead.
        """
        topic = self.topic
        for _ in range(65 if self.dedup else 1):
            chunks: list[tuple] = []
            positions: dict[int, int] = {}
            delivered_to: dict[int, int] = {}
            consumed = duplicates = 0
            fetched_any = False
            remaining = max_records
            for p in self.partitions:
                if remaining <= 0:
                    break
                position = self._positions[p]
                columns = read(topic, p, position, remaining)
                offsets = columns[0]
                n = len(offsets)
                if not n:
                    positions[p] = position
                    continue
                fetched_any = True
                delivered = self._delivered.get(p, position)
                if self.dedup and offsets[0] < delivered:
                    skip = bisect_left(offsets, delivered)
                    duplicates += skip
                    columns = [column[skip:] for column in columns]
                else:
                    skip = 0
                if skip < n:
                    chunks.append((p, *columns))
                    consumed += n - skip
                positions[p] = max(position, offsets[-1] + 1)
                delivered_to[p] = max(delivered, offsets[-1] + 1)
                remaining -= n
            self._positions.update(positions)
            self._delivered.update(delivered_to)
            self.consumed += consumed
            self.duplicates_dropped += duplicates
            if chunks or not fetched_any:
                break
        return chunks

    def poll(self, max_records: int = 512) -> list[ConsumedRecord]:
        """Round-robin fetch across assigned partitions."""
        tracer = self.tracer
        topic = self.topic
        span = None
        if tracer is not None:
            span = tracer.start_span("consume:poll", attrs={"topic": topic})
        out: list[ConsumedRecord] = []
        for p, offsets, timestamps, values, keys, headers in self._fetch(
                max_records, partial(self.cluster.read_columns, headers=True)):
            out.extend(map(ConsumedRecord, repeat(topic), repeat(p), offsets,
                           values, keys, timestamps, headers))
            if tracer is not None:
                for offset, row_headers in zip(offsets, headers):
                    # Parent on the producer's span when the record
                    # carries a traceparent header; otherwise fall back
                    # to the active span (an untraced producer).
                    tracer.start_span(
                        "consume",
                        parent=tracer.parse_traceparent(
                            row_headers.get("traceparent")),
                        attrs={"topic": topic, "partition": p,
                               "offset": offset}).end()
        if span is not None:
            span.set_attr("records", len(out))
            span.end()
        return out

    def poll_columns(self, max_records: int = 512) -> list[tuple]:
        """:meth:`poll` without a :class:`ConsumedRecord` per row: one
        ``(partition, offsets, timestamps, values, keys)`` chunk of
        parallel lists per partition that delivered anything, in the
        order ``poll`` would return the same records.  Same positions,
        same dedup, same counters."""
        if self.tracer is None:
            return self._fetch(max_records, self.cluster.read_columns)
        # A traced consumer owes one "consume" span per record, and
        # those read the record's headers: go through poll().
        chunks: list[tuple] = []
        for rec in self.poll(max_records):
            if not chunks or chunks[-1][0] != rec.partition:
                chunks.append((rec.partition, [], [], [], []))
            _, offsets, timestamps, values, keys = chunks[-1]
            offsets.append(rec.offset)
            timestamps.append(rec.timestamp)
            values.append(rec.value)
            keys.append(rec.key)
        return chunks


class ConsumerGroup:
    """Coordinates members, assignment and committed offsets for a topic."""

    def __init__(self, cluster: LogCluster, topic: str, group_id: str) -> None:
        self.cluster = cluster
        self.topic = topic
        self.group_id = group_id
        self._members: dict[str, Consumer] = {}
        self._committed: dict[int, int] = {}
        self.rebalances = 0

    # -- membership -------------------------------------------------------

    def join(self, member_id: str) -> Consumer:
        if member_id in self._members:
            raise LogError(f"member {member_id!r} already in group")
        self._members[member_id] = None  # type: ignore[assignment]
        self._rebalance()
        return self._members[member_id]

    def _rebalance(self) -> None:
        """Range assignment: contiguous partition slices per member.

        Uses the same ceil-division range formula as streaming key
        groups and source splits (:func:`repro.util.ids.split_ranges`),
        so partition->member, split->subtask and key-group->subtask
        assignment all agree — a parallel source subtask reading via a
        consumer group owns exactly the partitions its split range says.
        """
        self.rebalances += 1
        members = sorted(self._members)
        n_parts = self.cluster.partition_count(self.topic)
        ranges = split_ranges(n_parts, len(members))
        for member_id, assigned_range in zip(members, ranges):
            assigned = list(assigned_range)
            consumer = Consumer(self.cluster, self.topic, assigned)
            for p in assigned:
                if p in self._committed:
                    end = self.cluster.end_offset(self.topic, p)
                    consumer.seek(p, min(self._committed[p], end))
            self._members[member_id] = consumer

    def member(self, member_id: str) -> Consumer:
        try:
            consumer = self._members[member_id]
        except KeyError:
            raise LogError(f"member {member_id!r} not in group") from None
        return consumer

    def members(self) -> list[str]:
        return sorted(self._members)

    # -- offsets ------------------------------------------------------------

    def commit(self, member_id: str) -> None:
        """Commit the member's current positions for its partitions."""
        consumer = self.member(member_id)
        for p in consumer.partitions:
            self._committed[p] = consumer.position(p)

    def committed(self, partition: int) -> int | None:
        return self._committed.get(partition)
