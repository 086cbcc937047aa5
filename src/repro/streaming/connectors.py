"""Connectors between the event log and the streaming engine.

``log_source`` adapts an event-log topic into a stream source: each
retained record becomes a row (decoded: an :class:`Element`) whose
timestamp is the record's event timestamp and whose key is the record
key.  Output goes back to a topic exactly once through
:class:`~repro.streaming.txn_sink.TransactionalLogSink`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

from ..eventlog.broker import LogCluster
from ..eventlog.consumer import Consumer, ConsumerGroup
from .batch import RecordBatch
from .element import Element

__all__ = ["log_source", "parallel_log_source"]


def _fetch_batch(consumer: Consumer, max_records: int, *, drain: bool,
                 time_ordered: bool) -> RecordBatch | None:
    """The one fetch path of both sources: poll column chunks — once,
    or with ``drain`` until the assignment is exhausted — and encode
    them as one :class:`RecordBatch`, without a per-row object.

    The batch is what ``RecordBatch.from_elements`` gives over the rows
    as Elements, ordered (``time_ordered``) by (timestamp, partition,
    offset); ``None`` when nothing was fetched.  NaN timestamps order
    last.
    """
    parts: list[int] = []
    counts: list[int] = []
    offsets: list[int] = []
    timestamps: Any = []
    values: list = []
    keys: list = []
    while True:
        chunks = consumer.poll_columns(max_records)
        for p, offs, ts, vals, ks in chunks:
            parts.append(p)
            counts.append(len(offs))
            offsets += offs
            timestamps += ts
            values += vals
            keys += ks
        if not chunks or not drain:
            break
    if not timestamps:
        return None
    if time_ordered:
        timestamps = np.asarray(timestamps, dtype=np.float64)
        off_col = np.asarray(offsets, dtype=np.int64)
        # One partition read forward with nondecreasing timestamps (the
        # append convention) is already in order.
        if len(set(parts)) > 1 or not (
                bool(np.all(timestamps[1:] >= timestamps[:-1]))
                and bool(np.all(off_col[1:] >= off_col[:-1]))):
            order = np.lexsort((off_col, np.repeat(parts, counts),
                                timestamps))
            picks = order.tolist()
            timestamps = timestamps[order]
            values = [values[i] for i in picks]
            keys = [keys[i] for i in picks]
    return RecordBatch.from_columns(timestamps, values, keys)


def log_source(cluster: LogCluster, topic: str,
               partitions: list[int] | None = None,
               time_ordered: bool = True, tracer: Any = None,
               columnar: bool = True,
               ) -> Callable[[], Iterable[Element | RecordBatch]]:
    """A re-runnable source reading everything retained in ``topic``.

    With ``time_ordered`` (the default) the bounded replay merges
    partitions by event timestamp — the moral equivalent of Flink's
    per-partition watermarking, without which cross-partition skew makes
    a single watermark generator drop most of the replay as late.  Pass
    ``time_ordered=False`` to get raw partition-grouped order (useful
    for studying exactly that effect, as experiment A3 does).

    The consumer runs with offset dedup on: a broker that re-delivers
    (duplicate delivery under fault injection, a retried fetch) still
    feeds each record into the stream exactly once.

    With ``columnar`` (the default) the source materializes
    :class:`~repro.streaming.batch.RecordBatch` runs (one per fetch
    batch unordered, one for the whole replay when time-ordered) — the
    executor splices them into its source buffer without re-encoding,
    and a per-item executor decodes them.  ``columnar=False`` yields
    the same stream as loose Elements.
    """

    def iterate() -> Iterable[Element | RecordBatch]:
        consumer = Consumer(cluster, topic, partitions, start="earliest",
                            dedup=True, tracer=tracer)
        span = (tracer.start_span(f"log_source:{topic}",
                                  attrs={"topic": topic})
                if tracer is not None else None)
        records = 0
        try:
            # Unordered: one batch per fetch; time-ordered: the whole
            # replay in one.
            while True:
                batch = _fetch_batch(
                    consumer, 4096 if time_ordered else 1024,
                    drain=time_ordered, time_ordered=time_ordered)
                if batch is None:
                    break
                records += len(batch)
                if columnar:
                    yield batch
                else:
                    yield from batch.to_elements()
                if time_ordered:
                    break  # the drain polled to the end already
        finally:
            if span is not None:
                span.set_attr("records", records)
                span.end()

    return iterate


def parallel_log_source(cluster: LogCluster, topic: str,
                        *, splits: int | None = None,
                        group_id: str | None = None,
                        time_ordered: bool = True, tracer: Any = None,
                        columnar: bool = True,
                        ) -> tuple[Callable[[int, int],
                                            Iterable[Element | RecordBatch]],
                                   int]:
    """A split-aware source over ``topic``, fanned out via a consumer
    group: returns ``(split_factory, num_splits)`` for
    :meth:`~repro.streaming.graph.JobBuilder.source`::

        factory, n = parallel_log_source(cluster, "gps")
        builder.source("gps", splits=n, split_factory=factory)

    Each split is a consumer-group member; range assignment hands it a
    contiguous partition slice (the same ceil-division formula as
    streaming key groups, see :meth:`ConsumerGroup._rebalance`), so
    split -> partition ownership is deterministic and, because the
    producer routes a key to a fixed partition, **key-aligned**: a key's
    records always land in the same split, preserving per-key order in
    parallel plans.  Splits default to the topic's partition count — one
    partition per split — and checkpoints store positions per split, so
    a job over this source rescales freely.

    With ``time_ordered`` each split's replay is merged by event
    timestamp *within the split* (cross-split order is the parallel
    plan's business — watermark alignment absorbs the skew).
    ``columnar`` is as for :func:`log_source`: one batch per split, or
    the split's Elements.
    """
    num_splits = (splits if splits is not None
                  else cluster.partition_count(topic))
    gid = group_id if group_id is not None else f"source-{topic}"
    groups: dict[int, ConsumerGroup] = {}

    def _member(split: int, n: int) -> Consumer:
        group = groups.get(n)
        if group is None:
            group = ConsumerGroup(cluster, topic, f"{gid}-{n}")
            for i in range(n):
                group.join(f"split-{i:05d}")
            groups[n] = group
        return group.member(f"split-{split:05d}")

    def split_factory(split: int,
                      n: int) -> Iterable[Element | RecordBatch]:
        member = _member(split, n)
        span = (tracer.start_span(f"log_source:{topic}[{split}]",
                                  attrs={"topic": topic, "split": split})
                if tracer is not None else None)
        # Rewind so the factory is re-runnable (restores re-read splits).
        for p in member.partitions:
            member.seek(p, 0)
        batch = _fetch_batch(member, 4096, drain=True,
                             time_ordered=time_ordered)
        if span is not None:
            span.set_attr("records", 0 if batch is None else len(batch))
            span.end()
        if batch is None:
            return []
        # One batch per split: a columnar parallel executor keeps it as
        # the split buffer.
        return [batch] if columnar else batch.to_elements()

    return split_factory, num_splits
