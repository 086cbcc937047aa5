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
from ..util.errors import ConfigError
from .batch import RecordBatch

__all__ = ["log_source", "parallel_log_source"]


def _fetch_batch(consumer: Consumer) -> RecordBatch | None:
    """The one fetch path of both sources: poll column chunks until the
    assignment is exhausted and encode them as one
    :class:`RecordBatch`, without a per-row object.

    The batch is what ``RecordBatch.from_elements`` gives over the rows
    as Elements, ordered by (timestamp, partition, offset); ``None``
    when nothing was fetched.  NaN timestamps order last.
    """
    parts: list[int] = []
    counts: list[int] = []
    offsets: list[int] = []
    timestamps: Any = []
    values: list = []
    keys: list = []
    while chunks := consumer.poll_columns(4096):
        for p, offs, ts, vals, ks in chunks:
            parts.append(p)
            counts.append(len(offs))
            offsets += offs
            timestamps += ts
            values += vals
            keys += ks
    if not timestamps:
        return None
    timestamps = np.asarray(timestamps, dtype=np.float64)
    off_col = np.asarray(offsets, dtype=np.int64)
    # One partition read forward with nondecreasing timestamps (the
    # append convention) is already in order.
    if len(set(parts)) > 1 or not (
            bool(np.all(timestamps[1:] >= timestamps[:-1]))
            and bool(np.all(off_col[1:] >= off_col[:-1]))):
        order = np.lexsort((off_col, np.repeat(parts, counts), timestamps))
        picks = order.tolist()
        timestamps = timestamps[order]
        values = [values[i] for i in picks]
        keys = [keys[i] for i in picks]
    return RecordBatch.from_columns(timestamps, values, keys)


def log_source(cluster: LogCluster, topic: str, tracer: Any = None,
               ) -> Callable[[], Iterable[RecordBatch]]:
    """A re-runnable source reading everything retained in ``topic``.

    The bounded replay merges partitions by event timestamp — the moral
    equivalent of Flink's per-partition watermarking, without which
    cross-partition skew makes a single watermark generator drop most of
    the replay as late — into one
    :class:`~repro.streaming.batch.RecordBatch`, which the executor
    splices into its source buffer without re-encoding (a per-item
    executor decodes it).

    The consumer runs with offset dedup on: a broker that re-delivers
    (duplicate delivery under fault injection, a retried fetch) still
    feeds each record into the stream exactly once.
    """

    def iterate() -> Iterable[RecordBatch]:
        consumer = Consumer(cluster, topic, dedup=True, tracer=tracer)
        span = (tracer.start_span(f"log_source:{topic}",
                                  attrs={"topic": topic})
                if tracer is not None else None)
        records = 0
        try:
            batch = _fetch_batch(consumer)
            if batch is not None:
                records = len(batch)
                yield batch
        finally:
            if span is not None:
                span.set_attr("records", records)
                span.end()

    return iterate


def parallel_log_source(cluster: LogCluster, topic: str, *,
                        columnar: bool = True,
                        ) -> tuple[Callable[[int, int],
                                            Iterable[RecordBatch]], int]:
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
    parallel plans.  There is one split per partition, and checkpoints
    store positions per split, so a job over this source rescales
    freely.

    Each split's replay is merged by event timestamp *within the split*
    (cross-split order is the parallel plan's business — watermark
    alignment absorbs the skew) into one batch, which a columnar
    parallel executor keeps as the split buffer.  ``columnar=False`` is
    refused: every source yields batches.
    """
    if not columnar:
        raise ConfigError("every log source yields RecordBatches; "
                          "columnar=False is not supported")
    groups: dict[int, ConsumerGroup] = {}

    def _member(split: int, n: int) -> Consumer:
        group = groups.get(n)
        if group is None:
            group = ConsumerGroup(cluster, topic, f"source-{topic}-{n}")
            for i in range(n):
                group.join(f"split-{i:05d}")
            groups[n] = group
        return group.member(f"split-{split:05d}")

    def split_factory(split: int, n: int) -> Iterable[RecordBatch]:
        member = _member(split, n)
        # Rewind so the factory is re-runnable (restores re-read splits).
        for p in member.partitions:
            member.seek(p, 0)
        batch = _fetch_batch(member)
        return [] if batch is None else [batch]

    return split_factory, cluster.partition_count(topic)
