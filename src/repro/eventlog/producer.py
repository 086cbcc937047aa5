"""Producer: partition selection and append with delivery accounting.

Keyed records hash to a stable partition (so per-key order holds, the
property the streaming engine's key-by relies on); keyless records go
round-robin.  ``send`` returns the (partition, offset) coordinates.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..util.clock import SimClock
from ..util.errors import BrokerDown
from ..util.ids import stable_hash
from ..util.retry import Retrier
from .broker import LogCluster
from .record import Record, record_size

# Re-exported: stable_hash historically lived here and callers import it
# from this module; the implementation moved to util.ids so the
# streaming layer's key groups hash identically without a cross-layer
# import.
__all__ = ["Producer", "stable_hash"]


class Producer:
    """Appends records to a log cluster.

    With ``idempotent=True`` the producer stamps every record with a
    (producer id, per-partition sequence) header and the cluster rejects
    duplicates — so a retry after an ambiguous failure cannot double-
    append (Kafka's idempotent-producer semantics).  ``send`` then
    returns the offset of the *original* append on a duplicate.

    A stable ``producer_id`` turns idempotence into *fencing*: a
    restarted incarnation reuses the same id and bumps the epoch, and the
    cluster rejects appends from the fenced predecessor.  That is the
    foundation of the transactional commit path
    (:meth:`begin_transaction` / :meth:`send_transactional` /
    :meth:`commit_transaction`) used by the streaming layer's
    two-phase-commit sinks: staged records buffer locally and only
    ``commit_transaction`` drives them into the log, each append retried
    idempotently so a broker flap mid-commit cannot tear or duplicate
    the transaction's records.
    """

    _next_producer_id = 0

    def __init__(self, cluster: LogCluster, clock: SimClock | None = None,
                 idempotent: bool = False, tracer: Any = None,
                 producer_id: int | None = None) -> None:
        self.cluster = cluster
        self.clock = clock
        self.idempotent = idempotent
        #: optional :class:`repro.obs.trace.Tracer` (duck-typed, like the
        #: executor's hooks).  When set, every ``send`` opens a "produce"
        #: span and stamps its context into the record's ``traceparent``
        #: header so consumers can parent their spans across the broker
        #: hop (W3C trace-context in miniature).
        self.tracer = tracer
        if producer_id is not None:
            self.producer_id = producer_id
            Producer._next_producer_id = max(Producer._next_producer_id,
                                             producer_id + 1)
        else:
            self.producer_id = Producer._next_producer_id
            Producer._next_producer_id += 1
        self.epoch = 0
        self._sequences: dict[tuple[str, int], int] = {}
        self._round_robin: dict[str, int] = {}
        #: topic -> (cluster generation, its appenders), for the plain
        #: path of :meth:`send`
        self._writers: dict[str, tuple[int, tuple]] = {}
        #: the last idempotent attempt, for :meth:`resend_last`
        self._last_record: tuple[str, int, Record, int, int] | None = None
        self._txn: list[tuple[str, Any, str | None, float | None,
                              dict[str, str]]] | None = None
        self.sent = 0
        self.bytes_sent = 0
        self.duplicates_rejected = 0
        self.retries = 0
        self.txn_commits = 0

    def bump_epoch(self) -> int:
        """Start a new producer incarnation.

        The cluster fences appends from older epochs and resets the
        sequence space, so a restarted producer cannot collide with its
        previous self's in-flight sends."""
        self.epoch += 1
        self._sequences.clear()
        self._last_record = None
        return self.epoch

    def _choose_partition(self, topic: str, key: str | None, n: int) -> int:
        if key is not None:
            return stable_hash(key) % n
        cursor = self._round_robin.get(topic, 0)
        self._round_robin[topic] = cursor + 1
        return cursor % n

    def send(self, topic: str, value: Any, key: str | None = None,
             timestamp: float | None = None,
             headers: Mapping[str, str] | None = None) -> tuple[int, int]:
        """Append one record to the partition its key hashes to (round
        robin for no key); returns (partition, offset)."""
        if timestamp is None:
            timestamp = self.clock.now if self.clock is not None else 0.0
        if self.tracer is None and not self.idempotent:
            # Nothing to stamp: the row's fields go to the replica logs
            # as they are, through the topic's writers resolved once
            # per cluster generation, without a Record in between.
            cached = self._writers.get(topic)
            generation = self.cluster.generation
            if cached is None or cached[0] != generation:
                cached = self._writers[topic] = (
                    generation, self.cluster.appenders(topic))
            writers = cached[1]
            # _choose_partition, with the keyed case inlined
            if key is not None:
                partition = stable_hash(key) % len(writers)
            else:
                partition = self._choose_partition(topic, None, len(writers))
            replicas = writers[partition]
            if replicas is None:
                raise BrokerDown(f"{topic}[{partition}] has no live leader")
            if headers:
                headers = dict(headers)
            offset = replicas[0](value, key, timestamp, headers)
            for follower in replicas[1:]:
                follower(value, key, timestamp, headers)
            self.sent += 1
            self.bytes_sent += record_size(value, key, headers)
            return partition, offset
        partition = self._choose_partition(
            topic, key, self.cluster.partition_count(topic))
        all_headers = dict(headers) if headers else {}
        span = None
        if self.tracer is not None:
            span = self.tracer.start_span(
                "produce", attrs={"topic": topic, "partition": partition})
            all_headers["traceparent"] = span.traceparent
        sequence = None
        if self.idempotent:
            sequence = self._sequences.get((topic, partition), -1) + 1
            self._sequences[(topic, partition)] = sequence
            all_headers["pid"] = str(self.producer_id)
            all_headers["epoch"] = str(self.epoch)
            all_headers["seq"] = str(sequence)
        record = Record(value=value, key=key, timestamp=timestamp,
                        headers=all_headers)
        try:
            if self.idempotent:
                # Remember the attempt *before* the append: an ambiguous
                # failure (applied but the ack was lost) must be safe to
                # retry via resend_last with the same sequence.
                self._last_record = (topic, partition, record, sequence,
                                     self.epoch)
                offset = self.cluster.append_idempotent(
                    topic, partition, record, self.producer_id, sequence,
                    epoch=self.epoch)
            else:
                offset = self.cluster.append(topic, partition, record)
        except Exception as exc:
            if span is not None:
                span.set_attr("error", type(exc).__name__)
                span.end()
            raise
        if span is not None:
            span.set_attr("offset", offset)
            span.end()
        self.sent += 1
        self.bytes_sent += record.size_bytes
        return partition, offset

    def resend_last(self) -> tuple[int, int]:
        """Retry the last idempotent send (e.g. after an ambiguous
        failure); the cluster deduplicates by (producer, epoch, seq)."""
        if not self.idempotent:
            raise ValueError("resend_last requires an idempotent producer")
        last = self._last_record
        if last is None:
            raise ValueError("nothing sent yet")
        topic, partition, record, sequence, epoch = last
        span = None
        if self.tracer is not None:
            # The record keeps its original traceparent: a retry is the
            # same logical produce, so consumers still parent on the
            # first attempt's span.
            span = self.tracer.start_span(
                "produce:retry",
                attrs={"topic": topic, "partition": partition,
                       "seq": sequence})
        try:
            offset = self.cluster.append_idempotent(
                topic, partition, record, self.producer_id, sequence,
                epoch=epoch)
        except Exception as exc:
            if span is not None:
                span.set_attr("error", type(exc).__name__)
                span.end()
            raise
        if span is not None:
            span.set_attr("offset", offset)
            span.end()
        self.duplicates_rejected += 1
        return partition, offset

    def send_with_retry(self, topic: str, value: Any, key: str | None = None,
                        timestamp: float | None = None,
                        headers: Mapping[str, str] | None = None,
                        ) -> tuple[int, int]:
        """``send`` with capped-backoff retries on :class:`BrokerDown`.

        For an idempotent producer the retries go through
        :meth:`resend_last`, so the sequence number is claimed once and
        an append that *applied* before the failure deduplicates instead
        of double-appending — at-least-once delivery with effectively-
        once log contents.  Non-idempotent producers simply re-send.
        """
        retrier = Retrier(clock=self.clock)
        state = {"started": False}

        def _attempt() -> tuple[int, int]:
            if state["started"] and self.idempotent:
                return self.resend_last()
            state["started"] = True
            return self.send(topic, value, key=key, timestamp=timestamp,
                             headers=headers)

        try:
            return retrier.call(_attempt, retry_on=(BrokerDown,))
        finally:
            self.retries += retrier.retries

    def send_batch(self, topic: str, values: list[Any],
                   key_fn=None) -> list[tuple[int, int]]:
        """Append many records; ``key_fn(value) -> key`` is optional."""
        coords = []
        for value in values:
            key = key_fn(value) if key_fn is not None else None
            coords.append(self.send(topic, value, key=key))
        return coords

    # -- transactional commit path -------------------------------------------

    def begin_transaction(self) -> None:
        """Open a transaction; requires an idempotent producer (the
        commit relies on sequence dedup to survive broker flaps)."""
        if not self.idempotent:
            raise ValueError("transactions require an idempotent producer")
        if self._txn is not None:
            raise ValueError("transaction already open")
        self._txn = []

    def send_transactional(self, topic: str, value: Any,
                           key: str | None = None,
                           timestamp: float | None = None,
                           headers: Mapping[str, str] | None = None) -> None:
        """Stage one record into the open transaction.  Nothing reaches
        the cluster until :meth:`commit_transaction`."""
        if self._txn is None:
            raise ValueError("no open transaction")
        self._txn.append((topic, value, key, timestamp,
                          dict(headers or {})))

    def commit_transaction(self) -> list[tuple[int, int]]:
        """Drive every staged record into the log and close the
        transaction; returns their (partition, offset) coordinates.

        Each append goes through :meth:`send_with_retry`, so an
        ambiguous broker failure mid-commit deduplicates on retry rather
        than tearing the transaction.  A fenced epoch (another
        incarnation took over) surfaces as the underlying
        :class:`~repro.util.errors.LogError` — the caller must not
        retry a fenced commit.
        """
        if self._txn is None:
            raise ValueError("no open transaction")
        staged, self._txn = self._txn, None
        coords = []
        for topic, value, key, timestamp, headers in staged:
            coords.append(self.send_with_retry(
                topic, value, key=key, timestamp=timestamp, headers=headers))
        self.txn_commits += 1
        return coords
