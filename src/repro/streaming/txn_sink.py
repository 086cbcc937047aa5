"""Two-phase-commit transactional sinks.

Every sink is a 2PC participant.  The coordinated-checkpoint protocol
(see :mod:`repro.streaming.coordinator`) makes sink output exactly-once
this way:

- elements delivered between barriers accumulate in an **open
  transaction** (invisible);
- when barrier *n* has arrived from **every** feeder subtask the open
  transaction **pre-commits** — it is sealed against checkpoint *n* as
  one :class:`~repro.streaming.batch.RecordBatch` in canonical form
  (:meth:`~repro.streaming.batch.RecordBatch.sealed`) and the sink acks
  the coordinator (phase 1);
- when the coordinator finalizes checkpoint *n* the sealed transaction
  **commits** and its elements become visible (phase 2);
- on recovery, uncommitted transactions are truncated and the visible
  output rewinds to exactly what checkpoint *n* recorded — so no
  element is ever exposed twice or lost, for any crash point.

:class:`TransactionalSink` is the in-memory collected sink, the only
kind there is; a run with no coordinator commits each open transaction
at every macro cycle's end (:meth:`TransactionalSink.commit_open`).
:class:`TransactionalLogSink` mirrors committed output into an event-log
topic through a fenced idempotent producer; its resume point is derived
from the topic's end offsets, so a crash *between* checkpoint
finalization and the log append replays the delta idempotently —
end-to-end exactly-once into the log.
"""

from __future__ import annotations

from typing import Any, Hashable

from ..eventlog.broker import LogCluster
from ..eventlog.producer import Producer
from ..util.errors import CheckpointError
from .batch import RecordBatch, batches_of
from .element import Element

__all__ = ["TransactionalSink", "TransactionalLogSink"]


class TransactionalSink:
    """A sink buffer whose output becomes visible only at commit.

    ``feeders`` are the upstream (node, subtask) pairs that merge into
    this sink; the sink pre-commits when each has delivered the barrier.
    Deliveries from feeders that already passed the barrier while others
    lag are staged into the *next* transaction, preserving arrival order
    within each epoch.

    Rows stay columns from delivery to the store: the open transaction
    is a list of delivered batches and loose Elements, a pre-committed
    one is a single sealed batch, and the committed output is one sealed
    batch per non-empty epoch (``batches``).  ``elements`` / ``values``
    decode them on demand.
    """

    def __init__(self, name: str, feeders: tuple[Hashable, ...]) -> None:
        if not feeders:
            raise CheckpointError(f"sink {name!r} has no feeders")
        self.name = name
        self.feeders = tuple(feeders)
        #: committed (visible) output, one sealed batch per epoch
        self.batches: list[RecordBatch] = []
        self._rows = 0
        #: decoded prefix of ``batches`` (how many, and their rows)
        self._decoded = 0
        self._elements: list[Element] = []
        self._staged: list[Any] = []
        self._staged_next: list[Any] = []
        self._barriered: set[Hashable] = set()
        self._barrier_id: int | None = None
        #: pre-committed (sealed) transactions awaiting finalize
        self.pending: dict[int, RecordBatch] = {}
        self.last_committed_id = -1
        self.pre_commits = 0
        self.commits = 0
        self.aborts = 0

    # -- visible output -------------------------------------------------------

    @property
    def elements(self) -> list[Element]:
        """The committed (visible) output, decoded past what an earlier
        call already decoded."""
        if self._decoded < len(self.batches):
            for rb in self.batches[self._decoded:]:
                self._elements.extend(rb.to_elements())
            self._decoded = len(self.batches)
        return self._elements

    @property
    def values(self) -> list[Any]:
        return [v for rb in self.batches for v in rb.values_list()]

    def __len__(self) -> int:
        return self._rows

    def rows_from(self, start: int) -> RecordBatch:
        """Committed rows ``[start:]`` as one batch, undecoded — the
        delta a commit listener has not applied yet."""
        tail: list[RecordBatch] = []
        need = self._rows - start
        for rb in reversed(self.batches):
            if need <= 0:
                break
            n = len(rb)
            tail.append(rb if n <= need else rb.slice(n - need, n))
            need -= n
        if len(tail) == 1:
            return tail[0]
        return RecordBatch.sealed(tail[::-1])

    # -- data plane ----------------------------------------------------------

    def deliver(self, rows: RecordBatch | list[Element],
                feeder: Hashable) -> None:
        """Stage delivered rows — an unpunctuated batch or a run of
        Elements — into the open transaction (or the next one, if this
        feeder already passed the pending barrier)."""
        txn = (self._staged_next
               if self._barrier_id is not None and feeder in self._barriered
               else self._staged)
        if type(rows) is RecordBatch:
            txn.append(rows)
        else:
            txn.extend(rows)

    def on_barrier(self, feeder: Hashable, checkpoint_id: int) -> int | None:
        """Barrier from one feeder.  Returns the checkpoint id when this
        completes phase 1 (pre-commit), else ``None``."""
        if checkpoint_id in self.pending \
                or checkpoint_id <= self.last_committed_id:
            return None  # duplicated/stale marker
        if self._barrier_id is None:
            self._barrier_id = checkpoint_id
            self._barriered = set()
        elif checkpoint_id < self._barrier_id:
            return None  # stale marker from an abandoned checkpoint
        elif checkpoint_id > self._barrier_id:
            # Newer barrier overtakes an abandoned one: restart with the
            # already-staged-next items folded back in arrival order.
            self._staged.extend(self._staged_next)
            self._staged_next = []
            self._barrier_id = checkpoint_id
            self._barriered = set()
        if feeder in self._barriered:
            return None  # duplicated marker
        self._barriered.add(feeder)
        if len(self._barriered) < len(self.feeders):
            return None
        # Phase 1: seal the open transaction against this checkpoint.
        # Sealing gives the batch a dictionary of its own (a delivered
        # slice shares its source's, which later batches append to) and
        # the one form every execution mode arrives at.
        cid = self._barrier_id
        self.pending[cid] = RecordBatch.sealed(self._staged)
        self._staged = self._staged_next
        self._staged_next = []
        self._barrier_id = None
        self._barriered = set()
        self.pre_commits += 1
        return cid

    # -- 2PC phase 2 / abort -------------------------------------------------

    def projected_committed(self, checkpoint_id: int) -> list[RecordBatch]:
        """What ``batches`` will be once ``checkpoint_id`` commits —
        recorded in the checkpoint before phase 2 runs, so recovery is
        correct whether or not the commit itself happened.  O(epochs):
        no row is copied."""
        txn = self.pending.get(checkpoint_id)
        if txn is None:
            raise CheckpointError(
                f"sink {self.name!r} has no pre-committed transaction "
                f"for checkpoint {checkpoint_id}")
        return self.batches + [txn] if len(txn) else list(self.batches)

    def commit(self, checkpoint_id: int) -> int:
        """Phase 2: make the sealed transaction visible."""
        txn = self.pending.pop(checkpoint_id, None)
        if txn is None:
            raise CheckpointError(
                f"sink {self.name!r}: commit for unknown checkpoint "
                f"{checkpoint_id}")
        if len(txn):
            self.batches.append(txn)
            self._rows += len(txn)
        self.last_committed_id = max(self.last_committed_id, checkpoint_id)
        self.commits += 1
        return len(txn)

    def commit_open(self) -> int:
        """Seal and commit the open transaction in one step — a run with
        no coordinator attached, at the end of each macro cycle.
        Returns how many rows became visible."""
        txn = RecordBatch.sealed(self._staged)
        self._staged = []
        if len(txn):
            self.batches.append(txn)
            self._rows += len(txn)
        return len(txn)

    def abort_pending(self, checkpoint_id: int) -> None:
        """The coordinator abandoned ``checkpoint_id`` (e.g. it crashed
        before finalize): demote the sealed transaction back into the
        open one, ahead of anything staged since — nothing is lost, the
        elements simply commit with the next successful checkpoint."""
        txn = self.pending.pop(checkpoint_id, None)
        if txn is not None:
            self._staged.insert(0, txn)
            self.aborts += 1

    def restore_elements(self, rows: list) -> None:
        """Recovery: visible output becomes exactly the checkpoint's
        record — its sealed batches as they are (a run of Elements is
        encoded); every in-flight transaction is truncated (replay will
        regenerate it)."""
        self.batches = batches_of(rows)
        self._rows = sum(len(rb) for rb in self.batches)
        self._decoded = 0
        self._elements = []
        self._staged = []
        self._staged_next = []
        self._barriered = set()
        self._barrier_id = None
        if self.pending:
            self.aborts += len(self.pending)
        self.pending = {}


class TransactionalLogSink:
    """Mirrors a :class:`TransactionalSink`'s committed output into an
    event-log topic, exactly-once across crashes.

    Registered as a coordinator listener: on every checkpoint commit it
    appends the newly committed elements through a fenced idempotent
    producer transaction.  The resume point is the topic's total end
    offset — appends happen in committed order, so after a crash
    anywhere (even between the manifest write and the log append) the
    delta that is re-driven starts exactly where the log left off.
    ``fence()`` bumps the producer epoch on recovery so a zombie
    incarnation's stray appends are rejected by the cluster.
    """

    def __init__(self, cluster: LogCluster, topic: str, sink_name: str,
                 producer_id: int | None = None) -> None:
        self.cluster = cluster
        self.topic = topic
        self.sink_name = sink_name
        self.producer = Producer(cluster, idempotent=True,
                                 producer_id=producer_id)
        self.committed_appends = 0

    def _log_length(self) -> int:
        return sum(
            self.cluster.end_offset(self.topic, p)
            for p in range(self.cluster.partition_count(self.topic)))

    def fence(self) -> int:
        """New incarnation: fence the previous epoch and re-derive the
        resume point from the log itself."""
        epoch = self.producer.bump_epoch()
        self.committed_appends = self._log_length()
        return epoch

    def on_checkpoint_committed(self, checkpoint_id: int,
                                committed: TransactionalSink) -> int:
        """Append the delta of newly committed elements — ``committed``
        is the sink, and only the delta is decoded; returns how many
        records were appended (0 when replaying an already-applied
        commit)."""
        delta = committed.rows_from(self.committed_appends).to_elements()
        if not delta:
            return 0
        self.producer.begin_transaction()
        for element in delta:
            key = (element.key if isinstance(element.key, str)
                   else None if element.key is None else str(element.key))
            self.producer.send_transactional(
                self.topic, element.value, key=key,
                timestamp=element.timestamp,
                headers={"checkpoint": str(checkpoint_id)})
        appended = len(self.producer.commit_transaction())
        self.committed_appends = len(committed)
        return appended
