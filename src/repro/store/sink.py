"""StoreSink: exactly-once bridge from committed epochs into the store.

The serving store never sees in-flight data.  A :class:`StoreSink`
registers as a checkpoint-coordinator commit listener (the same seam
:class:`~repro.streaming.txn_sink.TransactionalLogSink` uses): on every
finalized checkpoint it receives the sink's *committed* output, takes
the delta past what it already applied — as the batch the sink sealed,
not as decoded Elements — **stages** it (shard routing, key encoding,
column building — all the failure-prone work) and then
**applies** it: every affected hot shard and the analytical store
install the epoch atomically and record ``last_applied_epoch``.

Why the delta logic is crash-proof: committed output only ever grows as
a list prefix — checkpoint N's projection is a prefix of checkpoint
N+k's — so ``committed[applied_rows:]`` after any crash/restore/rescale
is exactly the rows the store has not seen.  A crash *inside* the
listener (injected at the ``stage``/``apply``/``compact`` fault sites)
restores the job to the just-finalized checkpoint; the next commit's
delta then contains everything the interrupted apply missed, and the
per-shard epoch guard drops anything it did not.

The sink also registers as a *consumer* on the
:class:`~repro.streaming.coordinator.CheckpointStore` and advances its
retain-watermark after each apply, so checkpoint pruning can never
delete a manifest the store might still need to replay from.
"""

from __future__ import annotations

from typing import Any

from ..streaming.batch import RecordBatch
from ..streaming.element import Element
from ..streaming.txn_sink import TransactionalSink
from ..util.errors import StoreError
from .tiered import TieredStore

__all__ = ["StoreSink"]


class StoreSink:
    """Applies a transactional sink's committed epochs to a
    :class:`~repro.store.tiered.TieredStore`, exactly once."""

    def __init__(self, store: TieredStore, *, sink_name: str | None = None,
                 consumer_name: str | None = None,
                 injector: Any = None) -> None:
        self.store = store
        self.sink_name = sink_name
        self.consumer_name = consumer_name or (
            f"store-sink:{sink_name}" if sink_name else "store-sink")
        self.injector = injector
        self._applied_rows = 0
        self._checkpoint_store: Any = None
        self.applied_epochs = 0
        self.last_applied_epoch = 0

    # -- wiring --------------------------------------------------------------

    def attach(self, coordinator: Any) -> "StoreSink":
        """Register on a coordinator: commit listener + retain-watermark
        consumer.  Pass as ``on_coordinator=`` to ``run_coordinated`` —
        listeners survive coordinator rebuilds, and re-attaching after
        one only refreshes the checkpoint-store handle."""
        store = getattr(coordinator, "store", None)
        if store is not None:
            self._checkpoint_store = store
            store.register_consumer(self.consumer_name,
                                    self.last_applied_epoch)
        listeners = coordinator.listeners
        if self._on_commit not in listeners:
            listeners.append(self._on_commit)
        return self

    def _on_commit(self, checkpoint_id: int, sink_name: str,
                   committed: TransactionalSink) -> None:
        if self.sink_name is not None and sink_name != self.sink_name:
            return
        self.on_checkpoint_committed(checkpoint_id, committed)

    # -- the epoch-apply protocol --------------------------------------------

    def on_checkpoint_committed(self, checkpoint_id: int,
                                committed: TransactionalSink) -> int:
        """Stage and apply the newly committed delta of ``committed`` —
        the transactional sink, whose delta comes as one batch.  Returns
        rows applied (0 when replaying an already-applied commit)."""
        if len(committed) < self._applied_rows:
            # Committed output is a prefix-growing projection; shrinking
            # below what we applied means the caller handed us a
            # different sink's stream.
            raise StoreError(
                f"committed output ({len(committed)} rows) rewound below "
                f"applied rows ({self._applied_rows}) — StoreSink must "
                "follow a single transactional sink")
        staged = self.stage(checkpoint_id,
                            committed.rows_from(self._applied_rows))
        return self.apply(checkpoint_id, staged)

    def stage(self, epoch: int,
              rows: RecordBatch | list[Element]) -> dict[str, Any]:
        """Phase 1: build per-shard rows and analytical columns off to
        the side.  Crash here and nothing happened."""
        if self.injector is not None:
            self.injector.before_store_phase("stage")
        return self.store.stage_epoch(epoch, rows) | {"rows": len(rows)}

    def apply(self, epoch: int, staged: dict[str, Any]) -> int:
        """Phase 2: install the staged epoch (atomic per shard, guarded
        by ``last_applied_epoch``), advance the retain-watermark, then
        let the hot store flush/compact."""
        if self.injector is not None:
            self.injector.before_store_phase("apply")
        self.store.install_epoch(staged)
        self._applied_rows += staged["rows"]
        self.last_applied_epoch = epoch
        self.applied_epochs += 1
        if self._checkpoint_store is not None:
            self._checkpoint_store.consumer_applied(self.consumer_name,
                                                    epoch)
        if self.injector is not None:
            self.injector.before_store_phase("compact")
        self.store.maintain()
        return staged["rows"]
