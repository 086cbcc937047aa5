"""CheckpointStore integrity: checksums, quarantine, fallback, debris.

Tier-1 coverage for the store-level integrity machinery — manifest
self-checksums, payload digests, quarantine-aware ``latest()``, the
finalize-after-abort guard, and pruning's handling of quarantined and
recovery debris.  End-to-end corruption-under-chaos lives in the
``datafault``-marked suite and ``tools/check_robustness.py --datafault``.
"""

from __future__ import annotations

import pytest

from repro.streaming.barrier import ParallelCheckpoint
from repro.streaming.batch import RecordBatch
from repro.streaming.coordinator import (
    ABORTED,
    FINALIZED,
    PENDING,
    CheckpointManifest,
    CheckpointStore,
)
from repro.streaming.element import Element
from repro.streaming.txn_sink import TransactionalSink
from repro.util.errors import CheckpointError


def ckpt(cid, marker="state", rows=()):
    return ParallelCheckpoint(
        checkpoint_id=cid,
        num_key_groups=8,
        parallelism={"double": 2},
        num_splits={"events": 1},
        source_positions={"events": {0: cid * 10}},
        keyed_state={"double": {0: {"marker": marker}}},
        scalar_state={"double": [None, None]},
        sink_elements={"out": list(rows)},
    )


def finalize(store, cid, **kw):
    manifest = CheckpointManifest(checkpoint_id=cid, started_at=float(cid))
    store.record(manifest)
    store.finalize(ckpt(cid, **kw), manifest)
    return manifest


# -- digests and verification ------------------------------------------------


def test_finalize_records_digest_and_checksum():
    store = CheckpointStore(keep=2)
    manifest = finalize(store, 1)
    assert manifest.status == FINALIZED
    assert manifest.payload_digest and manifest.checksum
    assert store.verify(1)


def test_verify_fails_closed_on_missing_or_pending():
    store = CheckpointStore(keep=2)
    assert not store.verify(99)  # never existed
    pending = CheckpointManifest(checkpoint_id=1)
    store.record(pending)
    assert pending.status == PENDING
    assert not store.verify(1)  # manifest without snapshot: crash debris


def test_corrupt_payload_detected():
    store = CheckpointStore(keep=2)
    finalize(store, 1)
    store.corrupt(1, mode="payload")
    assert not store.verify(1)
    assert store.latest() is None
    assert store.quarantined == {1}
    assert store.integrity_failures == 1


def test_corrupt_manifest_detected():
    store = CheckpointStore(keep=2)
    finalize(store, 1)
    store.corrupt(1, mode="manifest")
    assert not store.verify(1)
    assert store.latest() is None
    assert store.quarantined == {1}


def test_corrupt_rejects_unknown_target_and_mode():
    store = CheckpointStore(keep=2)
    with pytest.raises(CheckpointError):
        store.corrupt(7)
    finalize(store, 1)
    with pytest.raises(CheckpointError):
        store.corrupt(1, mode="gamma_ray")


# -- quarantine-aware latest() ----------------------------------------------


def test_latest_falls_back_past_corrupt_newest():
    store = CheckpointStore(keep=2)
    finalize(store, 1, marker="old")
    finalize(store, 2, marker="new")
    store.corrupt(2, mode="payload")
    restored = store.latest()
    assert restored is not None and restored.checkpoint_id == 1
    assert store.quarantined == {2}
    assert store.integrity_failures == 1
    # A second lookup must not double-count the same rotten snapshot.
    assert store.latest().checkpoint_id == 1
    assert store.integrity_failures == 1


def test_latest_none_when_everything_rotten():
    store = CheckpointStore(keep=2)
    finalize(store, 1)
    finalize(store, 2)
    store.corrupt(1, mode="payload")
    store.corrupt(2, mode="manifest")
    assert store.latest() is None
    assert store.quarantined == {1, 2}
    assert store.integrity_failures == 2


# -- abort / finalize ordering ----------------------------------------------


def test_finalize_after_abort_raises():
    store = CheckpointStore(keep=2)
    manifest = CheckpointManifest(checkpoint_id=1)
    store.record(manifest)
    store.abort(1)
    assert manifest.status == ABORTED
    with pytest.raises(CheckpointError):
        store.finalize(ckpt(1), manifest)
    assert store.snapshot(1) is None


def test_abort_only_demotes_pending():
    store = CheckpointStore(keep=2)
    manifest = finalize(store, 1)
    store.abort(1)  # finalized manifests are immune
    assert manifest.status == FINALIZED
    assert store.verify(1)


def test_id_mismatch_rejected():
    store = CheckpointStore(keep=2)
    manifest = CheckpointManifest(checkpoint_id=2)
    store.record(manifest)
    with pytest.raises(CheckpointError):
        store.finalize(ckpt(1), manifest)


# -- pruning with quarantine and recovery debris -----------------------------


def test_quarantined_snapshot_does_not_crowd_out_fallback():
    store = CheckpointStore(keep=1)
    finalize(store, 1)
    finalize(store, 2)
    # keep=1 pruned id 1; corrupt the sole survivor, then finalize a
    # replacement: the quarantined snapshot must not count against
    # ``keep`` and push the healthy one out.
    store.corrupt(2, mode="payload")
    assert store.latest() is None
    finalize(store, 3)
    assert store.latest().checkpoint_id == 3
    assert 3 in store.retained_ids()


def test_prune_reclaims_stale_quarantined_debris():
    store = CheckpointStore(keep=2)
    finalize(store, 1)
    finalize(store, 2)
    store.corrupt(2, mode="payload")
    assert store.latest().checkpoint_id == 1  # quarantines 2
    finalize(store, 3)
    finalize(store, 4)
    finalize(store, 5)
    # healthy = {4, 5}; the quarantined id 2 is now older than the
    # oldest healthy snapshot — dead weight recovery can never target.
    assert store.snapshot(2) is None
    assert store.retained_ids() == [4, 5]


def test_recovery_debris_never_a_restore_target():
    store = CheckpointStore(keep=3)
    finalize(store, 1)
    # Crash mid-attempt: pending manifest, no snapshot committed.
    store.record(CheckpointManifest(checkpoint_id=2))
    store.record(CheckpointManifest(checkpoint_id=3))
    store.abort(3)
    assert store.latest().checkpoint_id == 1
    assert max(m.checkpoint_id for m in store.manifests.values()
               if m.status == FINALIZED) == 1
    # A rebuilt coordinator must not reuse ids the dead one claimed,
    # even ids that only ever reached pending/aborted.
    assert store.next_checkpoint_id() == 4


# -- sink rows as columns ------------------------------------------------------
#
# A checkpoint's sink payload is the sealed batches of the 2PC sink.
# The digest must cover every byte of them, be recomputed from those
# bytes at verify(), and stay valid whatever the source does later.


def _source(n=400):
    """A source-wide dictionary and one batch encoded under it."""
    index, table = {}, []
    batch = RecordBatch.from_elements(
        [Element(float(i), float(i), f"k{i}") for i in range(n)],
        index, table)
    return batch, index, table


def _grow(index, table):
    RecordBatch.from_elements([Element(0.0, 0.0, "later")], index, table)


def _sealed_epochs(source):
    """Two epochs of a 2PC sink fed slices of the shared source batch."""
    feeder = ("src", 0)
    sink = TransactionalSink("out", (feeder,))
    projections = []
    for cid, (lo, hi) in enumerate(((10, 14), (200, 203)), start=1):
        sink.deliver(source.slice(lo, hi), feeder)
        sink.on_barrier(feeder, cid)
        projections.append(sink.projected_committed(cid))
        sink.commit(cid)
    return projections


def test_sealed_rows_verify_after_source_dictionary_grows():
    source, index, table = _source()
    store = CheckpointStore(keep=2)
    for cid, rows in enumerate(_sealed_epochs(source), start=1):
        finalize(store, cid, rows=rows)
    _grow(index, table)
    assert store.verify(1) and store.verify(2)
    assert store.latest().checkpoint_id == 2
    assert store.integrity_failures == 0


def test_unsealed_slice_would_not_survive_dictionary_growth():
    # Why the sink seals: a delivered slice shares the source-wide
    # dictionary, and the digest of a checkpoint holding it changes the
    # moment the source appends a key.
    source, index, table = _source()
    store = CheckpointStore(keep=2)
    finalize(store, 1, rows=[source.slice(10, 14)])
    assert store.verify(1)
    _grow(index, table)
    assert not store.verify(1)


@pytest.mark.parametrize("column", ["timestamps", "values", "key_codes"])
def test_flipped_column_value_detected(column):
    source, _, _ = _source()
    first, second = _sealed_epochs(source)
    store = CheckpointStore(keep=2)
    finalize(store, 1, rows=first)
    finalize(store, 2, rows=second)
    assert store.verify(2)
    # One value of one retained column rots in place; nothing else
    # about the snapshot object changes.
    getattr(store.snapshot(2).sink_elements["out"][-1], column)[0] += 1
    assert not store.verify(2)
    assert store.verify(1)
    restored = store.latest()
    assert restored.checkpoint_id == 1
    assert store.quarantined == {2} and store.integrity_failures == 1
    assert store.latest().checkpoint_id == 1  # counted once
    assert store.integrity_failures == 1


def test_corrupt_payload_detected_with_columns():
    source, _, _ = _source()
    first, second = _sealed_epochs(source)
    store = CheckpointStore(keep=2)
    finalize(store, 1, rows=first)
    finalize(store, 2, rows=second)
    store.corrupt(2, mode="payload")
    assert store.latest().checkpoint_id == 1
    assert store.quarantined == {2} and store.integrity_failures == 1
    # the fallback restores the first epoch's rows, nothing of the second
    rows = store.latest().sink_elements["out"]
    assert [e.key for rb in rows for e in rb.to_elements()] \
        == ["k10", "k11", "k12", "k13"]
