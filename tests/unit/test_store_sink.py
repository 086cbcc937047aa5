"""StoreSink epoch protocol + checkpoint retention + app serving wiring.

Three seams of the tiered-store bugfix sweep:

* the sink's prefix-delta logic (apply exactly the unapplied suffix,
  tolerate replayed commits, refuse rewound streams);
* the CheckpointStore retain-watermark (pruning must never delete the
  checkpoint a lagging store consumer would rewind to — the regression
  that motivated satellite #1);
* the three apps' serving stores end to end over real topics.
"""

import pytest

from repro.eventlog import LogCluster, Producer, TopicConfig
from repro.store import StoreSink, TieredStore, canonical_contents, serve_topic
from repro.streaming.barrier import ParallelCheckpoint
from repro.streaming.coordinator import CheckpointManifest, CheckpointStore
from repro.streaming.element import Element
from repro.streaming.txn_sink import TransactionalSink
from repro.util.errors import CheckpointError, StoreError
from repro.util.rng import make_rng


def _checkpoint(cid):
    return ParallelCheckpoint(
        checkpoint_id=cid, num_key_groups=8, parallelism={},
        num_splits={}, source_positions={}, keyed_state={},
        scalar_state={}, sink_elements={})


def _finalize(store, cid):
    manifest = CheckpointManifest(checkpoint_id=cid)
    store.record(manifest)
    store.finalize(_checkpoint(cid), manifest)


def _els(n, offset=0):
    return [Element(value={"v": i}, timestamp=float(i), key=f"k-{i % 3}")
            for i in range(offset, offset + n)]


def _commit(out, rows):
    """Commit ``rows`` into the transactional sink ``out`` as one epoch."""
    out.deliver(rows, ("up", 0))
    out.commit_open()
    return out


def _committed(rows):
    """A sink that committed ``rows`` — what a coordinator hands its
    commit listeners."""
    return _commit(TransactionalSink("out", (("up", 0),)), rows)


class _FakeCoordinator:
    def __init__(self):
        self.store = CheckpointStore(keep=1)
        self.listeners = []


class TestStoreSinkDelta:
    def test_applies_only_the_unapplied_suffix(self):
        sink = StoreSink(TieredStore(num_shards=2))
        committed = _committed(_els(5))
        assert sink.on_checkpoint_committed(1, committed) == 5
        _commit(committed, _els(3, offset=5))
        assert sink.on_checkpoint_committed(2, committed) == 3
        assert sink.store.analytical.rows == 8
        assert sink.store.hot.rows == 8
        assert sink.last_applied_epoch == 2

    def test_replayed_commit_is_a_noop(self):
        sink = StoreSink(TieredStore(num_shards=2))
        committed = _committed(_els(5))
        sink.on_checkpoint_committed(1, committed)
        assert sink.on_checkpoint_committed(1, committed) == 0
        assert sink.store.analytical.rows == 5
        assert sink.applied_epochs == 2  # second apply installed nothing

    def test_rewound_stream_raises(self):
        sink = StoreSink(TieredStore(num_shards=2))
        committed = _committed(_els(5))
        sink.on_checkpoint_committed(1, committed)
        committed.restore_elements(_els(3))  # rewound below what applied
        with pytest.raises(StoreError):
            sink.on_checkpoint_committed(2, committed)

    def test_sink_name_filter(self):
        sink = StoreSink(TieredStore(num_shards=2), sink_name="store")
        coord = _FakeCoordinator()
        sink.attach(coord)
        (listener,) = coord.listeners
        listener(1, "other-sink", _committed(_els(4)))
        assert sink.store.analytical.rows == 0
        listener(1, "store", _committed(_els(4)))
        assert sink.store.analytical.rows == 4

    def test_attach_is_idempotent_and_advances_watermark(self):
        sink = StoreSink(TieredStore(num_shards=2), sink_name="store")
        coord = _FakeCoordinator()
        sink.attach(coord)
        sink.attach(coord)  # re-attach after a coordinator rebuild
        assert len(coord.listeners) == 1
        assert coord.store.retain_watermark() == 0
        coord.listeners[0](3, "store", _committed(_els(6)))
        assert coord.store.retain_watermark() == 3


class TestRetainWatermark:
    """Regression: pruning must honour lagging consumers (satellite #1)."""

    def test_pruning_never_deletes_at_or_above_watermark(self):
        store = CheckpointStore(keep=1)
        store.register_consumer("serving-store", 2)
        for cid in range(1, 6):
            _finalize(store, cid)
        # keep=1 would leave only 5; the watermark pins 2, 3, 4 too
        assert store.retained_ids() == [2, 3, 4, 5]
        assert store.pruned == 1

    def test_restore_from_oldest_retained_after_pruning(self):
        store = CheckpointStore(keep=1)
        store.register_consumer("serving-store", 2)
        for cid in range(1, 6):
            _finalize(store, cid)
        # the consumer rewinds to its watermark: the snapshot must exist
        oldest = store.retain_watermark()
        snap = store.snapshot(oldest)
        assert snap is not None and snap.checkpoint_id == 2
        # once the consumer catches up, pruning resumes
        store.consumer_applied("serving-store", 5)
        assert store.retained_ids() == [5]
        assert store.snapshot(2) is None

    def test_consumer_applied_is_monotonic_and_validated(self):
        store = CheckpointStore()
        with pytest.raises(CheckpointError):
            store.consumer_applied("nobody", 1)
        store.register_consumer("c", 3)
        store.consumer_applied("c", 2)  # late report: does not rewind
        assert store.retain_watermark() == 3


class TestServeTopic:
    def _cluster(self, topic, n=120):
        cluster = LogCluster(num_brokers=1)
        cluster.create_topic(TopicConfig(name=topic, partitions=2))
        producer = Producer(cluster)
        rng = make_rng(13)
        for i in range(n):
            producer.send(topic, {"m": float(rng.uniform(0, 10)), "i": i},
                          key=f"u-{i % 5}", timestamp=float(i))
        return cluster

    def test_fault_free_run_feeds_both_tiers(self):
        cluster = self._cluster("t.events")
        store, report = serve_topic(cluster, "t.events",
                                    metric_fn=lambda v: v["m"])
        assert report.checkpoints >= 1
        assert store.analytical.rows == 120
        assert store.hot.rows == 120
        # newest record per key is the highest-timestamp one
        for k in range(5):
            (ts, value), = store.latest(f"u-{k}")
            assert value["i"] == 115 + k
        # dashboards see every committed row
        assert sum(store.group_by("count").values()) == 120

    def test_restore_rewinds_to_a_retained_checkpoint(self):
        """A store crash forces a restore; the watermark guarantees the
        rewind target survived pruning, and the store converges to the
        fault-free contents."""
        from repro.chaos.injector import FaultInjector
        from repro.chaos.plan import SITE_STORE, FaultPlan, FaultSpec

        golden, _ = serve_topic(self._cluster("t.gold"), "t.gold",
                                metric_fn=lambda v: v["m"],
                                interval_cycles=2, source_batch=32)
        plan = FaultPlan(specs=(
            FaultSpec(kind="store_crash", site=SITE_STORE,
                      target="apply", at=1),))
        store, report = serve_topic(self._cluster("t.chaos"), "t.chaos",
                                    metric_fn=lambda v: v["m"],
                                    interval_cycles=2, source_batch=32,
                                    injector=FaultInjector(plan))
        assert report.crashes >= 1
        assert report.full_restores >= 1
        assert canonical_contents(store) == canonical_contents(golden)
        assert store.analytical.rows == golden.analytical.rows
