"""Coordinator companions: store, manifests, heartbeats, failover regions."""

import pytest

from repro.chaos import reference_events, reference_job, two_region_job
from repro.streaming.barrier import ParallelCheckpoint
from repro.streaming.coordinator import (
    CheckpointCoordinator,
    CheckpointManifest,
    CheckpointStore,
    HeartbeatMonitor,
    failover_region_of,
    failover_regions,
)
from repro.streaming.execution import ParallelExecutor
from repro.streaming.plan import compile_execution_graph
from repro.util.clock import SimClock
from repro.util.errors import CheckpointError


def _checkpoint(cid: int) -> ParallelCheckpoint:
    return ParallelCheckpoint(
        checkpoint_id=cid, num_key_groups=8, parallelism={},
        num_splits={}, source_positions={}, keyed_state={},
        scalar_state={}, sink_elements={})


class TestCheckpointStore:
    def test_finalize_is_the_commit_point(self):
        store = CheckpointStore()
        manifest = CheckpointManifest(checkpoint_id=1)
        store.record(manifest)
        # pending: not a restore target, not the latest snapshot
        assert store.latest() is None
        assert manifest.status == "pending"
        store.finalize(_checkpoint(1), manifest)
        assert store.latest().checkpoint_id == 1
        assert store.manifests[1].status == "finalized"

    def test_prune_keeps_newest(self):
        store = CheckpointStore(keep=1)
        for cid in (1, 2, 3):
            manifest = CheckpointManifest(checkpoint_id=cid)
            store.record(manifest)
            store.finalize(_checkpoint(cid), manifest)
        assert store.latest().checkpoint_id == 3
        assert store.pruned == 2
        # manifests survive pruning as history
        assert sorted(store.manifests) == [1, 2, 3]

    def test_abort_only_flips_pending(self):
        store = CheckpointStore()
        manifest = CheckpointManifest(checkpoint_id=1)
        store.record(manifest)
        store.finalize(_checkpoint(1), manifest)
        store.abort(1)
        assert store.manifests[1].status == "finalized"
        store.record(CheckpointManifest(checkpoint_id=2))
        store.abort(2)
        assert store.manifests[2].status == "aborted"
        assert store.latest().checkpoint_id == 1

    def test_ids_monotonic_across_incarnations(self):
        store = CheckpointStore()
        assert store.next_checkpoint_id() == 1
        store.record(CheckpointManifest(checkpoint_id=1))
        store.abort(1)  # even an aborted attempt claims its id forever
        assert store.next_checkpoint_id() == 2

    def test_ids_strictly_increase_through_abort_finalize_and_rebuild(self):
        store = CheckpointStore()
        ids = []
        for step in ("abort", "finalize", "abort", "finalize"):
            cid = store.next_checkpoint_id()
            ids.append(cid)
            manifest = CheckpointManifest(checkpoint_id=cid)
            store.record(manifest)
            if step == "abort":
                store.abort(cid)
            else:
                store.finalize(_checkpoint(cid), manifest)
        # a finalize the store never saw recorded still claims its id
        store.finalize(_checkpoint(9), CheckpointManifest(checkpoint_id=9))
        ids.append(9)
        job = reference_job(reference_events(seed=1, n=10))
        for _incarnation in range(2):  # one store, coordinators rebuilt
            coordinator = CheckpointCoordinator(ParallelExecutor(job),
                                                store=store)
            ids.append(coordinator.trigger())
            coordinator.abandon_pending()
            ids.append(coordinator.trigger())
        assert ids == [1, 2, 3, 4, 9, 10, 11, 12, 13]
        assert sorted(store.manifests) == ids  # history is kept

    def test_id_mismatch_rejected(self):
        store = CheckpointStore()
        with pytest.raises(CheckpointError):
            store.finalize(_checkpoint(2), CheckpointManifest(checkpoint_id=1))

    def test_keep_zero_rejected(self):
        with pytest.raises(CheckpointError):
            CheckpointStore(keep=0)

    def test_manifest_round_trips_to_dict(self):
        manifest = CheckpointManifest(
            checkpoint_id=3, source_positions={"events": {0: 5}},
            acked_subtasks=["op[0]"])
        blob = manifest.as_dict()
        assert blob["checkpoint_id"] == 3
        assert blob["source_positions"] == {"events": {0: 5}}
        assert blob["status"] == "pending"
        assert blob["acked_subtasks"] == ["op[0]"]
        assert CheckpointManifest(**blob).as_dict() == blob


class TestHeartbeatMonitor:
    def test_silent_subtask_declared_dead(self):
        clock = SimClock()
        monitor = HeartbeatMonitor(clock, timeout_s=5.0)
        monitor.register("a[0]")
        monitor.register("b[0]")
        clock.advance(4.0)
        monitor.beat("a[0]")
        assert monitor.dead() == []
        clock.advance(2.0)  # b[0] last beat 6s ago, a[0] 2s ago
        assert monitor.dead() == ["b[0]"]

    def test_reset_gives_fresh_deadline(self):
        clock = SimClock()
        monitor = HeartbeatMonitor(clock, timeout_s=1.0)
        monitor.register("a[0]")
        clock.advance(5.0)
        assert monitor.dead() == ["a[0]"]
        monitor.reset("a[0]")
        assert monitor.dead() == []

    def test_register_is_idempotent(self):
        clock = SimClock()
        monitor = HeartbeatMonitor(clock, timeout_s=1.0)
        monitor.register("a[0]")
        clock.advance(5.0)
        monitor.register("a[0]")  # must not refresh the deadline
        assert monitor.dead() == ["a[0]"]

    def test_bad_timeout_rejected(self):
        with pytest.raises(CheckpointError):
            HeartbeatMonitor(SimClock(), timeout_s=0)


class TestFailoverRegions:
    def _two_region_graph(self):
        job = two_region_job(reference_events(seed=1, n=10),
                             reference_events(seed=2, n=10))
        return compile_execution_graph(job, 2)

    def test_disjoint_pipelines_come_apart(self):
        graph = self._two_region_graph()
        regions = failover_regions(graph)
        assert len(regions) == 2
        flat = set().union(*regions)
        assert "events_a" in flat and "out_b" in flat

    def test_connected_pipeline_is_one_region(self):
        job = reference_job(reference_events(seed=1, n=10))
        graph = compile_execution_graph(job, 2)
        regions = failover_regions(graph)
        assert len(regions) == 1

    def test_region_of_accepts_subtask_and_logical_names(self):
        graph = self._two_region_graph()
        by_subtask = failover_region_of(graph, "window_a[1]")
        by_logical = failover_region_of(graph, "window_a")
        assert by_subtask == by_logical
        assert "events_a" in by_subtask
        assert "out_a" in by_subtask
        assert not {"events_b", "out_b"} & by_subtask

    def test_region_of_source_and_sink(self):
        graph = self._two_region_graph()
        assert "out_b" in failover_region_of(graph, "events_b")
        assert "events_b" in failover_region_of(graph, "out_b")

    def test_unknown_name_raises(self):
        graph = self._two_region_graph()
        with pytest.raises(CheckpointError):
            failover_region_of(graph, "nonesuch")
