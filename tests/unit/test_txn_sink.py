"""Two-phase-commit sinks: staging, pre-commit, commit, abort, restore."""

import pytest

from repro.eventlog.broker import LogCluster, TopicConfig
from repro.streaming.element import Element
from repro.streaming.txn_sink import TransactionalLogSink, TransactionalSink
from repro.util.errors import CheckpointError

F0, F1 = ("up", 0), ("up", 1)


def _el(v, t=0.0, key=None):
    return Element(value=v, timestamp=t, key=key)


class TestTransactionalSink:
    def test_staged_output_is_invisible(self):
        sink = TransactionalSink("out", (F0,))
        sink.deliver([_el(1), _el(2)], F0)
        assert sink.values == []
        assert len(sink) == 0
        assert sink.uncommitted == 2

    def test_precommit_then_commit_makes_visible(self):
        sink = TransactionalSink("out", (F0,))
        sink.deliver([_el(1)], F0)
        cid = sink.on_barrier(F0, 1)
        assert cid == 1
        assert sink.values == []  # sealed, still invisible
        assert sink.commit(1) == 1
        assert sink.values == [1]
        assert sink.last_committed_id == 1

    def test_precommit_waits_for_all_feeders(self):
        sink = TransactionalSink("out", (F0, F1))
        sink.deliver([_el("a")], F0)
        assert sink.on_barrier(F0, 1) is None
        sink.deliver([_el("b")], F1)
        assert sink.on_barrier(F1, 1) == 1
        sink.commit(1)
        assert sink.values == ["a", "b"]

    def test_post_barrier_delivery_stages_into_next_txn(self):
        sink = TransactionalSink("out", (F0, F1))
        sink.on_barrier(F0, 1)
        # F0 already passed barrier 1: its output belongs to epoch 2
        sink.deliver([_el("late")], F0)
        sink.on_barrier(F1, 1)
        assert len(sink.pending[1]) == 0  # sealed, and empty
        sink.commit(1)
        assert sink.values == []
        sink.on_barrier(F0, 2)
        sink.on_barrier(F1, 2)
        sink.commit(2)
        assert sink.values == ["late"]

    def test_abort_folds_back_into_open_txn(self):
        sink = TransactionalSink("out", (F0,))
        sink.deliver([_el(1)], F0)
        sink.on_barrier(F0, 1)
        sink.deliver([_el(2)], F0)
        sink.abort_pending(1)
        assert sink.values == []
        assert sink.aborts == 1
        # next successful checkpoint commits both, original order first
        sink.on_barrier(F0, 2)
        sink.commit(2)
        assert sink.values == [1, 2]

    def test_duplicate_and_stale_markers_ignored(self):
        sink = TransactionalSink("out", (F0, F1))
        sink.on_barrier(F0, 1)
        assert sink.on_barrier(F0, 1) is None  # duplicate
        sink.on_barrier(F1, 1)
        sink.commit(1)
        assert sink.on_barrier(F0, 1) is None  # stale, already committed
        assert sink.pre_commits == 1

    def test_overtaking_barrier_restarts_epoch(self):
        sink = TransactionalSink("out", (F0, F1))
        sink.deliver([_el("x")], F0)
        sink.on_barrier(F0, 1)
        sink.deliver([_el("y")], F0)  # staged-next behind barrier 1
        # checkpoint 1 abandoned; barrier 2 arrives everywhere
        assert sink.on_barrier(F0, 2) is None
        assert sink.on_barrier(F1, 2) == 2
        sink.commit(2)
        assert sink.values == ["x", "y"]

    def test_projected_committed_previews_phase2(self):
        sink = TransactionalSink("out", (F0,))
        sink.deliver([_el(1)], F0)
        sink.on_barrier(F0, 1)
        projected = sink.projected_committed(1)
        assert [rb.values_list() for rb in projected] == [[1]]
        assert sink.values == []  # preview does not commit
        with pytest.raises(CheckpointError):
            sink.projected_committed(99)

    def test_commit_unknown_checkpoint_raises(self):
        sink = TransactionalSink("out", (F0,))
        with pytest.raises(CheckpointError):
            sink.commit(7)

    def test_restore_truncates_everything_in_flight(self):
        sink = TransactionalSink("out", (F0,))
        sink.deliver([_el(1)], F0)
        sink.on_barrier(F0, 1)
        sink.deliver([_el(2)], F0)
        sink.restore_elements([_el(10), _el(11)])
        assert sink.values == [10, 11]
        assert sink.uncommitted == 0
        assert sink.pending == {}

    def test_no_feeders_rejected(self):
        with pytest.raises(CheckpointError):
            TransactionalSink("out", ())


class TestTransactionalLogSink:
    def _cluster(self):
        cluster = LogCluster(num_brokers=3)
        cluster.create_topic(TopicConfig("mirror", partitions=2,
                                         replication=2))
        return cluster

    def _log_values(self, cluster):
        values = []
        for p in range(cluster.partition_count("mirror")):
            for _offset, record in cluster.read("mirror", p, 0,
                                                max_records=10_000):
                values.append(record.value)
        return values

    def test_appends_only_the_delta(self):
        cluster = self._cluster()
        log = TransactionalLogSink(cluster, "mirror", "out")
        committed = [_el("a", key="k"), _el("b", key="k")]
        assert log.on_checkpoint_committed(1, committed) == 2
        committed = committed + [_el("c", key="k")]
        assert log.on_checkpoint_committed(2, committed) == 1
        assert sorted(self._log_values(cluster)) == ["a", "b", "c"]

    def test_replayed_commit_is_a_noop(self):
        cluster = self._cluster()
        log = TransactionalLogSink(cluster, "mirror", "out")
        committed = [_el("a", key="k")]
        log.on_checkpoint_committed(1, committed)
        assert log.on_checkpoint_committed(1, committed) == 0
        assert self._log_values(cluster) == ["a"]

    def test_fence_rederives_resume_point_from_log(self):
        cluster = self._cluster()
        log = TransactionalLogSink(cluster, "mirror", "out", producer_id=7)
        committed = [_el("a", key="k"), _el("b", key="k")]
        log.on_checkpoint_committed(1, committed)
        # new incarnation after a crash: resume point comes from the
        # topic itself, so the replayed commit appends nothing
        revived = TransactionalLogSink(cluster, "mirror", "out",
                                       producer_id=7)
        epoch = revived.fence()
        assert epoch >= 1
        assert revived.on_checkpoint_committed(1, committed) == 0
        committed = committed + [_el("c", key="k")]
        assert revived.on_checkpoint_committed(2, committed) == 1
        assert sorted(self._log_values(cluster)) == ["a", "b", "c"]
