"""Two-phase-commit sinks: staging, pre-commit, commit, abort, restore,
and the uncoordinated run that commits at every macro cycle's end."""

import math

import pytest

from repro.eventlog.broker import LogCluster, TopicConfig
from repro.streaming import JobBuilder, ParallelExecutor
from repro.streaming.batch import items_weight
from repro.streaming.element import Element
from repro.streaming.txn_sink import TransactionalLogSink, TransactionalSink
from repro.util.errors import CheckpointError, ConfigError
from repro.util.metrics import MetricsRegistry

F0, F1 = ("up", 0), ("up", 1)


def _uncommitted(sink):
    """Rows staged or pre-committed but not yet visible."""
    return (items_weight(sink._staged) + items_weight(sink._staged_next)
            + sum(len(rb) for rb in sink.pending.values()))


def _el(v, t=0.0, key=None):
    return Element(value=v, timestamp=t, key=key)


class TestTransactionalSink:
    def test_staged_output_is_invisible(self):
        sink = TransactionalSink("out", (F0,))
        sink.deliver([_el(1), _el(2)], F0)
        assert sink.values == []
        assert len(sink) == 0
        assert _uncommitted(sink) == 2

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
        assert _uncommitted(sink) == 0
        assert sink.pending == {}

    def test_no_feeders_rejected(self):
        with pytest.raises(CheckpointError):
            TransactionalSink("out", ())

    def test_commit_open_seals_and_commits_in_one_step(self):
        sink = TransactionalSink("out", (F0, F1))
        sink.deliver([_el(1), _el(2)], F0)
        sink.deliver([_el(3)], F1)
        assert sink.commit_open() == 3
        assert sink.values == [1, 2, 3]
        assert len(sink.batches) == 1 and _uncommitted(sink) == 0
        assert sink.commit_open() == 0  # nothing open: no empty epoch
        assert len(sink.batches) == 1
        assert sink.commits == 0 and sink.last_committed_id == -1


MODES = {"per_item": False, "batched": True}


def _nan_led_job():
    builder = JobBuilder("nan-led")
    (builder.source("s", [Element(value=i, key="a",
                                  timestamp=math.nan if i == 0 else float(i))
                          for i in range(50)])
            .filter(lambda v: v < 10)
            .sink("out"))
    return builder.build()


class TestUncoordinatedRun:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_a_leading_nan_does_not_pin_the_sink_frontier(self, mode):
        # regression: the plain sink path took max() over the delivered
        # timestamps, so a leading NaN pinned the frontier at NaN and
        # the lag gauge read 0.0 for the rest of the run
        metrics = MetricsRegistry()
        executor = ParallelExecutor(_nan_led_job(), metrics=metrics,
                                    batch_mode=MODES[mode])
        sinks = executor.run(source_batch=8)
        assert len(sinks["out"]) == 10
        assert metrics.gauge("sink.watermark_lag_s", sink="out").value \
            == 40.0

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_every_cycle_leaves_every_delivered_row_visible(self, mode):
        executor = ParallelExecutor(_nan_led_job(), batch_mode=MODES[mode])
        seen = []
        while not executor.done:
            executor.run(source_batch=4, max_cycles=1)
            out = executor.sinks["out"]
            assert _uncommitted(out) == 0
            seen.append(len(out))
        assert seen[0] == 4 and seen[-1] == 10
        assert executor.sinks["out"].values == list(range(10))

    def test_plain_sinks_are_gone(self):
        with pytest.raises(ConfigError):
            ParallelExecutor(_nan_led_job(), transactional_sinks=False)


class TestTransactionalLogSink:
    def _cluster(self):
        cluster = LogCluster(num_brokers=3)
        cluster.create_topic(TopicConfig("mirror", partitions=2,
                                         replication=2))
        return cluster

    @staticmethod
    def _commit(out, *values):
        """Commit one epoch of keyed rows into ``out``, as an
        uncoordinated run does at a cycle's end."""
        out.deliver([_el(v, key="k") for v in values], F0)
        out.commit_open()
        return out

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
        committed = self._commit(TransactionalSink("out", (F0,)), "a", "b")
        assert log.on_checkpoint_committed(1, committed) == 2
        self._commit(committed, "c")
        assert log.on_checkpoint_committed(2, committed) == 1
        assert sorted(self._log_values(cluster)) == ["a", "b", "c"]

    def test_a_non_string_key_is_written_as_its_string(self):
        cluster = self._cluster()
        log = TransactionalLogSink(cluster, "mirror", "out")
        out = TransactionalSink("out", (F0,))
        out.deliver([_el("a", key=7), _el("b", key="k"), _el("c")], F0)
        out.commit_open()
        assert log.on_checkpoint_committed(1, out) == 3
        keys = {record.value: record.key
                for p in range(cluster.partition_count("mirror"))
                for _offset, record in cluster.read("mirror", p, 0,
                                                    max_records=10_000)}
        assert keys == {"a": "7", "b": "k", "c": None}

    def test_replayed_commit_is_a_noop(self):
        cluster = self._cluster()
        log = TransactionalLogSink(cluster, "mirror", "out")
        committed = self._commit(TransactionalSink("out", (F0,)), "a")
        log.on_checkpoint_committed(1, committed)
        assert log.on_checkpoint_committed(1, committed) == 0
        assert self._log_values(cluster) == ["a"]

    def test_fence_rederives_resume_point_from_log(self):
        cluster = self._cluster()
        log = TransactionalLogSink(cluster, "mirror", "out", producer_id=7)
        committed = self._commit(TransactionalSink("out", (F0,)), "a", "b")
        log.on_checkpoint_committed(1, committed)
        # new incarnation after a crash: resume point comes from the
        # topic itself, so the replayed commit appends nothing
        revived = TransactionalLogSink(cluster, "mirror", "out",
                                       producer_id=7)
        epoch = revived.fence()
        assert epoch >= 1
        assert revived.on_checkpoint_committed(1, committed) == 0
        self._commit(committed, "c")
        assert revived.on_checkpoint_committed(2, committed) == 1
        assert sorted(self._log_values(cluster)) == ["a", "b", "c"]
