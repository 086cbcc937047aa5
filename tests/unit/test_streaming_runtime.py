"""Unit tests: job graph validation, executor, checkpoints, connectors."""

import pytest

from repro.eventlog import LogCluster, Producer, TopicConfig
from repro.streaming import (
    Element,
    JobBuilder,
    ParallelExecutor,
    TumblingWindows,
    log_source,
)
from repro.streaming import transport
from repro.util.errors import CheckpointError, JobGraphError


def _els(n, key_mod=2):
    return [Element(value={"k": i % key_mod, "v": float(i)},
                    timestamp=float(i)) for i in range(n)]


class TestJobGraph:
    def test_simple_chain_builds(self):
        builder = JobBuilder("j")
        builder.source("s", _els(3)).map(lambda v: v).sink("out")
        job = builder.build()
        assert job.topological_operators() == ["map_0"]

    def test_no_source_rejected(self):
        builder = JobBuilder("j")
        with pytest.raises(JobGraphError):
            builder.build()

    def test_duplicate_source_rejected(self):
        builder = JobBuilder("j")
        builder.source("s", _els(1))
        with pytest.raises(JobGraphError):
            builder.source("s", _els(1))

    def test_duplicate_operator_name_rejected(self):
        builder = JobBuilder("j")
        handle = builder.source("s", _els(1))
        handle.map(lambda v: v, name="m")
        with pytest.raises(JobGraphError):
            builder.source("s2", _els(1)).map(lambda v: v, name="m")

    def test_auto_names_increment(self):
        builder = JobBuilder("j")
        handle = builder.source("s", _els(1))
        handle = handle.map(lambda v: v).map(lambda v: v)
        handle.sink("out")
        job = builder.build()
        assert set(job.operators) == {"map_0", "map_1"}


class TestExecutor:
    def test_map_filter_pipeline(self):
        builder = JobBuilder("j")
        (builder.source("s", _els(10))
                .map(lambda v: v["v"])
                .filter(lambda v: v >= 5.0)
                .sink("out"))
        sinks = ParallelExecutor(builder.build()).run()
        assert sinks["out"].values == [5.0, 6.0, 7.0, 8.0, 9.0]

    def test_windowed_wordcount_like(self):
        builder = JobBuilder("j")
        (builder.source("s", _els(20))
                .with_watermarks(0.0)
                .key_by(lambda v: v["k"])
                .window(TumblingWindows(10.0), "count")
                .sink("out"))
        sinks = ParallelExecutor(builder.build()).run()
        results = {(r.key, r.window.start): r.value
                   for r in sinks["out"].values}
        assert results[(0, 0.0)] == 5
        assert results[(1, 0.0)] == 5
        assert results[(0, 10.0)] == 5

    def test_flush_fires_last_window(self):
        # Without flush the [10, 20) window would need a watermark past 20.
        builder = JobBuilder("j")
        (builder.source("s", _els(15))
                .with_watermarks(0.0)
                .key_by(lambda v: 0)
                .window(TumblingWindows(10.0), "count")
                .sink("out"))
        sinks = ParallelExecutor(builder.build()).run()
        assert sum(r.value for r in sinks["out"].values) == 15

    def test_callable_source_reusable(self):
        builder = JobBuilder("j")
        builder.source("s", lambda: iter(_els(3))).sink("out")
        job = builder.build()
        assert len(ParallelExecutor(job).run()["out"]) == 3
        assert len(ParallelExecutor(job).run()["out"]) == 3  # re-runnable

    def test_backpressure_counter(self, monkeypatch):
        builder = JobBuilder("j")
        (builder.source("s", _els(100))
                .map(lambda v: v)
                .sink("out"))
        monkeypatch.setattr(transport, "CHANNEL_CAPACITY", 10)
        executor = ParallelExecutor(builder.build())
        executor.run(source_batch=100)
        assert executor.backpressure_events > 0
        assert len(executor.sinks["out"]) == 100  # nothing lost


class TestCheckpoint:
    def _job(self, name="j"):
        builder = JobBuilder(name)
        (builder.source("s", _els(20))
                .with_watermarks(0.0)
                .key_by(lambda v: v["k"])
                .window(TumblingWindows(5.0), "sum", value_fn=lambda v: v["v"])
                .sink("out"))
        return builder.build()

    def test_checkpoint_restore_replays_exactly(self):
        executor = ParallelExecutor(self._job())
        full = [repr(r) for r in executor.run()["out"].values]
        # Fresh executor: run half, checkpoint, run rest, restore, re-run.
        executor2 = ParallelExecutor(self._job("j2"))
        executor2.run(source_batch=5, max_cycles=2)
        checkpoint = executor2.checkpoint()
        executor2.run()
        executor2.restore(checkpoint)
        replayed = [repr(r) for r in executor2.run()["out"].values]
        assert replayed == full

    def test_checkpoint_with_inflight_rejected(self):
        builder = JobBuilder("j")
        (builder.source("s", _els(50))
                .map(lambda v: v)
                .map(lambda v: v)
                .sink("out"))
        executor = ParallelExecutor(builder.build())
        # Manually stuff a channel to simulate in-flight data (the two
        # maps fuse, so grab whatever channel exists).
        key, senders = next(iter(executor.channels.inputs.items()))
        sender = next(iter(senders))
        executor.channels.offer(key, sender,
                                [Element(value=1, timestamp=0.0)])
        with pytest.raises(CheckpointError):
            executor.checkpoint()


class TestLogConnectors:
    def test_log_source_reads_topic(self):
        cluster = LogCluster(1)
        cluster.create_topic(TopicConfig("in", partitions=2, replication=1))
        producer = Producer(cluster)
        for i in range(10):
            producer.send("in", {"i": i}, key=f"k{i % 3}",
                          timestamp=float(i))
        builder = JobBuilder("j")
        builder.source("in", log_source(cluster, "in")).sink("out")
        sinks = ParallelExecutor(builder.build()).run()
        assert len(sinks["out"]) == 10
        assert {e.key for e in sinks["out"].elements} == {"k0", "k1", "k2"}
