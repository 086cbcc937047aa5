"""Unit tests: logical -> physical compilation and the parallel executor."""

import pytest

from repro.streaming import (
    Element,
    JobBuilder,
    ParallelExecutor,
    TumblingWindows,
    compile_execution_graph,
)
from repro.streaming import shuffle
from repro.streaming.plan import FORWARD, HASH, MERGE, REBALANCE
from repro.streaming.graph import JobGraph
from repro.streaming.join import IntervalJoinOperator
from repro.streaming.operators import MapOperator
from repro.util.errors import CheckpointError, JobGraphError


def _els(n, key_mod=4):
    return [Element(value=float(i), timestamp=float(i), key=i % key_mod)
            for i in range(n)]


def _windowed_job(n=40, splits=None):
    builder = JobBuilder("j")
    (builder.source("s", _els(n), splits=splits)
            .with_watermarks(0.0)
            .map(lambda v: v * 2.0, name="scale")
            .filter(lambda v: v >= 0.0, name="keep")
            .window(TumblingWindows(10.0), "sum", name="window_sum")
            .sink("out"))
    return builder.build()


class TestCompile:
    def test_edge_modes(self):
        graph = compile_execution_graph(_windowed_job(), 2)
        modes = {(e.up, e.down): e.mode for e in graph.edges}
        chain = next(n for n in graph.nodes.values() if len(n.members) > 1)
        assert modes[("s", chain.name)] == FORWARD
        assert modes[(chain.name, "window_sum")] == HASH
        assert modes[("window_sum", "out")] == MERGE

    def test_parallelism_mismatch_is_rebalance(self):
        builder = JobBuilder("j")
        (builder.source("s", _els(8))
                .map(lambda v: v, name="a")
                .map(lambda v: v, name="b")
                .sink("out"))
        graph = compile_execution_graph(
            builder.build(), {"default": 1, "s": 1, "a": 1, "b": 3})
        modes = {(e.up, e.down): e.mode for e in graph.edges}
        # Unequal parallelism blocks fusion and forces a rebalance edge.
        assert modes[("a", "b")] == REBALANCE
        assert all(len(n.members) == 1 for n in graph.nodes.values())

    def test_parallelism_dict_with_default(self):
        graph = compile_execution_graph(
            _windowed_job(), {"default": 2, "window_sum": 4})
        assert graph.nodes["window_sum"].parallelism == 4
        assert graph.source_parallelism["s"] == 2
        assert graph.max_parallelism() == 4

    def test_rejects_nonpositive_parallelism(self):
        with pytest.raises(JobGraphError, match="parallelism"):
            compile_execution_graph(_windowed_job(), 0)

    def test_rejects_a_parallelism_key_the_job_does_not_have(self):
        with pytest.raises(JobGraphError, match="window_summ"):
            compile_execution_graph(_windowed_job(), {"default": 1,
                                                      "window_summ": 4})
        with pytest.raises(JobGraphError, match="out"):  # a sink
            compile_execution_graph(_windowed_job(), {"out": 2})

    def test_rejects_keyed_parallelism_over_key_groups(self, monkeypatch):
        monkeypatch.setattr(shuffle, "KEY_GROUPS", 8)
        with pytest.raises(JobGraphError, match="8 key groups"):
            compile_execution_graph(_windowed_job(), {"default": 1,
                                                      "window_sum": 16})
        graph = compile_execution_graph(_windowed_job(), {"default": 1,
                                                          "window_sum": 8})
        assert graph.nodes["window_sum"].parallelism == 8

    def test_rejects_source_parallelism_over_splits(self):
        with pytest.raises(JobGraphError, match="splits"):
            compile_execution_graph(_windowed_job(splits=2),
                                    {"default": 1, "s": 4})

    def test_describe_smoke(self):
        text = compile_execution_graph(_windowed_job(), 2).describe()
        assert "window_sum x2 (keyed)" in text
        assert "hash" in text


class TestGraphValidation:
    """JobGraph.validate / JobBuilder guards (direct construction where
    the builder cannot produce the malformed shape)."""

    def test_edge_out_of_sink_rejected(self):
        builder = JobBuilder("j")
        handle = builder.source("s", _els(2)).map(lambda v: v, name="m")
        handle.map(lambda v: v, name="m2").sink("out2")
        handle.sink("out")
        job = builder.build()
        # "out" -> "m2" keeps the graph acyclic, so the terminal-sink
        # check is what fires.
        bad = JobGraph(name="j", sources=job.sources,
                       operators=job.operators,
                       edges=job.edges + [("out", "m2", None)],
                       sinks=job.sinks)
        with pytest.raises(JobGraphError, match="terminal"):
            bad.validate()

    def test_sink_colliding_with_operator_rejected(self):
        builder = JobBuilder("j")
        builder.source("s", _els(2)).map(lambda v: v, name="m").sink("out")
        job = builder.build()
        # Declare the terminal operator itself as a sink name: no
        # outgoing edges, so only the collision check can reject it.
        bad = JobGraph(name="j", sources=job.sources,
                       operators=job.operators,
                       edges=[("s", "m", None)], sinks={"m"})
        with pytest.raises(JobGraphError, match="collides"):
            bad.validate()

    def test_operator_named_like_a_source_rejected(self):
        # "s" fed by "t" would run merged with the source "s" as one node
        bad = JobGraph(name="j", sources={"s": None, "t": None},
                       operators={"s": MapOperator("s", abs)},
                       edges=[("t", "s", None), ("s", "out", None)],
                       sinks=["out"])
        with pytest.raises(JobGraphError) as err:
            bad.validate()
        assert str(err.value) == ("operator 's' collides with an "
                                  "existing source")

    @pytest.mark.parametrize("sides, got", [
        (("left", None), "['left', None]"),
        ((None, "right"), "['right', None]"),
        ((None, None), "[None, None]"),
        (("left", "left"), "['left', 'left']"),
    ])
    def test_join_sides_are_checked_tagged_or_not(self, sides, got):
        bad = JobGraph(name="j", sources={"a": None, "b": None},
                       operators={"j": IntervalJoinOperator("j", 0.0, 1.0)},
                       edges=[("a", "j", sides[0]), ("b", "j", sides[1]),
                              ("j", "out", None)],
                       sinks=["out"])
        with pytest.raises(JobGraphError) as err:
            bad.validate()
        assert str(err.value) == ("join 'j' needs exactly one 'left' and "
                                  f"one 'right' input, got {got}")

    def test_sink_name_collision_in_builder(self):
        builder = JobBuilder("j")
        handle = builder.source("s", _els(2)).map(lambda v: v, name="m")
        with pytest.raises(JobGraphError):
            handle.sink("m")

    def test_duplicate_edge_rejected(self):
        builder = JobBuilder("j")
        builder.source("s", _els(2)).map(lambda v: v, name="m").sink("out")
        with pytest.raises(JobGraphError, match="duplicate"):
            builder._add_edge("s", "m", None)


class TestParallelExecutor:
    def test_p1_matches_single_instance(self):
        expected = ParallelExecutor(_windowed_job(),
                                    batch_mode=False).run()["out"]
        executor = ParallelExecutor(_windowed_job(), 1)
        executor.run()
        got = executor.sinks["out"]
        assert [repr(v) for v in got.values] \
            == [repr(v) for v in expected.values]

    def test_logical_counters_sum_subtasks(self):
        executor = ParallelExecutor(_windowed_job(), 4)
        executor.run()
        processed, emitted = executor.logical_counters("window_sum")
        assert processed == sum(
            op.processed for op in executor.subtask_operators("window_sum"))
        assert len(executor.subtask_operators("window_sum")) == 4
        assert processed > 0 and emitted > 0

    def test_checkpoint_with_inflight_rejected(self):
        executor = ParallelExecutor(_windowed_job(), 2)
        executor.run(max_cycles=1, source_batch=8)
        key, senders = next(iter(executor.channels.inputs.items()))
        sender = next(iter(senders))
        executor.channels.offer(key, sender,
                                [Element(value=1.0, timestamp=0.0)])
        with pytest.raises(CheckpointError, match="in flight"):
            executor.checkpoint()

    def test_restore_rejects_key_group_mismatch(self, monkeypatch):
        executor = ParallelExecutor(_windowed_job(), 2)
        executor.run(max_cycles=1, source_batch=8)
        snapshot = executor.checkpoint()
        assert snapshot.num_key_groups == shuffle.KEY_GROUPS
        # a checkpoint written under another key-group count
        monkeypatch.setattr(shuffle, "KEY_GROUPS", 32)
        other = ParallelExecutor(_windowed_job(), 2)
        with pytest.raises(CheckpointError, match="key group"):
            other.restore(snapshot)

    def test_restore_rejects_split_count_mismatch(self):
        executor = ParallelExecutor(_windowed_job(splits=2), 2)
        executor.run(max_cycles=1, source_batch=8)
        snapshot = executor.checkpoint()
        other = ParallelExecutor(_windowed_job(splits=4), 2)
        with pytest.raises(CheckpointError, match="splits"):
            other.restore(snapshot)

    @pytest.mark.parametrize("batch_mode", (True, False))
    @pytest.mark.parametrize("source_batch", (0, -1))
    def test_run_rejects_a_source_batch_below_one(self, batch_mode,
                                                  source_batch):
        executor = ParallelExecutor(_windowed_job(), batch_mode=batch_mode)
        # max_cycles: an unguarded per-item run would pull nothing forever
        with pytest.raises(JobGraphError,
                           match=f"source_batch.*{source_batch}"):
            executor.run(source_batch=source_batch, max_cycles=3)
        # a cycle bound below one used to run one cycle anyway
        for cycles in (0, -3):
            with pytest.raises(JobGraphError,
                               match=f"max_cycles.*{cycles}"):
                executor.run(source_batch=8, max_cycles=cycles)
        assert executor.sources.positions() == {"s": {0: 0}}

    def test_lane_items_sum_the_logical_counters(self):
        job = _windowed_job(200, splits=4)
        executor = ParallelExecutor(job, 4)
        executor.run(source_batch=16)
        lanes = executor.lane_items()
        assert len(lanes) == 4 and min(lanes) > 0
        assert sum(lanes) == sum(executor.logical_counters(op)[0]
                                 for op in job.operators)

    @pytest.mark.parametrize("parallelism", (1, 2, 4))
    def test_lane_items_repeat_in_both_modes(self, parallelism):
        lanes = set()
        for batch_mode in (True, True, False, False):
            executor = ParallelExecutor(_windowed_job(400, splits=4),
                                        parallelism, batch_mode=batch_mode)
            executor.run(source_batch=16)
            lanes.add(tuple(executor.lane_items()))
        (counts,) = lanes
        assert len(counts) == parallelism and min(counts) > 0


#: one two-region run (p=1, two macro cycles), then the digest of its
#: quiescent checkpoint
_DIGEST = """
import hashlib, pickle
from repro.chaos import reference_events, two_region_job
from repro.streaming import ParallelExecutor
executor = ParallelExecutor(two_region_job(reference_events(seed=1, n=160),
                                           reference_events(seed=2, n=160)))
executor.run(source_batch=16, max_cycles=2)
print(hashlib.sha256(pickle.dumps(executor.checkpoint())).hexdigest())
"""


def test_checkpoint_bytes_do_not_depend_on_the_hash_seed():
    """Sink order and the operators' topological order follow the job's
    declaration order, not ``set`` iteration: two interpreters with
    different hash seeds cut byte-identical checkpoints."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    digests = set()
    for seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        digests.add(subprocess.run(
            [sys.executable, "-c", _DIGEST], env=env, check=True,
            capture_output=True, text=True).stdout.strip())
    assert len(digests) == 1, digests
