"""Property test: checkpoint/restore is semantically invisible.

For any input stream and any prefix length, running a stateful job to
completion must produce exactly the same sink contents as: run part of
the stream, checkpoint, keep running, crash (restore), and re-run from
the checkpoint.  This is the exactly-once guarantee the streaming
engine claims, checked over randomized streams.

Both kinds of cut — barriers in flight, and one pass over a quiescent
executor — must record the same checkpoint of the same state.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    SITE_OPERATOR,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    reference_events,
    reference_job,
)
from repro.streaming import (
    DEAD_LETTER,
    DLQ_SINK,
    CheckpointCoordinator,
    Element,
    JobBuilder,
    ParallelCheckpoint,
    ParallelExecutor,
    TumblingWindows,
)
from repro.streaming.batch import elements_of
from repro.util.errors import OperatorCrash

MODES = {
    "per_item": dict(batch_mode=False),
    "chained": dict(batch_mode=True),
}

stream_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),  # key
              st.floats(min_value=0.0, max_value=100.0,
                        allow_nan=False)),  # timestamp
    min_size=1, max_size=60)


def _build(elements):
    builder = JobBuilder("ckpt")
    (builder.source("s", list(elements))
            .with_watermarks(5.0)
            .key_by(lambda v: v["k"])
            .window(TumblingWindows(10.0), "sum",
                    value_fn=lambda v: v["v"])
            .sink("out"))
    return builder.build()


def _to_elements(rows):
    return [Element(value={"k": k, "v": float(i)}, timestamp=ts)
            for i, (k, ts) in enumerate(rows)]


def _results(sink_values):
    return sorted((r.key, r.window.start, r.value, r.count)
                  for r in sink_values)


class TestCheckpointInvisibility:
    @given(stream_strategy, st.integers(min_value=0, max_value=8),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_restore_replay_equals_straight_run(self, rows, cycles,
                                                batch):
        elements = _to_elements(rows)
        straight = ParallelExecutor(_build(elements)).run()
        expected = _results(straight["out"].values)

        executor = ParallelExecutor(_build(elements))
        if cycles:  # 0: checkpoint before the first cycle
            executor.run(source_batch=batch, max_cycles=cycles)
        try:
            checkpoint = executor.checkpoint()
        except Exception:
            return  # items in flight at this cut: not a checkpointable
        executor.run()  # "crash" after running ahead
        executor.restore(checkpoint)
        replayed = executor.run()
        assert _results(replayed["out"].values) == expected

    @given(stream_strategy)
    @settings(max_examples=30, deadline=None)
    def test_double_restore_still_exact(self, rows):
        elements = _to_elements(rows)
        expected = _results(
            ParallelExecutor(_build(elements)).run()["out"].values)
        executor = ParallelExecutor(_build(elements))
        executor.run(source_batch=7, max_cycles=2)
        checkpoint = executor.checkpoint()
        for _ in range(2):  # crash twice from the same snapshot
            executor.run()
            executor.restore(checkpoint)
        final = executor.run()
        assert _results(final["out"].values) == expected

    def test_uncoordinated_sink_and_dlq_rewind_to_the_snapshot(self):
        # an uncoordinated run, no checkpoint coordinator: what
        # checkpoint() recorded is what restore() puts back, in the sink
        # and in the dead-letter queue
        def brittle(v):
            if v["v"] % 7 == 3:
                raise ValueError("poison")
            return v

        def executor():
            builder = JobBuilder("plain-dlq")
            (builder.source("s", _to_elements(
                        [(i % 4, float(i)) for i in range(80)]))
                    .map(brittle, name="brittle").on_error(DEAD_LETTER)
                    .sink("out"))
            return ParallelExecutor(builder.build())

        def contents(run):
            return {name: list(buf.elements)
                    for name, buf in run.sinks.items()}

        straight = executor()
        straight.run()
        run = executor()
        run.run(source_batch=16, max_cycles=2)
        checkpoint = run.checkpoint()
        snapshot = contents(run)
        assert snapshot["out"] and snapshot[DLQ_SINK]
        run.run(source_batch=16, max_cycles=2)  # more input, more letters
        assert len(run.sinks[DLQ_SINK]) > len(snapshot[DLQ_SINK])
        run.restore(checkpoint)
        assert contents(run) == snapshot
        run.run()
        assert contents(run) == contents(straight)


class TestMidBatchCrashRestore:
    """Regression: a crash landing *inside* a batch — after the prefix
    already mutated operator state, with more batches in flight and
    watermarks pending in the channels — must restore cleanly."""

    def _events(self, n=120):
        # Late-ish timestamps keep watermarks interleaved with data.
        return [Element(value={"k": i % 3, "v": float(i)},
                        timestamp=float(i % 37)) for i in range(n)]

    def _build(self, elements):
        builder = JobBuilder("crash")
        (builder.source("s", list(elements))
                .with_watermarks(5.0, name="wm")
                .map(lambda v: {"k": v["k"], "v": v["v"] + 1.0},
                     name="bump")
                .key_by(lambda v: v["k"], name="keys")
                .window(TumblingWindows(10.0), "sum",
                        value_fn=lambda v: v["v"], name="agg")
                .sink("out"))
        return builder.build()

    def _crash_plan(self, at, target="agg"):
        return FaultPlan(specs=(
            FaultSpec("operator_crash", SITE_OPERATOR, at=at,
                      target=target),))

    @pytest.mark.parametrize("crash_at", [1, 13, 40, 77])
    @pytest.mark.parametrize("target", ["bump", "agg"])
    def test_crash_with_in_flight_batches_restores_exactly(
            self, crash_at, target):
        elements = self._events()
        expected = _results(ParallelExecutor(self._build(elements))
                            .run()["out"].values)
        executor = ParallelExecutor(
            self._build(elements),
            injector=FaultInjector(self._crash_plan(crash_at, target)))
        checkpoint = executor.checkpoint()  # checkpoint zero
        while True:
            try:
                executor.run(source_batch=16, max_cycles=1)
            except OperatorCrash:
                executor.restore(checkpoint)
                continue
            if executor.done:
                break
            checkpoint = executor.checkpoint()
        assert _results(executor.sinks["out"].values) == expected

    @pytest.mark.parametrize("restore_batch_mode", [False, True])
    def test_cross_mode_restore_into_fresh_executor(
            self, restore_batch_mode):
        """A checkpoint from a batched run must be loadable by a fresh
        executor in any mode; the fresh run emits exactly the suffix."""
        def emitted(values):
            return [(r.key, r.window.start, r.value, r.count)
                    for r in values]

        elements = self._events()
        straight = emitted(ParallelExecutor(self._build(elements))
                           .run(source_batch=16)["out"].values)
        crashed = ParallelExecutor(
            self._build(elements),
            injector=FaultInjector(self._crash_plan(55)))
        crashed.checkpoint()
        checkpoint = None
        try:
            while True:
                crashed.run(source_batch=16, max_cycles=1)
                if crashed.done:
                    pytest.fail("crash never fired")
                checkpoint = crashed.checkpoint()
        except OperatorCrash:
            pass
        assert checkpoint is not None
        delivered = emitted(
            e.value for e in elements_of(checkpoint.sink_elements["out"]))
        assert 0 < len(delivered) < len(straight)
        fresh = ParallelExecutor(self._build(elements),
                                 batch_mode=restore_batch_mode)
        fresh.restore(checkpoint)
        # The snapshot carries what the crashed run had delivered, so the
        # fresh executor adds exactly the suffix — sink emission order is
        # deterministic and mode-independent (the batched-equivalence
        # guarantee), so the whole sink matches positionally.
        assert emitted(fresh.sinks["out"].values) == delivered
        assert emitted(fresh.run(source_batch=16)["out"].values) == straight


class TestBothCutsAgree:
    """A drained job's end-of-job barrier checkpoint and a quiescent
    ``checkpoint()`` of the same executor are the same snapshot."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("p", (1, 2, 4))
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=160),
           st.integers(min_value=1, max_value=48),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_final_cut_equals_quiescent_checkpoint(
            self, p, mode, seed, n, source_batch, interval_cycles):
        # a single-subtask source feeding p-wide operators puts a
        # round-robin edge (and its cursors) into the plan at p > 1
        executor = ParallelExecutor(
            reference_job(reference_events(seed=seed, n=n), splits=4),
            {"default": p, "events": 1}, **MODES[mode])
        coordinator = CheckpointCoordinator(executor,
                                            interval_cycles=interval_cycles)
        while not executor.done:
            executor.run(source_batch=source_batch, max_cycles=1)
        final = coordinator.savepoint()
        quiescent = executor.checkpoint()
        for f in dataclasses.fields(ParallelCheckpoint):
            if f.name == "checkpoint_id":
                continue
            got, want = getattr(quiescent, f.name), getattr(final, f.name)
            if f.name == "sink_elements":
                got, want = ({sink: [e.value for e in elements_of(rows)]
                              for sink, rows in cut.items()}
                             for cut in (got, want))
            assert got == want, f.name
