"""Property tests: batched (chained) execution ≡ per-item execution.

The executor promises that ``batch_mode`` is a pure performance knob:
for any job graph and any input stream, both execution modes produce
identical sink contents AND identical checkpoints.  These tests drive
randomized streams (out-of-order timestamps, watermark interleavings)
through the same job under every mode and compare exactly.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.streaming import (
    Element,
    JobBuilder,
    ParallelExecutor,
    TumblingWindows,
)

MODES = {
    "per_item": dict(batch_mode=False),
    "chained": dict(batch_mode=True),
}

stream_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),          # key
              st.floats(min_value=0.0, max_value=200.0,        # timestamp
                        allow_nan=False)),
    min_size=1, max_size=80)


def _to_elements(rows):
    return [Element(value={"k": k, "v": float(i)}, timestamp=ts)
            for i, (k, ts) in enumerate(rows)]


def _run_modes(make_builder, source_batch=256, parallelism=1):
    out = {}
    for mode, flags in MODES.items():
        executor = ParallelExecutor(make_builder().build(), parallelism,
                                    **flags)
        executor.run(source_batch=source_batch)
        out[mode] = executor
    return out


def _counters(executor):
    return {name: [(op.processed, op.emitted)
                   for op in executor.subtask_operators(name)]
            for name in executor.job.operators}


def _assert_identical(executors):
    """Same sinks, same operator state and counters, same source
    positions — exactly."""
    base = executors["per_item"]
    base_ckpt = base.checkpoint()
    other = executors["chained"]
    for name, sink in base.sinks.items():
        assert other.sinks[name].elements == sink.elements, name
    assert _counters(other) == _counters(base)
    ckpt = other.checkpoint()
    assert ckpt.source_positions == base_ckpt.source_positions
    assert ckpt.scalar_state == base_ckpt.scalar_state
    assert ckpt.keyed_state == base_ckpt.keyed_state
    assert ckpt.sink_elements == base_ckpt.sink_elements


class TestWindowedEquivalence:
    @given(stream_strategy,
           st.integers(min_value=1, max_value=9),    # watermark cadence
           st.integers(min_value=1, max_value=32))   # source batch size
    @settings(max_examples=40, deadline=None)
    def test_out_of_order_windows(self, rows, emit_every, source_batch):
        elements = _to_elements(rows)

        def make_builder():
            builder = JobBuilder("eq")
            (builder.source("s", elements)
                    .map(lambda v: {"k": v["k"], "v": v["v"] * 2.0})
                    .with_watermarks(3.0, emit_every=emit_every)
                    .key_by(lambda v: v["k"])
                    .window(TumblingWindows(10.0), "sum",
                            value_fn=lambda v: v["v"])
                    .sink("out"))
            return builder
        _assert_identical(_run_modes(make_builder, source_batch))

    @given(stream_strategy)
    @settings(max_examples=25, deadline=None)
    def test_late_side_output_equivalence(self, rows):
        # The late/on-time split (late rows are dropped and counted)
        # depends on exact watermark interleaving, so it is a sharp
        # probe of batch segmentation.
        elements = _to_elements(rows)

        def make_builder():
            builder = JobBuilder("late")
            (builder.source("s", elements)
                    .with_watermarks(1.0, emit_every=2)
                    .key_by(lambda v: v["k"])
                    .window(TumblingWindows(5.0), "count")
                    .sink("out"))
            return builder
        _assert_identical(_run_modes(make_builder))


class TestStatefulChains:
    @given(stream_strategy, st.integers(min_value=1, max_value=16))
    @settings(max_examples=30, deadline=None)
    def test_window_pipeline(self, rows, source_batch):
        elements = _to_elements(rows)

        def make_builder():
            builder = JobBuilder("win")
            (builder.source("s", elements)
                    .with_watermarks(1.0, emit_every=2)
                    .map(lambda v: v["v"])
                    .filter(lambda v: v != 13.0)
                    .key_by(lambda v: v % 3.0)
                    .window(TumblingWindows(10.0), "sum")
                    .sink("out"))
            return builder
        _assert_identical(_run_modes(make_builder, source_batch))

    @given(stream_strategy)
    @settings(max_examples=25, deadline=None)
    def test_vectorized_equals_scalar_everywhere(self, rows):
        values = [float(i) for i, _ in enumerate(rows)]
        elements = [Element(v, float(i)) for i, v in enumerate(values)]

        def make_builder(vectorized):
            builder = JobBuilder("vec")
            source = builder.source("s", elements)
            if vectorized:
                (source.map(lambda v: v * 2.0 - 1.0, vectorized=True)
                       .filter(lambda v: v >= 3.0, vectorized=True)
                       .key_by(lambda v: v % 4.0, vectorized=True)
                       .window(TumblingWindows(10.0), "sum")
                       .map(lambda r: r.value)
                       .sink("out"))
            else:
                (source.map(lambda v: v * 2.0 - 1.0)
                       .filter(lambda v: v >= 3.0)
                       .key_by(lambda v: v % 4.0)
                       .window(TumblingWindows(10.0), "sum")
                       .map(lambda r: r.value)
                       .sink("out"))
            return builder

        reference = ParallelExecutor(make_builder(False).build(),
                                     batch_mode=False).run()["out"]
        expected = [(float(e.value), e.timestamp, float(e.key))
                    for e in reference.elements]
        for flags in MODES.values():
            got = ParallelExecutor(make_builder(True).build(),
                                   **flags).run()["out"]
            assert [(float(e.value), e.timestamp, float(e.key))
                    for e in got.elements] == expected


class TestLooseElements:
    """Behind a window every operator of a batched run receives loose
    Elements (the fired results) — the per-item path inside batched
    mode."""

    @given(stream_strategy, st.integers(min_value=1, max_value=16),
           st.integers(min_value=1, max_value=6))
    # a chained cut restored per-item (and back) at p=2 once lost the
    # split watermark that fires key 2's window before key 0's second
    @example(rows=[(0, 0.0)] * 11 + [(0, 25.0), (2, 0.0)], source_batch=1,
             cycles=6)
    @settings(max_examples=25, deadline=None)
    def test_keyed_exchange_behind_a_window(self, rows, source_batch,
                                            cycles):
        elements = [Element(float(k), ts) for k, ts in rows]

        def make_builder():
            # the sink's element list records the order the window fires
            # its keys in, which a lost watermark changes
            builder = JobBuilder("loose")
            (builder.source("s", elements)
                    .with_watermarks(5.0, emit_every=3)
                    .key_by(lambda v: v % 3.0)
                    .window(TumblingWindows(20.0), "sum")
                    .map(lambda r: r.value + 0.5)
                    .key_by(lambda v: v % 3.0)
                    .sink("out"))
            return builder

        for p in (1, 2):
            runs = _run_modes(make_builder, source_batch, p)
            _assert_identical(runs)
            # a checkpoint cut mid-run in one mode finishes in the other
            for taken, finisher in (("chained", "per_item"),
                                    ("per_item", "chained")):
                donor = ParallelExecutor(make_builder().build(), p,
                                         **MODES[taken])
                donor.run(source_batch=source_batch, max_cycles=cycles)
                survivor = ParallelExecutor(make_builder().build(), p,
                                            **MODES[finisher])
                survivor.restore(donor.checkpoint())
                assert (survivor.run(source_batch=source_batch)["out"]
                        .elements == runs["per_item"].sinks["out"].elements)


class TestCheckpointPortability:
    @given(stream_strategy, st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=30, deadline=None)
    def test_chained_checkpoint_restores_per_item(self, rows, cycles,
                                                  batch):
        """A snapshot taken mid-run under chained execution must restore
        into a per-item executor (and vice versa) and replay to the same
        final results — checkpoints are mode-portable because they
        capture the logical operators, not the execution plan."""
        elements = _to_elements(rows)

        def make_builder():
            builder = JobBuilder("port")
            (builder.source("s", elements)
                    .with_watermarks(5.0)
                    .key_by(lambda v: v["k"])
                    .window(TumblingWindows(10.0), "sum",
                            value_fn=lambda v: v["v"])
                    .sink("out"))
            return builder

        expected = ParallelExecutor(make_builder().build(),
                                    batch_mode=False).run()["out"].elements

        donor = ParallelExecutor(make_builder().build(), batch_mode=True)
        donor.run(source_batch=batch, max_cycles=cycles)
        checkpoint = donor.checkpoint()

        # Restore into a *fresh per-item* executor over the same logical
        # job (the snapshot carries the sink prefix); replay must land
        # on the same sink contents.
        survivor = ParallelExecutor(make_builder().build(), batch_mode=False)
        survivor.restore(checkpoint)
        assert survivor.run()["out"].elements == expected

    @given(stream_strategy, st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_batched_restore_replay_exact(self, rows, cycles):
        elements = _to_elements(rows)

        def make_builder():
            builder = JobBuilder("rr")
            (builder.source("s", elements)
                    .with_watermarks(5.0)
                    .key_by(lambda v: v["k"])
                    .window(TumblingWindows(10.0), "sum",
                            value_fn=lambda v: v["v"])
                    .sink("out"))
            return builder

        expected = ParallelExecutor(make_builder().build(),
                                    batch_mode=False).run()["out"].elements
        executor = ParallelExecutor(make_builder().build())
        executor.run(source_batch=8, max_cycles=cycles)
        checkpoint = executor.checkpoint()
        executor.run()           # run ahead, then "crash"
        executor.restore(checkpoint)
        assert executor.run()["out"].elements == expected
