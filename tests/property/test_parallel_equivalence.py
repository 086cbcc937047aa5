"""Property tests: parallel execution ≡ single-instance execution.

The logical -> physical compiler promises that parallelism is a pure
deployment knob: with a key-aligned source (same key -> same split),
sinks at parallelism N are bit-identical to the single-instance run for
every execution mode — only cross-key emission order is unguaranteed,
so comparisons canonicalize by sorting reprs (exact float bits, order
normalized).  Rescaling strengthens it: a checkpoint taken at
parallelism A restored at parallelism B must land on the same sinks as
a run that was never interrupted.

Unkeyed sources round-robin across splits, which reorders same-key
float accumulation; there equality holds only up to float rounding —
the documented weaker contract, pinned by its own test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import (
    Element,
    JobBuilder,
    ParallelExecutor,
    PatternOperator,
    PatternStep,
    TumblingWindows,
)

MODES = {
    "per_item": dict(batch_mode=False),
    "chained": dict(batch_mode=True),
}
PARALLELISMS = (1, 2, 4)
N_SPLITS = 4

keyed_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7),               # key
              st.floats(min_value=-50.0, max_value=50.0,           # value
                        allow_nan=False)),
    min_size=1, max_size=60)


def _keyed_elements(rows, jitter=0.0):
    # Timestamps advance monotonically (plus bounded jitter well under
    # the 5.0 lateness) so no element is late in any plan — lateness
    # semantics are pinned separately by the chaos/rescale suites.
    return [Element(value=float(v), timestamp=i * 0.7 + (jitter * (i % 3)),
                    key=k) for i, (k, v) in enumerate(rows)]


def _canon(sink_values):
    return sorted(repr(v) for v in sink_values)


def _assert_parallel_matches(make_job, source_batch=16):
    expected = _canon(ParallelExecutor(
        make_job(), batch_mode=False).run()["out"].values)
    for mode, flags in MODES.items():
        for p in PARALLELISMS:
            executor = ParallelExecutor(make_job(), p, **flags)
            executor.run(source_batch=source_batch)
            got = _canon(executor.sinks["out"].values)
            assert got == expected, (
                f"parallelism {p} ({mode}) diverged from single instance")


class TestKeyAlignedEquivalence:
    @given(keyed_rows, st.integers(min_value=1, max_value=32))
    @settings(max_examples=15, deadline=None)
    def test_windowed_sum(self, rows, source_batch):
        elements = _keyed_elements(rows)

        def make_job():
            builder = JobBuilder("eq-window")
            (builder.source("s", elements, splits=N_SPLITS)
                    .with_watermarks(5.0, emit_every=4)
                    .map(lambda v: v * 2.0, name="scale")
                    .window(TumblingWindows(10.0), "sum", name="win")
                    .sink("out"))
            return builder.build()
        _assert_parallel_matches(make_job, source_batch)

    @given(keyed_rows, st.integers(min_value=1, max_value=32))
    @settings(max_examples=15, deadline=None)
    def test_keyed_reduce(self, rows, source_batch):
        elements = _keyed_elements(rows)

        def make_job():
            builder = JobBuilder("eq-reduce")
            (builder.source("s", elements, splits=N_SPLITS)
                    .filter(lambda v: v > -40.0, name="keep")
                    .reduce(lambda a, b: a + b)
                    .sink("out"))
            return builder.build()
        _assert_parallel_matches(make_job, source_batch)

    @given(keyed_rows, keyed_rows)
    @settings(max_examples=10, deadline=None)
    def test_interval_join(self, left_rows, right_rows):
        left = _keyed_elements(left_rows)
        right = _keyed_elements(right_rows)

        def make_job():
            builder = JobBuilder("eq-join")
            l = (builder.source("l", left, splits=N_SPLITS)
                        .with_watermarks(5.0, emit_every=4))
            r = (builder.source("r", right, splits=N_SPLITS)
                        .with_watermarks(5.0, emit_every=4))
            l.join(r, -5.0, 5.0).sink("out")
            return builder.build()
        _assert_parallel_matches(make_job)


class TestRescaling:
    def _make_job(self, rows):
        elements = _keyed_elements(rows)
        builder = JobBuilder("rescale")
        # splits pinned so every parallelism shares the rescaling unit
        (builder.source("s", elements, splits=N_SPLITS)
                .with_watermarks(5.0, emit_every=4)
                .map(lambda v: v * 1.5, name="scale")
                .window(TumblingWindows(10.0), "sum", name="win")
                .sink("out"))
        return builder.build()

    @given(keyed_rows)
    @settings(max_examples=10, deadline=None)
    def test_rescale_matches_uninterrupted(self, rows):
        expected = _canon(ParallelExecutor(
            self._make_job(rows), batch_mode=False).run()["out"].values)
        for old_p, new_p in ((2, 4), (4, 2), (1, 4), (4, 1)):
            donor = ParallelExecutor(self._make_job(rows), old_p)
            donor.run(source_batch=8, max_cycles=2)
            snapshot = donor.checkpoint()
            survivor = ParallelExecutor(self._make_job(rows), new_p)
            survivor.restore(snapshot)
            survivor.run(source_batch=8)
            got = _canon(survivor.sinks["out"].values)
            assert got == expected, (
                f"rescale {old_p}->{new_p} diverged from uninterrupted run")

    def test_same_parallelism_restore_is_exact(self):
        # At unchanged parallelism routing state restores too, so the
        # replay is exact in raw emission order, not just canonically.
        rows = [(i % 5, float(i)) for i in range(50)]
        reference = ParallelExecutor(self._make_job(rows), 4)
        reference.run(source_batch=8)
        expected = [repr(v) for v in reference.sinks["out"].values]
        executor = ParallelExecutor(self._make_job(rows), 4)
        executor.run(source_batch=8, max_cycles=2)
        snapshot = executor.checkpoint()
        executor.run(source_batch=8)       # run ahead, then "crash"
        executor.restore(snapshot)
        executor.run(source_batch=8)
        assert [repr(v) for v in executor.sinks["out"].values] == expected


def _counter_job(kind):
    """A p-agnostic job around one keyed operator named ``op`` (the
    join is ``join_0``, the name the builder gives it) whose job-wide
    counter (window ``fired``, join and CEP ``matches``) is
    already non-zero a few cycles in."""
    rows = [(i % 3, float(i % 7)) for i in range(120)]
    builder = JobBuilder(f"counters-{kind}")
    if kind == "join":
        left = (builder.source("l", _keyed_elements(rows), splits=N_SPLITS)
                       .with_watermarks(5.0, emit_every=4))
        right = (builder.source("r", _keyed_elements(rows[::-1]),
                                splits=N_SPLITS)
                        .with_watermarks(5.0, emit_every=4))
        left.join(right, -2.0, 2.0).sink("out")
        return builder.build()
    stream = (builder.source("s", _keyed_elements(rows), splits=N_SPLITS)
                     .with_watermarks(5.0, emit_every=4))
    if kind == "window":
        stream = stream.window(TumblingWindows(10.0), "sum", name="op")
    else:
        stream = stream.apply(PatternOperator(
            "op", [PatternStep("high", lambda v: v >= 5.0),
                   PatternStep("low", lambda v: v <= 1.0)], within_s=20.0))
    return stream.sink("out").build()


def _counter_total(executor, kind):
    attr = "fired" if kind == "window" else "matches"
    name = "join_0" if kind == "join" else "op"
    return sum(getattr(clone, attr)
               for clone in executor.subtask_operators(name))


class TestRescaleCounters:
    """Job-wide counters survive a rescale *out of* parallelism 1: the
    executor says the restore is not exact, so only the primary subtask
    carries the single old subtask's totals."""

    @pytest.mark.parametrize("new_p", [2, 4])
    @pytest.mark.parametrize("kind", ["window", "join", "cep"])
    def test_rescale_out_of_one_keeps_counter_totals(self, kind, new_p):
        reference = ParallelExecutor(_counter_job(kind), 1)
        reference.run(source_batch=8)
        donor = ParallelExecutor(_counter_job(kind), 1)
        donor.run(source_batch=8, max_cycles=6)
        snapshot = donor.checkpoint()
        at_cut = _counter_total(donor, kind)
        assert at_cut > 0
        survivor = ParallelExecutor(_counter_job(kind), new_p)
        survivor.restore(snapshot)
        assert _counter_total(survivor, kind) == at_cut
        survivor.run(source_batch=8)
        assert _counter_total(survivor, kind) == \
            _counter_total(reference, kind)


class TestUnkeyedRoundRobin:
    @given(keyed_rows)
    @settings(max_examples=10, deadline=None)
    def test_equal_up_to_float_rounding(self, rows):
        # Unkeyed elements round-robin across splits; key_by downstream
        # re-keys them, but same-key accumulation order now depends on
        # the split interleave — sums agree only up to last-ulp noise.
        elements = [Element(value={"k": k, "v": float(v)},
                            timestamp=i * 0.7)
                    for i, (k, v) in enumerate(rows)]

        def make_job():
            builder = JobBuilder("rr")
            (builder.source("s", elements, splits=N_SPLITS)
                    .with_watermarks(5.0, emit_every=4)
                    .key_by(lambda v: v["k"])
                    .window(TumblingWindows(10.0), "sum",
                            value_fn=lambda v: v["v"], name="win")
                    .sink("out"))
            return builder.build()

        def rounded(values):
            return sorted((r.key, r.window.start, round(float(r.value), 6),
                           r.count) for r in values)

        expected = rounded(ParallelExecutor(
            make_job(), batch_mode=False).run()["out"].values)
        for p in PARALLELISMS:
            executor = ParallelExecutor(make_job(), p)
            executor.run(source_batch=16)
            assert rounded(executor.sinks["out"].values) == expected, (
                f"parallelism {p} diverged beyond float rounding")
