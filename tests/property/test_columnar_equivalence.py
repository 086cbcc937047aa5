"""Property tests: columnar execution ≡ per-element execution.

The columnar ``RecordBatch`` representation (see "Columnar batch
representation" in docs/ARCHITECTURE.md) promises to be an *encoding*,
not a semantic: for any job and any input stream, batched execution
(columns, fused where the plan allows) produces bit-identical sink contents and
checkpoint state to element-at-a-time dispatch (``batch_mode=False``,
the reference).  These tests drive randomized streams through vectorized
kernels, through the mixed/opaque-value fallback, through parallel
plans with hash shuffles and the columnar source merge, and through
rescale restores, comparing exactly every time.

Punctuated batches (watermarks riding inside the batch, "Columnar batch
representation") get their own section: the generator's cadence, the
kernels that carry punctuation, the shuffle that fans it out and the
window that reads it must reproduce the per-item interleaving exactly,
at every parallelism and across barrier cuts and crashes.
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    SITE_OPERATOR,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    fault_free_sinks,
    reference_events,
    reference_job,
    run_coordinated,
)
from repro.streaming import (
    CheckpointCoordinator,
    CheckpointStore,
    Element,
    JobBuilder,
    ParallelExecutor,
    TumblingWindows,
    Watermark,
)
from repro.streaming.batch import (
    RecordBatch,
    decode_items,
    item_weight,
    take_prefix,
)
from repro.streaming.operators import WatermarkGenerator

import numpy as np

MODES = {
    "per_item": dict(batch_mode=False),
    "chained": dict(batch_mode=True),
}
PARALLELISMS = (1, 2, 4)
N_SPLITS = 4

numeric_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7),          # key
              st.floats(min_value=-50.0, max_value=50.0,      # value
                        allow_nan=False)),
    min_size=1, max_size=70)

# Mixed payloads: floats ride the float64 column, ints/strings force
# the opaque-list path batch by batch — including batches where the
# two kinds interleave, which must disable the numeric column entirely.
mixed_value = st.one_of(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    st.integers(min_value=-50, max_value=50),
    st.text(alphabet="abc", min_size=0, max_size=3))
mixed_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), mixed_value),
    min_size=1, max_size=70)


def _run_all_modes(make_job, source_batch):
    out = {}
    for mode, flags in MODES.items():
        executor = ParallelExecutor(make_job(), **flags)
        executor.run(source_batch=source_batch)
        out[mode] = executor
    return out


def _assert_identical(executors):
    """Same sinks, same operator state, same source positions — exactly."""
    base = executors["per_item"]
    base_ckpt = base.checkpoint()
    for mode, other in executors.items():
        if mode == "per_item":
            continue
        for name, sink in base.sinks.items():
            assert other.sinks[name].elements == sink.elements, (mode, name)
        ckpt = other.checkpoint()
        assert ckpt.source_positions == base_ckpt.source_positions, mode
        assert ckpt.scalar_state == base_ckpt.scalar_state, mode
        assert ckpt.keyed_state == base_ckpt.keyed_state, mode
        assert ckpt.sink_elements == base_ckpt.sink_elements, mode


class TestColumnarKernels:
    @given(numeric_rows,
           st.integers(min_value=1, max_value=9),     # watermark cadence
           st.integers(min_value=1, max_value=48))    # source batch
    @settings(max_examples=30, deadline=None)
    def test_vectorized_pipeline(self, rows, emit_every, source_batch):
        # The full kernel chain: vectorized map/filter/keyBy, watermark
        # generator, and the grouped-reduction window sum.
        elements = [Element(value=float(v), timestamp=i * 0.7)
                    for i, (_, v) in enumerate(rows)]

        def make_job():
            builder = JobBuilder("columnar-vec")
            (builder.source("s", elements)
                    .map(lambda v: v * 1.5 + 1.0, vectorized=True)
                    .filter(lambda v: v > -60.0, vectorized=True)
                    .key_by(lambda v: np.floor(v) % 4, vectorized=True)
                    .with_watermarks(3.0, emit_every=emit_every)
                    .window(TumblingWindows(10.0), "sum")
                    .sink("out"))
            return builder.build()
        _assert_identical(_run_all_modes(make_job, source_batch))

    @given(mixed_rows, st.integers(min_value=1, max_value=32))
    @settings(max_examples=30, deadline=None)
    def test_mixed_opaque_values_force_fallback(self, rows, source_batch):
        # Non-float payloads must ride the opaque path and fall back to
        # per-item kernels without changing a single sink element.
        elements = [Element(value=v, timestamp=i * 0.7, key=k)
                    for i, (k, v) in enumerate(rows)]

        def make_job():
            builder = JobBuilder("columnar-opaque")
            (builder.source("s", elements)
                    .map(lambda v: (v, v))
                    .filter(lambda v: v[0] == v[1])
                    .with_watermarks(3.0, emit_every=4)
                    .window(TumblingWindows(10.0), "count",
                            value_fn=lambda v: v[0])
                    .sink("out"))
            return builder.build()
        _assert_identical(_run_all_modes(make_job, source_batch))

    @given(numeric_rows, st.integers(min_value=1, max_value=32))
    @settings(max_examples=20, deadline=None)
    def test_keyed_source_window_kernel(self, rows, source_batch):
        # keys set at the source, straight into the window's kernel
        elements = [Element(value=float(v), timestamp=i * 0.7, key=k)
                    for i, (k, v) in enumerate(rows)]

        def make_job():
            builder = JobBuilder("columnar-keyed-source")
            (builder.source("s", elements)
                    .window(TumblingWindows(10.0), "mean")
                    .sink("out"))
            return builder.build()
        _assert_identical(_run_all_modes(make_job, source_batch))


class TestParallelColumnar:
    def _make_job(self, rows):
        # Keyed elements with per-split-monotone timestamps: the
        # columnar source merge takes its lexsort fast path while the
        # per-item run heap-merges — outputs must still match exactly.
        elements = [Element(value=float(v), timestamp=i * 0.7, key=k)
                    for i, (k, v) in enumerate(rows)]
        builder = JobBuilder("columnar-parallel")
        (builder.source("s", elements, splits=N_SPLITS)
                .with_watermarks(5.0, emit_every=4)
                .map(lambda v: v * 1.5, name="scale")
                .window(TumblingWindows(10.0), "sum", name="win")
                .sink("out"))
        return builder.build()

    @given(numeric_rows, st.integers(min_value=1, max_value=32))
    @settings(max_examples=15, deadline=None)
    def test_parallel_columnar_matches_plain(self, rows, source_batch):
        for p in PARALLELISMS:
            runs = {}
            for mode, flags in MODES.items():
                executor = ParallelExecutor(self._make_job(rows), p, **flags)
                executor.run(source_batch=source_batch)
                runs[mode] = executor
            ckpts = {mode: run.checkpoint() for mode, run in runs.items()}
            for mode, col in runs.items():
                assert (col.sinks["out"].elements
                        == runs["per_item"].sinks["out"].elements), (p, mode)
                # Keyed state is snapshotted per key group; the whole
                # checkpoint (a dataclass) must compare equal field-wise.
                _assert_checkpoints_match(ckpts[mode], ckpts["per_item"],
                                          (p, mode))

    @given(numeric_rows)
    @settings(max_examples=10, deadline=None)
    def test_rescale_restore_columnar(self, rows):
        expected = ParallelExecutor(self._make_job(rows),
                                    batch_mode=False).run()["out"].elements
        for old_p, new_p in ((1, 2), (1, 4), (2, 4), (4, 1)):
            donor = ParallelExecutor(self._make_job(rows), old_p)
            donor.run(source_batch=8, max_cycles=2)
            snapshot = donor.checkpoint()
            survivor = ParallelExecutor(self._make_job(rows), new_p)
            survivor.restore(snapshot)
            survivor.run(source_batch=8)
            got = sorted(repr(e) for e in survivor.sinks["out"].elements)
            want = sorted(repr(e) for e in expected)
            assert got == want, (
                f"columnar rescale {old_p}->{new_p} diverged")

    @given(mixed_rows)
    @settings(max_examples=10, deadline=None)
    def test_parallel_mixed_values_fallback(self, rows):
        # Opaque payloads through a parallel hash shuffle: batches must
        # fall back to per-element routing without changing delivery.
        elements = [Element(value=v, timestamp=i * 0.7, key=k)
                    for i, (k, v) in enumerate(rows)]

        def make_job():
            builder = JobBuilder("columnar-parallel-opaque")
            (builder.source("s", elements, splits=N_SPLITS)
                    .with_watermarks(5.0, emit_every=4)
                    .window(TumblingWindows(10.0), "count", name="win")
                    .sink("out"))
            return builder.build()

        for p in PARALLELISMS:
            runs = {}
            for batch_mode in (False, True):
                executor = ParallelExecutor(make_job(), p,
                                            batch_mode=batch_mode)
                executor.run(source_batch=16)
                runs[batch_mode] = executor
            assert (runs[True].sinks["out"].elements
                    == runs[False].sinks["out"].elements), p
            assert runs[True].checkpoint() == runs[False].checkpoint(), p


# -- punctuated batches ------------------------------------------------------

EMIT_EVERY = (1, 2, 7, 32)

punctuated_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7),          # key
              st.floats(min_value=-50.0, max_value=50.0,      # value
                        allow_nan=False),
              st.floats(min_value=0.0, max_value=9.0)),       # ts jitter
    min_size=1, max_size=90)


def _punctuated_elements(rows, ordered):
    """Time-ordered input keeps every candidate watermark (the default
    cadence's worst case: one per row); jittered input repeats and
    skips them."""
    return [Element(value=float(v), key=k,
                    timestamp=i * 0.7 + (0.0 if ordered else jitter))
            for i, (k, v, jitter) in enumerate(rows)]


def _punctuated_job(elements, emit_every, splits=None):
    # The filter sits between generator and window, so watermarks end
    # up leading their batch (first rows dropped) and repeating at one
    # offset (a run of rows dropped).  The second stage is fed by the
    # first window's output: loose results between runs of watermarks
    # that fired nothing, which travel as rowless batches.
    builder = JobBuilder("punctuated")
    (builder.source("s", elements, splits=splits)
            .with_watermarks(3.0, emit_every=emit_every, name="wm")
            .filter(lambda v: v > 0.0, vectorized=True, name="positive")
            .map(lambda v: v * 1.5, vectorized=True, name="scale")
            .window(TumblingWindows(10.0), "mean", name="win")
            .map(lambda result: result.value, name="unwrap")
            .window(TumblingWindows(30.0), "sum", name="rollup")
            .sink("out"))
    return builder.build()


def _assert_checkpoints_match(ckpt, ref, context):
    """Whole-dataclass equality against the per-item run's checkpoint,
    routing table included: a checkpoint names channels by logical
    operator, so a fused plan's table is the per-item plan's."""
    assert ckpt == ref, context


def _coordinated_run(job, p, flags, source_batch):
    """Run under barrier checkpoints every cycle; returns the executor
    and every finalized checkpoint."""
    executor = ParallelExecutor(job, p, **flags)
    store = CheckpointStore(keep=10_000)
    coordinator = CheckpointCoordinator(executor, store=store,
                                        interval_cycles=1)
    while not executor.done:  # the supervisor's slice protocol
        executor.run(source_batch=source_batch, max_cycles=1)
    coordinator.savepoint()
    return executor, [store.snapshot(cid) for cid in store.retained_ids()]


class TestPunctuatedBatches:
    @given(punctuated_rows, st.sampled_from(EMIT_EVERY), st.booleans(),
           st.integers(min_value=1, max_value=48))
    @settings(max_examples=40, deadline=None)
    def test_single_instance_modes(self, rows, emit_every, ordered,
                                   source_batch):
        elements = _punctuated_elements(rows, ordered)
        _assert_identical(_run_all_modes(
            lambda: _punctuated_job(elements, emit_every), source_batch))

    @given(punctuated_rows, st.sampled_from(EMIT_EVERY), st.booleans(),
           st.integers(min_value=1, max_value=48))
    @settings(max_examples=25, deadline=None)
    def test_parallel_modes(self, rows, emit_every, ordered, source_batch):
        elements = _punctuated_elements(rows, ordered)
        for p in PARALLELISMS:
            runs = {}
            for mode, flags in MODES.items():
                executor = ParallelExecutor(
                    _punctuated_job(elements, emit_every, N_SPLITS), p,
                    **flags)
                executor.run(source_batch=source_batch)
                runs[mode] = executor
            ckpts = {mode: run.checkpoint() for mode, run in runs.items()}
            for mode, other in runs.items():
                assert (other.sinks["out"].elements
                        == runs["per_item"].sinks["out"].elements), (p, mode)
                _assert_checkpoints_match(ckpts[mode], ckpts["per_item"],
                                          (p, mode))

    @given(punctuated_rows, st.sampled_from(EMIT_EVERY), st.booleans(),
           st.sampled_from((5, 13, 33)))
    @settings(max_examples=15, deadline=None)
    def test_barrier_cuts(self, rows, emit_every, ordered, source_batch):
        # A barrier every cycle, at pull sizes that are no multiple of
        # the cadence: every cut lands between two watermarks of the
        # stream, and the snapshot taken there (generator counter,
        # window contents, channel watermarks) must not depend on
        # whether those watermarks were riding in a batch.
        elements = _punctuated_elements(rows, ordered)
        for p in PARALLELISMS:
            runs = {
                mode: _coordinated_run(
                    _punctuated_job(elements, emit_every, N_SPLITS), p,
                    flags, source_batch)
                for mode, flags in MODES.items()}
            base = runs["per_item"][0]
            n_ckpts = len(runs["per_item"][1])
            assert n_ckpts >= 2
            for mode, (other, ckpts) in runs.items():
                assert (other.sinks["out"].elements
                        == base.sinks["out"].elements), (p, mode)
                assert len(ckpts) == n_ckpts, (p, mode)
                for i, ckpt in enumerate(ckpts):
                    _assert_checkpoints_match(
                        ckpt, runs["per_item"][1][i], (p, i, mode))

    def test_generator_emits_one_item_per_batch(self):
        # emit_every=1 on sorted input is one watermark per row; the
        # generator must still hand each input batch on as ONE item.
        generator = WatermarkGenerator("wm", 2.0)
        n = 1024
        for start in (0, n):
            batch = RecordBatch.from_elements(
                [Element(value=float(i), timestamp=float(i), key=i % 50)
                 for i in range(start, start + n)])
            out = generator.process_batch([batch])
            assert len(out) == 1
            assert type(out[0]) is RecordBatch
            assert len(out[0]) == n
            assert item_weight(out[0]) == 2 * n
            assert out[0].key_dict is batch.key_dict
        per_item = WatermarkGenerator("wm", 2.0)
        expected = [o for i in range(2 * n) for o in per_item.handle(
            Element(value=float(i), timestamp=float(i), key=i % 50))]
        assert decode_items(out) == expected[2 * n:]

    def test_mid_batch_crash_through_a_punctuated_batch(self):
        # p=1: the window's only input channel delivers punctuated
        # batches whole, so the injector's mid-batch cut (take_prefix at
        # an interleaved position) goes through one.
        events = reference_events(seed=11, n=240)
        golden = fault_free_sinks(lambda: reference_job(events),
                                  parallelism=1, source_batch=64)
        for at in (37, 38, 150):
            plan = FaultPlan(specs=(
                FaultSpec("operator_crash", SITE_OPERATOR, at=at,
                          target="window_sum"),), name=f"cut-{at}")
            report = run_coordinated(reference_job(events),
                                     FaultInjector(plan), parallelism=1,
                                     source_batch=64, interval_cycles=2)
            assert report.crashes == 1
            assert report.sink_values == golden, at


@st.composite
def punctuated_batches(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    m = draw(st.integers(min_value=0 if n else 1, max_value=8))
    offsets = sorted(draw(st.lists(st.integers(min_value=0, max_value=n),
                                   min_size=m, max_size=m)))
    elements = [Element(value=float(i), timestamp=i * 0.5, key=i % 3)
                for i in range(n)]
    batch = RecordBatch.from_elements(elements) if n else \
        RecordBatch.punctuation(np.empty(0))
    batch = batch.with_punctuation(
        np.asarray(offsets, dtype=np.int64),
        np.asarray([10.0 + j for j in range(m)]))
    items = []
    marks = [(off, Watermark(10.0 + j)) for j, off in enumerate(offsets)]
    for i in range(n + 1):
        items.extend(wm for off, wm in marks if off == i)
        if i < n:
            items.append(elements[i])
    return batch, items


class TestPunctuatedRoundTrips:
    @given(punctuated_batches())
    @settings(max_examples=100, deadline=None)
    def test_decode_explode_and_prefix_agree(self, case):
        batch, items = case
        assert item_weight(batch) == len(items)
        assert decode_items([batch]) == items
        fragments = batch.explode()
        assert all(type(f) is Watermark or f.wm_offsets is None
                   for f in fragments)
        assert all(item_weight(f) for f in fragments)
        assert decode_items(fragments) == items
        for k in range(len(items) + 1):
            prefix = take_prefix([batch], k)
            assert decode_items(prefix) == items[:k]
            assert sum(map(item_weight, prefix)) == k

    @given(punctuated_batches(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_slice_and_compress(self, case, data):
        batch, items = case
        i = data.draw(st.integers(min_value=0, max_value=len(items)))
        j = data.draw(st.integers(min_value=i, max_value=len(items)))
        assert decode_items([batch.slice(i, j)]) == items[i:j]
        mask = np.asarray(data.draw(st.lists(
            st.booleans(), min_size=len(batch), max_size=len(batch))),
            dtype=bool)
        rows = iter(mask.tolist())
        kept = [it for it in items
                if type(it) is Watermark or next(rows)]
        assert decode_items([batch.compress(mask)]) == kept
