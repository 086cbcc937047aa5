"""Unit tests: batched execution, operator chaining, vectorized kernels.

The contract under test: batched execution (fused wherever the plan
allows) is bit-identical to per-item execution — same sink contents, same operator
state, same processed/emitted counters, same overflow accounting.
"""

import numpy as np
import pytest

from repro.streaming import (
    ChainedOperator,
    Element,
    FilterOperator,
    JobBuilder,
    MapOperator,
    ParallelExecutor,
    TumblingWindows,
    Watermark,
    WatermarkGenerator,
    transport,
)
from repro.util.errors import StreamError
from repro.util.metrics import Summary


def _els(n, key_mod=3):
    return [Element(value={"k": i % key_mod, "v": float(i)},
                    timestamp=float(i)) for i in range(n)]


MODES = {
    "per_item": dict(batch_mode=False),
    "chained": dict(batch_mode=True),
}


def run_all_modes(make_builder, **executor_kwargs):
    """Build the same job per mode (fresh operator state) and run it."""
    out = {}
    for mode, flags in MODES.items():
        executor = ParallelExecutor(make_builder().build(), **flags,
                                    **executor_kwargs)
        sinks = executor.run()
        out[mode] = (executor, sinks)
    return out


def _chains(executor):
    """Member operator names of every fused node of the plan."""
    return [node.members for node in executor.graph.nodes.values()
            if len(node.members) > 1]


class TestChainPlan:
    def _linear(self):
        builder = JobBuilder("j")
        (builder.source("s", _els(10))
                .map(lambda v: v["v"])
                .filter(lambda v: v >= 2.0)
                .map(lambda v: v * 2)
                .sink("out"))
        return builder

    def test_linear_run_fuses_into_one_node(self):
        executor = ParallelExecutor(self._linear().build())
        assert _chains(executor) == [["map_0", "filter_0", "map_1"]]
        # One channel into the chain instead of three hops.
        assert len(executor.channels.inputs) == 1

    def test_per_item_mode_never_chains(self):
        executor = ParallelExecutor(self._linear().build(), batch_mode=False)
        assert _chains(executor) == []
        assert len(executor.channels.inputs) == 3

    def test_keyed_state_breaks_chain(self):
        builder = JobBuilder("j")
        (builder.source("s", _els(10))
                .map(lambda v: v)
                .key_by(lambda v: v["k"])
                .window(TumblingWindows(5.0), "sum", value_fn=lambda v: v["v"])
                .map(lambda r: r.value)
                .sink("out"))
        executor = ParallelExecutor(builder.build())
        # map+key_by fuse; the window stays alone; the tail map has no
        # chainable neighbour.
        assert _chains(executor) == [["map_0", "key_by_0"]]
        assert "window_0" in executor.graph.nodes
        assert "map_1" in executor.graph.nodes

    def test_fanout_breaks_chain(self):
        builder = JobBuilder("j")
        handle = builder.source("s", _els(10)).map(lambda v: v["v"], name="m")
        handle.map(lambda v: v + 1, name="a").sink("out_a")
        handle.map(lambda v: v - 1, name="b").sink("out_b")
        executor = ParallelExecutor(builder.build())
        # m has two downstreams -> no fusion anywhere.
        assert _chains(executor) == []
        sinks = executor.run()
        assert len(sinks["out_a"]) == 10
        assert len(sinks["out_b"]) == 10

class TestChainedOperator:
    def test_chain_of_one_is_named_after_its_member(self):
        member = MapOperator("m[0]", lambda v: v * 2)
        chain = ChainedOperator([member])
        assert chain.name == "m[0]" and chain.operators == [member]
        items = [Element(float(i), float(i)) for i in range(3)]
        reference = MapOperator("m[0]", lambda v: v * 2)
        assert chain.process_batch(items) == reference.process_batch(items)
        assert chain.handle(items[0]) == reference.handle(items[0])
        assert (member.processed, member.emitted) == (4, 4)
        # bare: no policy declared, so a failing record raises as it
        # would from the operator itself and nothing is dead-lettered
        bare = ChainedOperator([MapOperator("b", lambda v: v / 0)])
        with pytest.raises(ZeroDivisionError):
            bare.process_batch(items)
        assert bare.dead_letters == []

    def test_handle_and_batch_agree(self):
        def make():
            return ChainedOperator([
                MapOperator("m", lambda v: v * 2),
                FilterOperator("f", lambda v: v > 2),
            ])
        items = [Element(float(i), float(i)) for i in range(5)]
        items.insert(2, Watermark(1.0))
        a, b = make(), make()
        per_item = [o for item in items for o in a.handle(item)]
        batched = b.process_batch(items)
        assert per_item == batched
        assert a.operators[0].processed == b.operators[0].processed
        assert a.operators[1].emitted == b.operators[1].emitted

    def test_flush_cascades_through_members(self):
        wm_gen = WatermarkGenerator("w", max_lateness=0.0)
        chain = ChainedOperator([MapOperator("m", lambda v: v), wm_gen])
        chain.process_batch([Element(1.0, 5.0)])
        out = chain.flush()
        assert out == [Watermark(float("inf"))]


class TestModeEquivalence:
    def test_windowed_pipeline_identical(self):
        def make_builder():
            builder = JobBuilder("j")
            (builder.source("s", _els(60))
                    .map(lambda v: {"k": v["k"], "v": v["v"] * 2})
                    .with_watermarks(1.0, emit_every=7)
                    .key_by(lambda v: v["k"])
                    .window(TumblingWindows(10.0), "sum",
                            value_fn=lambda v: v["v"])
                    .sink("out"))
            return builder
        runs = run_all_modes(make_builder)
        assert (runs["chained"][1]["out"].elements
                == runs["per_item"][1]["out"].elements)

    def test_counters_identical_across_modes(self):
        def make_builder():
            builder = JobBuilder("j")
            (builder.source("s", _els(40))
                    .map(lambda v: v["v"])
                    .filter(lambda v: v % 3 > 0)
                    .map(lambda v: -v)
                    .sink("out"))
            return builder
        runs = run_all_modes(make_builder)
        per_item = runs["per_item"][0]
        for name, op in runs["chained"][0].job.operators.items():
            ref = per_item.job.operators[name]
            assert (op.processed, op.emitted) == \
                   (ref.processed, ref.emitted), name

    @staticmethod
    def _lone_map():
        """A lone map cannot fuse, so both modes run the same channels
        and must account for them identically."""
        builder = JobBuilder("j")
        builder.source("s", _els(100)).map(lambda v: v).sink("out")
        return builder

    def test_backpressure_accounting_identical(self, monkeypatch):
        monkeypatch.setattr(transport, "CHANNEL_CAPACITY", 10)
        counts = {}
        for mode, flags in MODES.items():
            executor = ParallelExecutor(self._lone_map().build(), **flags)
            executor.run(source_batch=100)
            counts[mode] = executor.backpressure_events
            assert len(executor.sinks["out"]) == 100
        assert counts["per_item"] == counts["chained"] > 0

    def test_vectorized_operators_match_scalar(self):
        values = [float(i) for i in range(30)]

        def make_builder(vectorized):
            builder = JobBuilder("j")
            source = [Element(v, float(i)) for i, v in enumerate(values)]
            if vectorized:
                (builder.source("s", source)
                        .map(lambda v: v * 3.0 + 1.0, vectorized=True)
                        .filter(lambda v: v > 10.0, vectorized=True)
                        .key_by(lambda v: v % 5.0, vectorized=True)
                        .window(TumblingWindows(10.0), "sum")
                        .map(lambda r: r.value)
                        .sink("out"))
            else:
                (builder.source("s", source)
                        .map(lambda v: v * 3.0 + 1.0)
                        .filter(lambda v: v > 10.0)
                        .key_by(lambda v: v % 5.0)
                        .window(TumblingWindows(10.0), "sum")
                        .map(lambda r: r.value)
                        .sink("out"))
            return builder

        scalar = ParallelExecutor(make_builder(False).build(),
                                  batch_mode=False).run()["out"]
        for mode in MODES.values():
            got = ParallelExecutor(make_builder(True).build(),
                                   **mode).run()["out"]
            assert [float(v) for v in got.values] == \
                   [float(v) for v in scalar.values]
            assert [float(e.key) for e in got.elements] == \
                   [float(e.key) for e in scalar.elements]

    @pytest.mark.parametrize("stage", ["map", "filter", "key_by"])
    def test_vectorized_wrong_length_is_an_error(self, stage):
        """A vectorized function that answers with fewer results than
        rows used to lose a row silently (map, key_by) or die in numpy
        (filter)."""
        builder = JobBuilder("j")
        handle = builder.source("s", [Element(float(i), float(i))
                                      for i in range(10)])
        getattr(handle, stage)(lambda v: v[:-1] > 0, vectorized=True,
                               name="short").sink("out")
        with pytest.raises(StreamError, match=r"short.* 9 results .* 10 rows"):
            ParallelExecutor(builder.build()).run()


class TestSummaryCache:
    def test_cache_invalidated_on_observe(self):
        summary = Summary()
        summary.observe(1.0)
        assert summary.mean == 1.0
        summary.observe(3.0)
        assert summary.mean == 2.0
        assert summary.percentile(100.0) == 3.0

    def test_reset_clears_everything(self):
        summary = Summary()
        for v in (1.0, 2.0, 3.0):
            summary.observe(v)
        summary.reset()
        assert summary.count == 0
        assert np.isnan(summary.mean)
        assert summary.total == 0.0
        summary.observe(7.0)
        assert summary.mean == 7.0
