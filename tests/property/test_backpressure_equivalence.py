"""Property tests: backpressure accounting is mode-independent.

``backpressure_events`` is accounted per *item* in every execution
mode — the batched channel offer computes the
same arithmetic in O(1) that the per-item offer performs one append at a
time.  These tests pin the contract under small channel capacities,
including the overflow-raise path: ``_offer_batch`` used to count every
item of a raising batch as backpressure and extend nothing, diverging
from per-item execution in both the counter and the channel contents.

Fusion removes the channels between fused operators, so a batched run
observes backpressure only at chain boundaries: its counters are bounded
by the per-item run's, and equal on a plan where nothing fuses (the
exact-equality tests below run such plans).
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import (
    Element,
    JobBuilder,
    ParallelExecutor,
    TumblingWindows,
    transport,
)
from repro.util.errors import BackpressureOverflow

MODES = {
    "per_item": dict(batch_mode=False),
    "chained": dict(batch_mode=True),
}

stream_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    min_size=1, max_size=60)


def _to_elements(rows):
    return [Element(value={"k": k, "v": float(i)}, timestamp=ts, key=k)
            for i, (k, ts) in enumerate(rows)]


def _window_builder(elements):
    """Keyed at the source: the watermark generator has no chainable
    neighbour, so both modes run the same channels — elements and
    watermarks cross each of them."""
    builder = JobBuilder("bp")
    (builder.source("s", elements)
            .with_watermarks(2.0, emit_every=3)
            .window(TumblingWindows(10.0), "count")
            .sink("out"))
    return builder


def _chainable_builder(elements):
    """map/filter/key_by fuse when batched; window breaks the chain."""
    builder = JobBuilder("bp-chain")
    (builder.source("s", elements)
            .map(lambda v: {"k": v["k"], "v": v["v"] + 1.0})
            .filter(lambda v: v["v"] >= 0.0)
            .with_watermarks(2.0, emit_every=3)
            .key_by(lambda v: v["k"])
            .window(TumblingWindows(10.0), "count")
            .sink("out"))
    return builder


def _run(make_builder, elements, mode, capacity, source_batch):
    executor = ParallelExecutor(make_builder(elements).build(),
                                **MODES[mode])
    raised = False
    with patch.object(transport, "CHANNEL_CAPACITY", capacity):
        try:
            executor.run(source_batch=source_batch)
        except BackpressureOverflow:
            raised = True
    return executor, raised


def _channel_contents(executor):
    """(receiver, sender) -> queued items, over every physical channel."""
    return {(key, sender): list(channel.queue)
            for key, senders in executor.channels.inputs.items()
            for sender, channel in senders.items()}


def _outcome(executor, raised):
    return (raised,
            executor.backpressure_events,
            {name: sink.elements for name, sink in executor.sinks.items()})


class TestPerItemBatchedEquality:
    @given(stream_strategy,
           st.integers(min_value=1, max_value=6),     # channel capacity
           st.integers(min_value=1, max_value=40))    # source batch
    @settings(max_examples=60, deadline=None)
    def test_counters_and_sinks_match(self, rows, capacity, source_batch):
        """For any stream/capacity/batch combination the per-item and
        batched executors agree exactly — on whether they raise, on the
        backpressure counter, and on sink contents."""
        elements = _to_elements(rows)
        per_item = _outcome(*_run(_window_builder, elements, "per_item",
                                  capacity, source_batch))
        batched = _outcome(*_run(_window_builder, elements, "chained",
                                 capacity, source_batch))
        assert batched == per_item


class TestChainedBounds:
    @given(stream_strategy,
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=24))
    @settings(max_examples=40, deadline=None)
    def test_chained_backpressure_bounded_by_batched(self, rows, capacity,
                                                     source_batch):
        """Both modes produce identical sinks; fusing removes
        intra-chain channels so chained backpressure never exceeds
        per-item."""
        elements = _to_elements(rows)
        results = {}
        for mode in MODES:
            executor, raised = _run(_chainable_builder, elements, mode,
                                    capacity, source_batch)
            if raised:  # raise-path equality is pinned separately below
                return
            results[mode] = executor
        base = results["per_item"]
        assert (len(results["chained"].channels.inputs)
                < len(base.channels.inputs))
        assert (results["chained"].backpressure_events
                <= base.backpressure_events)
        assert (results["chained"].sinks["out"].elements
                == base.sinks["out"].elements)

    @given(stream_strategy, st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_chain_free_graph_all_modes_equal(self, rows, capacity):
        """On a graph where nothing fuses the batched plan has the
        per-item plan's channels — counters match across both modes."""
        elements = _to_elements(rows)
        guard = ParallelExecutor(_window_builder(elements).build())
        # the graph really is chain-free
        assert all(len(node.members) == 1
                   for node in guard.graph.nodes.values())
        outcomes = {mode: _outcome(*_run(_window_builder, elements, mode,
                                         capacity, 8))
                    for mode in MODES}
        assert outcomes["chained"] == outcomes["per_item"]


class TestOverflowRaise:
    @given(st.integers(min_value=1, max_value=3),     # channel capacity
           st.integers(min_value=0, max_value=5))     # extra items past 10x
    @settings(max_examples=30, deadline=None)
    def test_raise_path_counter_and_channel_equality(self, capacity, extra):
        """A source batch larger than 10x capacity must raise in both
        modes with identical backpressure counts and identical channel
        occupancy (the _offer_batch regression: it counted all n items
        and appended none)."""
        n = capacity * 10 + 1 + extra
        elements = _to_elements([(0, float(i)) for i in range(n)])
        states = {}
        for mode in MODES:
            executor, raised = _run(_window_builder, elements, mode,
                                    capacity, n)
            assert raised, mode
            states[mode] = executor
        per_item, batched = states["per_item"], states["chained"]
        assert batched.backpressure_events == per_item.backpressure_events
        per_item_channels = _channel_contents(per_item)
        batched_channels = _channel_contents(batched)
        assert batched_channels == per_item_channels
        # the channel stalled exactly at the 10x limit, not at 0 or n
        assert sum(len(ch) for ch in per_item_channels.values()) \
            == capacity * 10

    def test_raise_message_names_the_node(self, monkeypatch):
        monkeypatch.setattr(transport, "CHANNEL_CAPACITY", 2)
        elements = _to_elements([(0, float(i)) for i in range(25)])
        executor = ParallelExecutor(_window_builder(elements).build())
        with pytest.raises(BackpressureOverflow, match="10x capacity"):
            executor.run(source_batch=25)
