"""Edge-path tests, second batch: keyed state, record sizing of custom
objects, scene-graph removal, trace helpers, summary percentiles."""

import numpy as np
import pytest

from repro.datagen import MobilityConfig, generate_trace
from repro.eventlog import estimate_size
from repro.render import Annotation, SceneGraph, SceneNode
from repro.streaming import KeyedState
from repro.util.errors import RenderError, StreamError
from repro.util.rng import make_rng


class TestKeyedState:
    def test_get_is_non_mutating(self):
        # A read-only probe of a missing key must not materialize an
        # entry — that would change snapshot()/len() on a *read*.
        state = KeyedState(default_factory=list)
        assert state.get("a") == []
        assert len(state) == 0
        assert state.snapshot() == {}
        assert "a" not in state

    def test_get_or_create_materializes(self):
        state = KeyedState(default_factory=list)
        state.get_or_create("a").append(1)
        assert state.get("a") == [1]
        assert len(state) == 1

    def test_no_factory_returns_none(self):
        state = KeyedState()
        assert state.get("missing") is None
        assert state.get_or_create("missing") is None
        assert "missing" not in state

    def test_snapshot_is_deep(self):
        state = KeyedState(default_factory=list)
        state.get_or_create("a").append(1)
        snapshot = state.snapshot()
        state.get_or_create("a").append(2)
        assert snapshot["a"] == [1]

    def test_snapshot_by_group_round_trip(self):
        state = KeyedState()
        for i in range(40):
            state.put(f"k{i}", [i])
        groups = state.snapshot_by_group(8)
        assert sum(len(g) for g in groups.values()) == 40
        restored = KeyedState()
        restored.restore_groups(groups.values())
        assert restored.snapshot() == state.snapshot()
        restored.get("k0").append(-1)  # the blobs stay untouched
        assert restored.snapshot() != state.snapshot()
        restored.restore_groups(groups.values())
        assert restored.snapshot() == state.snapshot()

    def test_the_table_copies_with_its_own_copy(self):
        calls = []

        def shallow(data):
            calls.append(len(data))
            return dict(data)
        state = KeyedState(copy=shallow)
        state.put_many([("a", 1), ("b", 2)])
        state.snapshot_by_group(8)
        state.restore(state.snapshot())
        assert calls == [2, 2, 2]

    def test_restore_replaces_content(self):
        state = KeyedState()
        state.put("a", 1)
        snapshot = state.snapshot()
        state.put("b", 2)
        state.restore(snapshot)
        assert state.keys() == ["a"]

    def test_remove_and_clear(self):
        state = KeyedState()
        state.put("a", 1)
        state.remove("a")
        state.remove("a")  # idempotent
        state.put("b", 2)
        state.clear()
        assert len(state) == 0


class TestEstimateSizeCustomObjects:
    def test_object_with_dict_priced_by_attributes(self):
        class Thing:
            def __init__(self):
                self.name = "abc"
                self.value = 7

        assert estimate_size(Thing()) == estimate_size(
            {"name": "abc", "value": 7})

    def test_slotted_object_fallback(self):
        class Slotted:
            __slots__ = ("x",)

            def __init__(self):
                self.x = 1

        assert estimate_size(Slotted()) == 16

    def test_nested_structures(self):
        nested = {"a": [1, 2, {"b": "cd"}]}
        assert estimate_size(nested) > estimate_size({"a": [1, 2]})


class TestSceneGraphRemoval:
    def test_remove_from_nested_node(self):
        scene = SceneGraph()
        child = SceneNode(name="child")
        annotation = Annotation(annotation_id="deep",
                                anchor=np.zeros(3), text="x")
        child.annotations.append(annotation)
        parent = SceneNode(name="parent", children=[child])
        scene.add_node(parent)
        assert len(scene) == 1
        scene.remove("deep")
        assert len(scene) == 0
        annotations, anchors = scene.world_anchors()
        assert annotations == [] and anchors.shape == (0, 3)

    def test_add_node_detects_duplicate_ids(self):
        scene = SceneGraph()
        scene.add(Annotation(annotation_id="a", anchor=np.zeros(3)))
        node = SceneNode(name="n")
        node.annotations.append(Annotation(annotation_id="a",
                                           anchor=np.ones(3)))
        with pytest.raises(RenderError):
            scene.add_node(node)


class TestTraceHelpers:
    def test_displacement_lengths(self):
        trace = generate_trace("u", make_rng(0),
                               MobilityConfig(steps=50))
        assert len(trace.displacement_m) == 49
        assert (trace.displacement_m >= 0).all()

    def test_len(self):
        trace = generate_trace("u", make_rng(1),
                               MobilityConfig(steps=25))
        assert len(trace) == 25


class TestWindowResultConvenience:
    def test_window_aggregate_value_fn_error_propagates(self):
        """A crashing value_fn must surface, not be swallowed."""
        from repro.streaming import (Element, TumblingWindows,
                                     WindowAggregateOperator)
        op = WindowAggregateOperator("w", TumblingWindows(10.0), "sum",
                                     value_fn=lambda v: v["missing"])
        with pytest.raises(KeyError):
            op.process(Element(value={}, timestamp=1.0, key="k"))

    def test_allowed_lateness_negative_rejected(self):
        from repro.streaming import TumblingWindows, WindowAggregateOperator
        with pytest.raises(StreamError):
            WindowAggregateOperator("w", TumblingWindows(10.0), "sum",
                                    allowed_lateness=-1.0)
