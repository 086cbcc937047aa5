"""Unit tests: context store, ARML markup, interpretation engine."""

import numpy as np
import pytest

from repro.context import (
    ArmlDocument,
    ArmlFeature,
    BindingRule,
    ContextStore,
    InterpretationEngine,
    SemanticEntity,
    UserContext,
    parse_arml,
    serialize_arml,
)
from repro.render.scene import Annotation
from repro.util.errors import ContextError, InterpretationError, MarkupError


def _entity(eid="e1", etype="product", pos=(1.0, 2.0, 3.0), name="Thing"):
    return SemanticEntity(entity_id=eid, entity_type=etype,
                          position=np.array(pos), name=name)


class TestContextStore:
    def test_add_and_get(self):
        store = ContextStore()
        store.add_entity(_entity())
        assert store.entity("e1").name == "Thing"

    def test_duplicate_rejected(self):
        store = ContextStore()
        store.add_entity(_entity())
        with pytest.raises(ContextError):
            store.add_entity(_entity())

    def test_nearby_sorted_by_distance(self):
        store = ContextStore()
        store.add_entity(_entity("near", pos=(1.0, 0, 0)))
        store.add_entity(_entity("far", pos=(50.0, 0, 0)))
        store.add_entity(_entity("out", pos=(500.0, 0, 0)))
        store.update_user(UserContext(user_id="u",
                                      position=np.zeros(3)))
        nearby = store.nearby("u", radius_m=100.0)
        assert [e.entity_id for e in nearby] == ["near", "far"]

    def test_unknown_user_rejected(self):
        with pytest.raises(ContextError):
            ContextStore().user("ghost")

    def test_distance(self):
        store = ContextStore()
        store.add_entity(_entity("e1", pos=(3.0, 4.0, 0.0)))
        store.update_user(UserContext(user_id="u", position=np.zeros(3)))
        assert store.distance("u", "e1") == pytest.approx(5.0)


class TestArml:
    def _doc(self):
        doc = ArmlDocument()
        doc.add(ArmlFeature(feature_id="cafe-1", name="Blue Bottle",
                            anchor=np.array([12.0, 3.5, 0.0]),
                            label_text="Blue Bottle Cafe", priority=2.0,
                            kind="poi", meta={"category": "cafe"}))
        doc.add(ArmlFeature(feature_id="cafe-2",
                            anchor=np.array([1.0, 1.0, 1.0])))
        return doc

    def test_roundtrip(self):
        doc = self._doc()
        text = serialize_arml(doc)
        parsed = parse_arml(text)
        assert len(parsed) == 2
        feature = parsed.get("cafe-1")
        assert feature.name == "Blue Bottle"
        assert np.allclose(feature.anchor, [12.0, 3.5, 0.0])
        assert feature.priority == 2.0
        assert feature.meta == {"category": "cafe"}

    def test_duplicate_feature_rejected(self):
        doc = self._doc()
        with pytest.raises(MarkupError):
            doc.add(ArmlFeature(feature_id="cafe-1",
                                anchor=np.zeros(3)))

    def test_malformed_xml_rejected(self):
        with pytest.raises(MarkupError):
            parse_arml("<arml><feature id='x'>")

    def test_wrong_root_rejected(self):
        with pytest.raises(MarkupError):
            parse_arml("<kml></kml>")

    def test_missing_anchor_rejected(self):
        with pytest.raises(MarkupError):
            parse_arml('<arml><feature id="x"/></arml>')

    def test_missing_id_rejected(self):
        with pytest.raises(MarkupError):
            parse_arml('<arml><feature><anchor x="1" y="1"/></feature>'
                       "</arml>")

    def test_bad_coordinates_rejected(self):
        with pytest.raises(MarkupError):
            parse_arml('<arml><feature id="x">'
                       '<anchor x="abc" y="1"/></feature></arml>')

    def test_unknown_feature_lookup_rejected(self):
        with pytest.raises(MarkupError):
            self._doc().get("nope")


class TestInterpretationEngine:
    def _engine(self):
        store = ContextStore()
        store.add_entity(_entity("p1", "product", (1, 2, 3), "Coffee"))
        store.add_entity(_entity("p2", "product", (4, 5, 6), "Tea"))
        engine = InterpretationEngine(store)
        engine.register_default("recommendation")
        return engine

    def test_bound_result_becomes_annotation(self):
        engine = self._engine()
        out = engine.interpret([{"tag": "recommendation", "subject": "p1",
                                 "value": "9.5"}])
        assert out.bound == 1
        assert out.coverage == 1.0
        annotation = out.annotations[0]
        assert annotation.annotation_id == "recommendation:p1"
        assert np.allclose(annotation.anchor, [1, 2, 3])
        assert "Coffee" in annotation.text

    def test_untagged_counted(self):
        engine = self._engine()
        out = engine.interpret([{"subject": "p1", "value": 1}])
        assert out.unbound_untagged == 1
        assert out.coverage == 0.0

    def test_unknown_rule_counted(self):
        engine = self._engine()
        out = engine.interpret([{"tag": "mystery", "subject": "p1"}])
        assert out.unbound_no_rule == 1

    def test_unknown_subject_counted(self):
        engine = self._engine()
        out = engine.interpret([{"tag": "recommendation",
                                 "subject": "ghost"}])
        assert out.unbound_unknown_subject == 1

    def test_mixed_batch_coverage(self):
        engine = self._engine()
        out = engine.interpret([
            {"tag": "recommendation", "subject": "p1"},
            {"tag": "recommendation", "subject": "p2"},
            {"subject": "p1"},
            {"tag": "recommendation", "subject": "ghost"},
        ])
        assert out.bound == 2
        assert out.coverage == 0.5

    def test_duplicate_rule_rejected(self):
        engine = self._engine()
        with pytest.raises(InterpretationError):
            engine.register_default("recommendation")

    def test_custom_rule(self):
        store = ContextStore()
        store.add_entity(_entity("p1"))
        engine = InterpretationEngine(store)

        def build(entity, result):
            return Annotation(annotation_id=f"hi:{entity.entity_id}",
                              anchor=entity.position, text="custom",
                              kind="custom")

        engine.register(BindingRule(tag="greet", build=build))
        out = engine.interpret([{"tag": "greet", "subject": "p1"}])
        assert out.annotations[0].kind == "custom"

    def test_to_arml_export(self):
        engine = self._engine()
        out = engine.interpret([{"tag": "recommendation", "subject": "p1",
                                 "value": 1}])
        doc = engine.to_arml(out)
        assert len(doc) == 1
        text = serialize_arml(doc)
        assert parse_arml(text).get("recommendation:p1")
