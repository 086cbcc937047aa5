"""The interpretation engine: analytics output -> AR content.

"The output of a customer behavior analysis system is normally customer
stats, but AR is responsible for how to use the stats ... AR requires
semantically meaningful information to relate to the users' context."

An :class:`InterpretationEngine` holds binding rules keyed by the
*semantic tag* of an analytics result.  A result arrives as a plain
mapping with (at minimum) a ``subject`` identifier; interpretation
succeeds when (a) the result carries a tag with a registered rule and
(b) the subject resolves to a known :class:`SemanticEntity` — then the
rule produces an :class:`~repro.render.scene.Annotation` anchored at the
entity.  Untagged results or unknown subjects fail to bind, which is the
quantity experiment T3 sweeps (coverage with vs without semantic tags).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..render.scene import Annotation
from ..util.errors import InterpretationError
from .arml import ArmlDocument, ArmlFeature
from .entities import ContextStore, SemanticEntity

__all__ = ["BindingRule", "BoundContent", "InterpretationEngine"]

RuleFn = Callable[[SemanticEntity, Mapping[str, Any]], Annotation]


@dataclass(frozen=True)
class BindingRule:
    """How results with one semantic tag become AR content."""

    tag: str
    build: RuleFn


@dataclass
class BoundContent:
    """Outcome of interpreting a batch of analytics results."""

    annotations: list[Annotation] = field(default_factory=list)
    unbound_untagged: int = 0
    unbound_no_rule: int = 0
    unbound_unknown_subject: int = 0
    bound: int = 0

    @property
    def total(self) -> int:
        return (self.bound + self.unbound_untagged + self.unbound_no_rule
                + self.unbound_unknown_subject)

    @property
    def coverage(self) -> float:
        return self.bound / self.total if self.total else 1.0


def _default_rule(tag: str) -> BindingRule:
    """A generic rule: label the entity with the result's headline value."""

    def build(entity: SemanticEntity,
              result: Mapping[str, Any]) -> Annotation:
        value = result.get("value", "")
        text = f"{entity.name or entity.entity_id}: {value}"
        return Annotation(
            annotation_id=f"{tag}:{entity.entity_id}",
            anchor=entity.position,
            text=text,
            kind=tag,
            priority=float(result.get("priority", 1.0)),
        )

    return BindingRule(tag=tag, build=build)


class InterpretationEngine:
    """Binds semantically tagged analytics results to AR annotations."""

    def __init__(self, store: ContextStore) -> None:
        self.store = store
        self._rules: dict[str, BindingRule] = {}

    def register(self, rule: BindingRule) -> None:
        if rule.tag in self._rules:
            raise InterpretationError(f"duplicate rule for tag {rule.tag!r}")
        self._rules[rule.tag] = rule

    def register_default(self, tag: str) -> None:
        """Register the generic headline-value rule for ``tag``."""
        self.register(_default_rule(tag))

    def rules(self) -> list[str]:
        return sorted(self._rules)

    def interpret(self, results: list[Mapping[str, Any]],
                  ) -> BoundContent:
        """Bind a batch of analytics results.

        Each result should carry ``tag`` (semantic type) and ``subject``
        (entity id).  Binding failures are counted, never raised — a
        live AR pipeline degrades, it does not crash on one bad record.
        """
        out = BoundContent()
        rules = self._rules
        # one dict read resolves a subject (the store's own index)
        entities = self.store._entities
        for result in results:
            tag = result.get("tag")
            if not tag:
                out.unbound_untagged += 1
                continue
            rule = rules.get(tag)
            if rule is None:
                out.unbound_no_rule += 1
                continue
            subject = result.get("subject")
            entity = entities.get(str(subject)) if subject else None
            if entity is None:
                out.unbound_unknown_subject += 1
                continue
            annotation = rule.build(entity, result)
            out.annotations.append(annotation)
            out.bound += 1
        return out

    def to_arml(self, content: BoundContent) -> ArmlDocument:
        """Export bound content as an ARML document (the exchange format
        the paper calls for)."""
        document = ArmlDocument()
        seen: set[str] = set()
        for annotation in content.annotations:
            if annotation.annotation_id in seen:
                continue  # repeated bindings of one entity collapse
            seen.add(annotation.annotation_id)
            document.add(ArmlFeature(
                feature_id=annotation.annotation_id,
                name=annotation.text,
                anchor=annotation.anchor,
                label_text=annotation.text,
                priority=annotation.priority,
                kind=annotation.kind,
            ))
        return document
