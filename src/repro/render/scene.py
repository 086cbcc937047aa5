"""AR scene graph: anchored virtual content.

A :class:`SceneGraph` holds :class:`Annotation`s — virtual content
anchored to world positions (labels, gauges, highlight contours, data
blobs).  Hierarchy comes from parent transforms on :class:`SceneNode`s
so grouped content (e.g. a building's sensor array) moves together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from ..util.errors import RenderError

__all__ = ["Annotation", "SceneNode", "SceneGraph"]


@dataclass
class Annotation:
    """Virtual content anchored at a world point.

    priority      higher survives frame-budget pressure longer
    width/height  label extent in pixels when composited
    kind          free-form ("label", "gauge", "contour", "bubble", ...)
    payload       application data carried to the overlay
    """

    annotation_id: str
    anchor: np.ndarray  # world (3,)
    text: str = ""
    kind: str = "label"
    priority: float = 1.0
    width_px: float = 80.0
    height_px: float = 24.0
    payload: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.anchor = np.asarray(self.anchor, dtype=float).reshape(3)
        if self.width_px <= 0 or self.height_px <= 0:
            raise RenderError("annotation extent must be positive")


@dataclass
class SceneNode:
    """A grouping node with a rigid transform (rotation + translation)."""

    name: str
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    annotations: list[Annotation] = field(default_factory=list)
    children: list["SceneNode"] = field(default_factory=list)

    def world_annotations(self, parent_rotation: np.ndarray | None = None,
                          parent_translation: np.ndarray | None = None,
                          ) -> Iterator[tuple[Annotation, np.ndarray]]:
        """Yield (annotation, world anchor) applying cumulative transforms."""
        r_p = parent_rotation if parent_rotation is not None else np.eye(3)
        t_p = (parent_translation if parent_translation is not None
               else np.zeros(3))
        r = r_p @ self.rotation
        t = r_p @ self.translation + t_p
        if self.annotations:
            # one (N,3) transform per node, not a matmul per annotation
            anchors = np.array([a.anchor for a in self.annotations])
            yield from zip(self.annotations, anchors @ r.T + t)
        for child in self.children:
            yield from child.world_annotations(r, t)


class SceneGraph:
    """Root container with id-indexed lookup."""

    def __init__(self) -> None:
        self.root = SceneNode(name="root")
        self._index: dict[str, Annotation] = {}

    def add(self, annotation: Annotation,
            node: SceneNode | None = None) -> Annotation:
        if annotation.annotation_id in self._index:
            raise RenderError(
                f"duplicate annotation id {annotation.annotation_id!r}")
        (node if node is not None else self.root).annotations.append(
            annotation)
        self._index[annotation.annotation_id] = annotation
        return annotation

    def add_node(self, node: SceneNode,
                 parent: SceneNode | None = None) -> SceneNode:
        # Index every annotation in the subtree (children included),
        # validating before mutating so a duplicate leaves no partial
        # state behind.
        subtree: list[Annotation] = []

        def collect(current: SceneNode) -> None:
            subtree.extend(current.annotations)
            for child in current.children:
                collect(child)

        collect(node)
        for annotation in subtree:
            if annotation.annotation_id in self._index:
                raise RenderError(
                    f"duplicate annotation id {annotation.annotation_id!r}")
        (parent if parent is not None else self.root).children.append(node)
        for annotation in subtree:
            self._index[annotation.annotation_id] = annotation
        return node

    def get(self, annotation_id: str) -> Annotation:
        try:
            return self._index[annotation_id]
        except KeyError:
            raise RenderError(f"unknown annotation {annotation_id!r}") from None

    def remove(self, annotation_id: str) -> None:
        annotation = self.get(annotation_id)
        self._remove_from(self.root, annotation)
        del self._index[annotation_id]

    def _remove_from(self, node: SceneNode, annotation: Annotation) -> bool:
        if annotation in node.annotations:
            node.annotations.remove(annotation)
            return True
        return any(self._remove_from(child, annotation)
                   for child in node.children)

    def __len__(self) -> int:
        return len(self._index)

    def all_world_annotations(self) -> list[tuple[Annotation, np.ndarray]]:
        return list(self.root.world_annotations())
