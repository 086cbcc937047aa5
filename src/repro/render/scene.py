"""AR scene graph: anchored virtual content.

A :class:`SceneGraph` holds :class:`Annotation`s — virtual content
anchored to world positions (labels, gauges, highlight contours, data
blobs).  Hierarchy comes from parent transforms on :class:`SceneNode`s
so grouped content (e.g. a building's sensor array) moves together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..util.errors import RenderError

__all__ = ["Annotation", "SceneNode", "SceneGraph"]

#: the root's parent transform, shared read-only by every walk
_IDENTITY = np.eye(3)
_IDENTITY.setflags(write=False)
_ORIGIN = np.zeros(3)
_ORIGIN.setflags(write=False)
_FLOAT64 = _IDENTITY.dtype
#: the bytes of the transform a :class:`SceneNode` is built with
_IDENTITY_BYTES = _IDENTITY.tobytes()
_ORIGIN_BYTES = _ORIGIN.tobytes()


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
        anchor = self.anchor
        # an entity's position already is a float64 (3,) array: keep it
        if not (type(anchor) is np.ndarray and anchor.dtype is _FLOAT64
                and anchor.shape == (3,)):
            self.anchor = np.asarray(anchor, dtype=float).reshape(3)
        if not (0 < self.width_px < math.inf
                and 0 < self.height_px < math.inf):
            raise RenderError("annotation extent must be positive and "
                              f"finite, not {self.width_px!r} x "
                              f"{self.height_px!r}")


@dataclass
class SceneNode:
    """A grouping node with a rigid transform (rotation + translation)."""

    name: str
    # a writable copy of the shared identity, made in C (every frame
    # builds a scene, and with it a root)
    rotation: np.ndarray = field(default_factory=_IDENTITY.copy)
    translation: np.ndarray = field(default_factory=_ORIGIN.copy)
    annotations: list[Annotation] = field(default_factory=list)
    children: list["SceneNode"] = field(default_factory=list)


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

    def add_node(self, node: SceneNode) -> SceneNode:
        """Attach ``node`` (and its subtree) under the root."""
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
        self.root.children.append(node)
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

    def world_anchors(self) -> tuple[list[Annotation], np.ndarray]:
        """Every annotation and its world anchor, in one walk.

        Returns ``(annotations, anchors)``: depth-first, a node's own
        annotations before its children's, and an ``(N, 3)`` array whose
        row ``i`` is ``annotations[i]``'s anchor under the cumulative
        node transforms.  Each node transforms its anchors as one
        ``(n, 3)`` batch, not a matmul per annotation.

        A flat scene — the root alone, its transform still the identity
        it was built with — skips the walk and its identity matmuls.  Its
        anchors come out as the walk gives them: ``x @ I + 0`` is exact
        for finite coordinates and turns ``-0.0`` into ``0.0``, which
        ``x + 0.0`` does too; a row with a NaN or infinite coordinate
        (``inf * 0`` is NaN) takes the walk's matmul.
        """
        root = self.root
        if not root.children and _is_identity(root):
            annotations = list(root.annotations)
            if not annotations:
                return annotations, np.empty((0, 3))
            local = np.array([a.anchor for a in annotations])
            world = local + 0.0
            # the sum is finite only when every coordinate is
            if math.isfinite(np.add.reduce(world, axis=None)):
                return annotations, world
            return annotations, local @ _IDENTITY.T + _ORIGIN

        annotations: list[Annotation] = []
        blocks: list[np.ndarray] = []

        def walk(node: SceneNode, r_p: np.ndarray, t_p: np.ndarray) -> None:
            r = r_p @ node.rotation
            t = r_p @ node.translation + t_p
            if node.annotations:
                annotations.extend(node.annotations)
                local = np.array([a.anchor for a in node.annotations])
                blocks.append(local @ r.T + t)
            for child in node.children:
                walk(child, r, t)

        walk(root, _IDENTITY, _ORIGIN)
        if not blocks:
            return annotations, np.empty((0, 3))
        return annotations, (blocks[0] if len(blocks) == 1
                             else np.concatenate(blocks))


def _is_identity(node: SceneNode) -> bool:
    """Whether ``node``'s transform is, bit for bit, the float64 identity
    and zero translation a new node is built with (reassigned or mutated
    in place, it is tested as it stands)."""
    r, t = node.rotation, node.translation
    return (type(r) is np.ndarray and r.dtype is _FLOAT64
            and r.shape == (3, 3) and r.tobytes() == _IDENTITY_BYTES
            and type(t) is np.ndarray and t.dtype is _FLOAT64
            and t.shape == (3,) and t.tobytes() == _ORIGIN_BYTES)
