"""Span-tree assembly, critical-path extraction and text rendering.

Operates on the serialized span form (plain dicts, see
:func:`repro.obs.exporters.span_to_dict`) so it works identically on
live tracer output and on re-parsed JSON-lines files — the
``tools/trace_report.py`` CLI and the observability gate both build on
this module.
"""

from __future__ import annotations

from typing import Any, Iterable, TextIO

from .exporters import span_to_dict
from .trace import Span

__all__ = ["SpanNode", "build_tree", "critical_path", "render_tree",
           "tree_is_connected"]


class SpanNode:
    """One assembled tree node: a span dict plus its children."""

    __slots__ = ("span", "children")

    def __init__(self, span: dict[str, Any]) -> None:
        self.span = span
        self.children: list["SpanNode"] = []

    @property
    def name(self) -> str:
        return self.span["name"]

    @property
    def duration(self) -> float:
        end = self.span.get("end")
        return 0.0 if end is None else end - self.span["start"]

    def walk(self) -> Iterable["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


def _as_dicts(spans: Iterable[Any]) -> list[dict[str, Any]]:
    return [span_to_dict(s) if isinstance(s, Span) else s for s in spans]


def build_tree(spans: Iterable[Any]) -> list[SpanNode]:
    """Assemble spans (dicts or :class:`Span` objects) into root nodes.

    A span whose parent is absent from the batch becomes a root — so a
    filtered export still renders instead of vanishing.  Children are
    ordered by (start, span_id) for deterministic output.
    """
    dicts = _as_dicts(spans)
    nodes = {d["span_id"]: SpanNode(d) for d in dicts}
    roots: list[SpanNode] = []
    for d in dicts:
        node = nodes[d["span_id"]]
        parent = d.get("parent_id")
        if parent is not None and parent in nodes:
            nodes[parent].children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.span["start"], n.span["span_id"]))
    roots.sort(key=lambda n: (n.span["start"], n.span["span_id"]))
    return roots


def tree_is_connected(spans: Iterable[Any]) -> bool:
    """True when the batch forms a single tree (exactly one root and
    every parent reference resolves inside the batch)."""
    dicts = _as_dicts(spans)
    ids = {d["span_id"] for d in dicts}
    roots = 0
    for d in dicts:
        parent = d.get("parent_id")
        if parent is None:
            roots += 1
        elif parent not in ids:
            return False
    return roots == 1


def critical_path(root: SpanNode) -> list[SpanNode]:
    """Greedy longest-duration descent from ``root``.

    At every level the child with the largest duration is taken (ties
    broken by earliest start, then span id) — for stage-shaped traces
    this is the chain of spans that bounds end-to-end latency.
    """
    path = [root]
    node = root
    while node.children:
        node = max(node.children,
                   key=lambda n: (n.duration, -n.span["start"]))
        path.append(node)
    return path


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.3f}ms"


#: a sibling group sharing a name collapses above this many members
COLLAPSE_OVER = 4


def render_tree(roots: list[SpanNode], stream: TextIO) -> None:
    """Print an indented span tree.

    Sibling groups sharing a name with more than ``COLLAPSE_OVER``
    members collapse into one aggregate line (count + total duration) —
    per-record produce/consume spans would otherwise drown the report.
    """

    def emit(node: SpanNode, depth: int) -> None:
        indent = "  " * depth
        stream.write(f"{indent}{node.name}  "
                     f"[{_format_duration(node.duration)}]"
                     f"{_attr_suffix(node)}\n")
        groups: dict[str, list[SpanNode]] = {}
        for child in node.children:
            groups.setdefault(child.name, []).append(child)
        for child in node.children:
            group = groups.get(child.name)
            if group is None:
                continue  # already emitted as an aggregate
            if len(group) > COLLAPSE_OVER:
                total = sum(c.duration for c in group)
                grandchildren = sum(len(c.children) for c in group)
                stream.write(f"{'  ' * (depth + 1)}{child.name} "
                             f"x{len(group)}  "
                             f"[total {_format_duration(total)}]"
                             + (f"  (+{grandchildren} linked spans)"
                                if grandchildren else "") + "\n")
                del groups[child.name]
            else:
                emit(child, depth + 1)

    def _attr_suffix(node: SpanNode) -> str:
        attrs = node.span.get("attrs") or {}
        if not attrs:
            return ""
        shown = ", ".join(f"{k}={attrs[k]}" for k in sorted(attrs)[:4])
        return f"  {{{shown}}}"

    for root in roots:
        emit(root, 0)
