"""The benchmark's own wall-clock span recorder.

``repro.obs.Tracer`` runs on ``SimClock``; a benchmark needs real time.
Spans are recorded from the benchmark's files only, around the calls
into each layer, kept in memory and written out when the run ends.

A span is ``[name, start_ns, end_ns, parent, trace_id]``: ``parent`` is
the index of the enclosing span (``-1`` for a root) and every span of
one chunk, tick, frame or query shares a ``trace_id``.  The layer of a
span is the part of its name before the first dot.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

__all__ = ["SpanRecorder", "NullRecorder", "self_times", "layer_table",
           "FIELDS"]

FIELDS = ("name", "start_ns", "end_ns", "parent", "trace_id")
NAME, START, END, PARENT, TRACE = range(5)


class _Span:
    __slots__ = ("_rec", "_name")

    def __init__(self, rec: "SpanRecorder", name: str) -> None:
        self._rec = rec
        self._name = name

    def __enter__(self) -> None:
        rec = self._rec
        stack = rec._stack
        rec.spans.append([self._name, time.perf_counter_ns(), 0,
                          stack[-1] if stack else -1, rec.trace_id])
        stack.append(len(rec.spans) - 1)

    def __exit__(self, exc_type, exc, tb) -> None:
        rec = self._rec
        rec.spans[rec._stack.pop()][END] = time.perf_counter_ns()


class SpanRecorder:
    """Records nested spans on the real clock."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trace_id = ""

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"meta": meta, "fields": FIELDS,
                       "spans": self.spans}, fh, separators=(",", ":"))


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class NullRecorder:
    """The untraced pass: same call sites, nothing recorded."""

    enabled = False
    trace_id = ""
    _SPAN = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._SPAN


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the part of that interval its
    direct children cover.  Children may overlap each other or stick
    out of the parent; coverage is the union clipped to the parent."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_table(spans: list[list], scope: str,
                factors: dict[str, float] | None = None) -> dict:
    """Self time per span name and per layer under every span called
    ``scope`` (a root, or nested inside another scope).

    Returns ``{"total_ns", "roots", "names": {span name: self_ns},
    "layers": {layer: self_ns}, "residual_ns"}``: ``total_ns`` is the
    summed duration of the scope spans and ``residual_ns`` their own
    self time — work inside the end-to-end interval that no layer span
    claims.  With ``factors`` (trace_id -> speed correction) all times
    are corrected.
    """
    selfs = self_times(spans)
    scope_of: list[int] = []  # nearest enclosing scope span, or -1
    for idx, span in enumerate(spans):
        if span[NAME] == scope:
            scope_of.append(idx)
        else:
            parent = span[PARENT]
            scope_of.append(scope_of[parent] if parent >= 0 else -1)
    names: dict[str, float] = {}
    total = residual = 0.0
    roots = 0
    for idx, span in enumerate(spans):
        if scope_of[idx] < 0:
            continue
        scale = factors.get(span[TRACE], 1.0) if factors else 1.0
        if scope_of[idx] == idx:
            roots += 1
            total += (span[END] - span[START]) * scale
            residual += selfs[idx] * scale
        else:
            name = span[NAME]
            names[name] = names.get(name, 0.0) + selfs[idx] * scale
    layers: dict[str, float] = {}
    for name, self_ns in names.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_ns
    return {"total_ns": total, "roots": roots, "names": names,
            "layers": layers, "residual_ns": residual}
