"""Observability: tracing spans, metric exporters, reports.

This package is the repo's cross-cutting observability layer.  It sits
*above* every subsystem: the executor, event log, offload runner, render
compositor and chaos harness each accept duck-typed ``tracer`` /
``metrics`` hooks and never import this package — so the
dependency edges all point upward and disabled instrumentation costs a
``None`` check.

- :mod:`.trace` — deterministic causal spans on simulated time.
- :mod:`.exporters` — in-memory, JSON-lines and console sinks.
- :mod:`.report` — span-tree assembly, critical path, rendering.
- :mod:`.pipeline` — the end-to-end traced reference run.
"""

from .exporters import (
    ConsoleExporter,
    InMemoryExporter,
    JsonLinesExporter,
    json_safe,
    read_jsonl,
    span_from_dict,
    span_to_dict,
)
from .pipeline import TracedRunReport, traced_reference_run
from .report import (
    SpanNode,
    build_tree,
    critical_path,
    render_tree,
    tree_is_connected,
)
from .trace import NOOP_SPAN, Span, SpanContext, SpanEvent, Tracer

__all__ = [
    "ConsoleExporter",
    "InMemoryExporter",
    "JsonLinesExporter",
    "NOOP_SPAN",
    "Span",
    "SpanContext",
    "SpanEvent",
    "SpanNode",
    "TracedRunReport",
    "Tracer",
    "build_tree",
    "critical_path",
    "json_safe",
    "read_jsonl",
    "render_tree",
    "span_from_dict",
    "span_to_dict",
    "traced_reference_run",
    "tree_is_connected",
]
