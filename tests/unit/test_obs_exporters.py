"""Unit tests: repro.obs exporters, serialization and reports."""

import io
import json
import math

import pytest

from repro.obs import (
    ConsoleExporter,
    InMemoryExporter,
    JsonLinesExporter,
    Tracer,
    build_tree,
    critical_path,
    json_safe,
    read_jsonl,
    render_tree,
    span_from_dict,
    span_to_dict,
    tree_is_connected,
)
from repro.util import SimClock


def _small_trace() -> Tracer:
    clock = SimClock()
    tracer = Tracer(clock)
    with tracer.span("frame") as frame:
        with tracer.span("ingest"):
            clock.advance(0.2)
        with tracer.span("render") as render:
            render.set_attr("drawn", 3)
            render.add_event("shed", count=1)
            clock.advance(0.5)
    assert frame.duration == 0.7
    return tracer


class TestSerialization:
    def test_span_dict_round_trip(self):
        tracer = _small_trace()
        for span in tracer.spans:
            rebuilt = span_from_dict(span_to_dict(span))
            assert span_to_dict(rebuilt) == span_to_dict(span)

    def test_round_trip_preserves_tree_shape(self):
        tracer = _small_trace()
        direct = build_tree(tracer.spans)
        rebuilt = build_tree([span_from_dict(span_to_dict(s))
                              for s in tracer.spans])

        def shape(node):
            return (node.name, node.duration,
                    [shape(c) for c in node.children])

        assert [shape(r) for r in rebuilt] == [shape(r) for r in direct]

    def test_json_safe_scrubs_non_finite(self):
        payload = {"ok": 1.5, "bad": math.nan, "worse": math.inf,
                   "nested": [math.nan, {"x": -math.inf}]}
        safe = json_safe(payload)
        assert safe == {"ok": 1.5, "bad": None, "worse": None,
                        "nested": [None, {"x": None}]}
        json.dumps(safe, allow_nan=False)  # must not raise


class TestInMemoryExporter:
    def test_collects_spans_and_metrics(self):
        tracer = _small_trace()
        exporter = InMemoryExporter()
        assert exporter.export_spans(tracer.spans) == 3
        exporter.export_metrics({"a": 1.0})
        assert [s["name"] for s in exporter.spans] == ["frame", "ingest",
                                                       "render"]
        assert exporter.metrics == [{"a": 1.0}]


class TestJsonLinesExporter:
    def test_file_round_trip_rebuilds_the_tree(self, tmp_path):
        tracer = _small_trace()
        path = tmp_path / "trace.jsonl"
        exporter = JsonLinesExporter(path)
        exporter.export_spans(tracer.spans)
        exporter.export_metrics({"render.frames": 1.0})

        spans, metrics = read_jsonl(path)
        assert len(spans) == 3
        assert metrics == [{"render.frames": 1.0}]
        assert tree_is_connected(spans)
        roots = build_tree(spans)
        assert [r.name for r in roots] == ["frame"]
        assert {c.name for c in roots[0].children} == {"ingest", "render"}
        render = next(c for c in roots[0].children if c.name == "render")
        assert render.span["attrs"] == {"drawn": 3}
        assert render.span["events"][0]["attrs"] == {"count": 1}

    def test_torn_final_line_is_skipped(self, tmp_path):
        # a crash mid-write leaves partial JSON with no newline; the
        # durable prefix must still parse for post-crash analysis
        tracer = _small_trace()
        path = tmp_path / "trace.jsonl"
        exporter = JsonLinesExporter(path)
        exporter.export_spans(tracer.spans)
        exporter.export_metrics({"render.frames": 1.0})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "span", "name": "torn", "start')
        spans, metrics = read_jsonl(path)
        assert len(spans) == 3
        assert metrics == [{"render.frames": 1.0}]
        assert all(s["name"] != "torn" for s in spans)

    def test_torn_only_file_reads_empty(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "span"', encoding="utf-8")
        assert read_jsonl(path) == ([], [])

    def test_mid_file_corruption_still_raises(self, tmp_path):
        # a malformed line *before* the tail is corruption, not a torn
        # write — it must surface, not be silently dropped
        path = tmp_path / "trace.jsonl"
        path.write_text('not json at all\n'
                        '{"type": "metrics", "values": {}}\n',
                        encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(path)

    def test_nan_metric_serializes_as_null(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        JsonLinesExporter(path).export_metrics({"bad": math.nan})
        line = json.loads(path.read_text().strip())
        assert line == {"type": "metrics", "values": {"bad": None}}


class TestConsoleExporter:
    def test_renders_aligned_tables(self):
        tracer = _small_trace()
        out = io.StringIO()
        exporter = ConsoleExporter(out)
        exporter.export_spans(tracer.spans)
        exporter.export_metrics({"frames": 1.0, "drawn": 3.0})
        text = out.getvalue()
        assert "frame" in text and "render" in text
        assert "drawn" in text and "3" in text


class TestReport:
    def test_orphan_parents_become_roots(self):
        tracer = _small_trace()
        dicts = [span_to_dict(s) for s in tracer.spans
                 if s.name != "frame"]  # drop the root from the batch
        assert not tree_is_connected(dicts)
        roots = build_tree(dicts)
        assert sorted(r.name for r in roots) == ["ingest", "render"]

    def test_critical_path_follows_longest_child(self):
        tracer = _small_trace()
        [root] = build_tree(tracer.spans)
        path = critical_path(root)
        assert [n.name for n in path] == ["frame", "render"]

    def test_render_tree_collapses_large_sibling_groups(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("batch"):
            for _ in range(10):
                with tracer.span("produce"):
                    clock.advance(0.01)
        out = io.StringIO()
        render_tree(build_tree(tracer.spans), out)
        text = out.getvalue()
        assert "produce x10" in text
        assert text.count("produce") == 1  # aggregated, not 10 lines
