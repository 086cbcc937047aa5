#!/usr/bin/env python
"""Render a span tree, critical path and metrics summary for a trace.

Two input modes:

- default: run the end-to-end traced reference pipeline
  (``repro.obs.traced_reference_run``) and report on the live trace;
- ``--input trace.jsonl``: re-parse a file written by
  :class:`repro.obs.JsonLinesExporter` and report on that instead —
  the round-trip produces the identical tree.

Usage:  python tools/trace_report.py [--events N] [--mode chained]
        python tools/trace_report.py --input runs/trace.jsonl
        python tools/trace_report.py --export runs/trace.jsonl
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs import (  # noqa: E402  (path bootstrap above)
    ConsoleExporter,
    JsonLinesExporter,
    build_tree,
    critical_path,
    read_jsonl,
    render_tree,
    span_to_dict,
    traced_reference_run,
)

MODES = {
    "per_item": dict(batch_mode=False),
    "chained": dict(batch_mode=True),
}


def report(span_dicts: list[dict], snapshot: dict[str, float] | None) -> None:
    roots = build_tree(span_dicts)
    print("== span tree ==")
    render_tree(roots, sys.stdout)
    for root in roots:
        path = critical_path(root)
        total = root.duration
        print("\n== critical path ==")
        for node in path:
            share = (node.duration / total) if total else 0.0
            print(f"  {node.name:<24} {node.duration * 1e3:10.3f}ms "
                  f"({share:6.1%})")
    if snapshot:
        print("\n== metrics ==")
        ConsoleExporter(sys.stdout).export_metrics(snapshot)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", type=Path, default=None,
                        help="report on an exported JSON-lines trace "
                             "instead of running the pipeline")
    parser.add_argument("--export", type=Path, default=None,
                        help="also write the trace + metrics to this "
                             "JSON-lines file")
    parser.add_argument("--events", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=sorted(MODES), default="chained")
    args = parser.parse_args()

    if args.input is not None:
        spans, metric_snapshots = read_jsonl(args.input)
        if not spans:
            print(f"no spans found in {args.input}")
            return 1
        report(spans, metric_snapshots[-1] if metric_snapshots else None)
        return 0

    run = traced_reference_run(seed=args.seed, n_events=args.events,
                               **MODES[args.mode])
    if args.export is not None:
        args.export.parent.mkdir(parents=True, exist_ok=True)
        args.export.unlink(missing_ok=True)
        exporter = JsonLinesExporter(args.export)
        exporter.export_spans(run.tracer.spans)
        exporter.export_metrics(run.registry.snapshot())
        print(f"trace written to {args.export}\n")
    report([span_to_dict(s) for s in run.tracer.spans],
           run.registry.snapshot())
    return 0


if __name__ == "__main__":
    sys.exit(main())
