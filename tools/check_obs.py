#!/usr/bin/env python
"""Observability gate: span-tree completeness + instrumentation overhead.

Part 1 — completeness.  Runs the end-to-end traced reference pipeline in
both execution modes and asserts, per mode:

- the trace forms one connected tree rooted at ``frame``;
- every produced record has a ``produce`` span and a ``consume`` span
  parented on it (causality survives the broker hop);
- the job span contains a span for the source, the sink and every
  logical operator of the reference job;
- an ``offload:frame`` (with at least one attempt) and a
  ``render:compose`` span exist;
- the (name, parent-name) multiset is identical across modes — chaining
  and batching must not change the observable trace shape.

Part 2 — overhead.  Times the reference streaming job with observability
off (no hooks), with a disabled tracer (hooks wired, ``enabled=False``)
and fully enabled (tracer + registry).  The gated statistic is the
median of within-round paired throughput ratios (see the comment in
``check_overhead`` on why): disabled must hold >= 93% of off (the ~0%
claim) and enabled >= 90% (the <5% claim), each with a noise allowance
for shared-machine CPU throttling.

Usage:  python tools/check_obs.py [--events N] [--repeats R]
        python tools/check_obs.py --skip-overhead
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from collections import Counter

from gatelib import Gate, ensure_paths

ensure_paths()

from repro.chaos.harness import (  # noqa: E402
    reference_events,
    reference_job,
    reference_operator_names,
)
from repro.obs import Tracer, build_tree, traced_reference_run  # noqa: E402
from repro.streaming import ParallelExecutor  # noqa: E402
from repro.util.metrics import MetricsRegistry  # noqa: E402

MODES = {
    "per_item": dict(batch_mode=False),
    "chained": dict(batch_mode=True),
}


def _parent_shape(spans) -> Counter:
    """Multiset of (span name, parent span name) pairs."""
    by_id = {s.span_id: s for s in spans}
    return Counter((s.name,
                    by_id[s.parent_id].name if s.parent_id in by_id else None)
                   for s in spans)


def check_completeness(n_events: int) -> bool:
    print(f"== span-tree completeness ({n_events} events) ==", flush=True)
    ok = True
    shapes: dict[str, Counter] = {}
    for mode, kwargs in MODES.items():
        run = traced_reference_run(seed=0, n_events=n_events, **kwargs)
        spans = run.tracer.spans
        problems: list[str] = []

        if run.tracer.open_spans():
            problems.append(f"{len(run.tracer.open_spans())} spans left open")
        roots = build_tree(spans)
        if len(roots) != 1 or roots[0].name != "frame":
            problems.append(f"expected a single 'frame' root, got "
                            f"{[r.name for r in roots]}")

        names = Counter(s.name for s in spans)
        if names["produce"] != n_events:
            problems.append(f"produce spans: {names['produce']} != {n_events}")
        if names["consume"] != n_events:
            problems.append(f"consume spans: {names['consume']} != {n_events}")
        produce_ids = {s.span_id for s in spans if s.name == "produce"}
        orphan = sum(1 for s in spans
                     if s.name == "consume" and s.parent_id not in produce_ids)
        if orphan:
            problems.append(f"{orphan} consume spans not parented on a "
                            "produce span")

        job_nodes = [r for r in roots[0].walk()
                     if r.name.startswith("job:")]
        if len(job_nodes) != 1:
            problems.append(f"expected one job span, got {len(job_nodes)}")
        else:
            children = {c.name for c in job_nodes[0].children}
            wanted = ({f"op:{n}" for n in reference_operator_names()}
                      | {"source:events", "sink:out"})
            missing = wanted - children
            if missing:
                problems.append(f"job span missing children: "
                                f"{sorted(missing)}")

        if names["offload:frame"] != 1 or names["offload:attempt"] < 1:
            problems.append("missing offload:frame/offload:attempt spans")
        if names["render:compose"] != 1:
            problems.append("missing render:compose span")

        shapes[mode] = _parent_shape(spans)
        status = "ok" if not problems else "FAIL"
        if problems:
            ok = False
        print(f"  {mode:>9}: {len(spans)} spans  {status}")
        for p in problems:
            print(f"             - {p}")

    baseline, chained = shapes["per_item"], shapes["chained"]
    if chained != baseline:
        ok = False
        diff = (chained - baseline) + (baseline - chained)
        print(f"  trace shape differs in chained vs per_item: "
              f"{dict(diff)}")
    if ok:
        print("  trace shape identical across modes  ok")
    return ok


def _one_run(events, tracer, registry) -> float:
    """Elements/sec of one reference-job run under the given hooks."""
    executor = ParallelExecutor(reference_job(list(events)), tracer=tracer,
                                metrics=registry)
    # The previous run's garbage (its elements, its sinks) would be
    # collected inside this run's timed region — a pause worth more
    # than the budgets gated, landing on whichever config runs second.
    gc.collect()
    start = time.perf_counter()
    executor.run(source_batch=256)
    return len(events) / (time.perf_counter() - start)


def check_overhead(n_events: int, repeats: int) -> bool:
    print(f"\n== instrumentation overhead ({n_events} events, "
          f"best of {repeats}) ==", flush=True)
    events = reference_events(seed=0, n=n_events)
    # Fresh hooks per run (a shared registry would accumulate samples);
    # configs are interleaved round-robin after a warmup pass so clock
    # drift and cache warmth hit all three equally.
    configs = {
        "off": lambda: (None, None),
        "disabled": lambda: (Tracer(enabled=False), None),
        "enabled": lambda: (Tracer(), MetricsRegistry()),
    }
    rates: dict[str, list[float]] = {name: [] for name in configs}
    for name, make in configs.items():
        _one_run(events, *make())  # warmup, discarded
    for _ in range(repeats):
        for name, make in configs.items():
            rates[name].append(_one_run(events, *make()))
    # CPU throttling on shared machines swings absolute rates by more
    # than the budgets being gated, but drifts slowly — so each round's
    # configs run back-to-back and the gated statistic is the median of
    # *within-round* ratios, which cancels the drift.
    ok = True
    off = statistics.median(rates["off"])
    for label, key, budget in (("disabled tracer", "disabled", 0.93),
                               ("enabled", "enabled", 0.90)):
        ratio = statistics.median(
            r / o for r, o in zip(rates[key], rates["off"]))
        status = "ok" if ratio >= budget else "FAIL"
        if status == "FAIL":
            ok = False
        print(f"  {label:>15}: {statistics.median(rates[key]):12.0f}/s "
              f"vs off {off:12.0f}/s "
              f"(paired {ratio:6.1%}, budget >= {budget:.0%})  {status}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=200,
                        help="events for the completeness runs")
    parser.add_argument("--overhead-events", type=int, default=250_000,
                        help="events per overhead run (big enough that "
                             "one run outlasts CPU-throttle bursts)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--skip-overhead", action="store_true")
    args = parser.parse_args()

    gate = Gate("check_obs")
    ok = check_completeness(args.events)
    if not args.skip_overhead:
        ok = check_overhead(args.overhead_events, args.repeats) and ok
    return gate.verdict(ok, "trace incomplete or overhead above budget")


if __name__ == "__main__":
    sys.exit(main())
