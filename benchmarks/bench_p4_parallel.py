"""P4: parallel execution scaling — modelled speedup at parallelism 1/2/4.

The logical->physical compiler (:mod:`repro.streaming.plan`) turns
one job graph into N subtasks per operator with hash-partitioned keyed
shuffles.  Execution stays single-threaded and deterministic, so the
scaling quantity is the **modelled makespan**: per drain cycle, each
subtask index is a worker lane, lane busy time is measured, and the
cycle costs its busiest lane — what wall clock would be if the lanes
ran concurrently.  Elements/sec against that makespan is the modelled
throughput; the ratio to the parallelism-1 run is the scaling number
``tools/check_perf.py`` gates (parallelism 4 must model >= 1.5x on the
keyed-window workload — well under the ideal 4x, so channel/shuffle
overhead is allowed, but a plan that stops overlapping work fails).

Sinks must be bit-identical across parallelism (asserted): the source
is key-aligned (keys ride on the elements, key-aligned routing
hashes them to splits), so per-key order — and float accumulation
order — is preserved no matter how many subtasks run.

By default results merge into ``BENCH_streaming.json`` under the
``"parallel"`` key, alongside the P1 throughput sections.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from repro.streaming import (
    Element,
    JobBuilder,
    ParallelExecutor,
    TumblingWindows,
)

import benchlib
from tableprint import print_table

N_EVENTS = 60_000
N_KEYS = 64
N_SPLITS = 4
SOURCE_BATCH = 2048
WINDOW_S = 5.0
PARALLELISMS = (1, 2, 4)


def _elements(n: int) -> list[Element]:
    rng = np.random.default_rng(23)
    values = rng.normal(10.0, 4.0, size=n)
    keys = rng.integers(0, N_KEYS, size=n)
    return [Element(value=float(v), timestamp=i * 0.01, key=int(k))
            for i, (v, k) in enumerate(zip(values, keys))]


def _build_job(elements: list[Element]):
    builder = JobBuilder("p4-parallel")
    (builder.source("events", elements, splits=N_SPLITS)
            .with_watermarks(0.5, emit_every=32)
            .map(lambda v: v * 1.5 + 1.0, name="scale")
            .filter(lambda v: v > 4.0, name="drop_small")
            .window(TumblingWindows(WINDOW_S), "sum", name="window_sum")
            .sink("out"))
    return builder.build()


def _canonical_sink(sink) -> list[tuple]:
    return sorted((float(r.key), r.window.start, float(r.value), r.count)
                  for r in sink.values)


def run_experiment(n_events: int = N_EVENTS, repeats: int = 3) -> dict:
    elements = _elements(n_events)
    outputs: dict[int, list[tuple]] = {}
    makespans: dict[int, float] = {}
    modeled: dict[int, float] = {}
    for p in PARALLELISMS:
        # Best-of-N on the modelled makespan: lane busy times are wall
        # measurements, and scheduler jitter lands on one lane at a
        # time, inflating the per-cycle max — the fastest repeat is the
        # least skewed.  Sinks must agree on every repeat.
        for r in range(repeats):
            executor = ParallelExecutor(_build_job(elements), p)
            executor.run(source_batch=SOURCE_BATCH)
            out = _canonical_sink(executor.sinks["out"])
            assert outputs.setdefault(p, out) == out, (
                f"parallelism {p} diverged between repeats")
            if r == 0 or executor.modeled_makespan_s < makespans[p]:
                makespans[p] = executor.modeled_makespan_s
                modeled[p] = executor.modeled_speedup
    base = outputs[PARALLELISMS[0]]
    for p in PARALLELISMS[1:]:
        assert outputs[p] == base, (
            f"parallelism {p} diverged from the single-instance sinks")
    eps = {p: n_events / makespans[p] for p in PARALLELISMS}
    return {
        "config": {"n_events": n_events, "n_keys": N_KEYS,
                   "splits": N_SPLITS, "source_batch": SOURCE_BATCH,
                   "window_s": WINDOW_S},
        "parallel": {
            **{f"eps_p{p}": eps[p] for p in PARALLELISMS},
            **{f"speedup_p{p}": eps[p] / eps[1] for p in PARALLELISMS},
            **{f"lane_overlap_p{p}": modeled[p] for p in PARALLELISMS},
            "window_results": len(base),
        },
    }


def report(results: dict) -> None:
    par = results["parallel"]
    print_table(
        "P4  parallel scaling "
        f"({results['config']['n_events']} events, keyed window sum, "
        f"{results['config']['splits']} source splits)",
        ["parallelism", "modelled eps", "speedup vs p=1", "lane overlap"],
        [[str(p), par[f"eps_p{p}"], par[f"speedup_p{p}"],
          par[f"lane_overlap_p{p}"]] for p in PARALLELISMS],
        note="bit-identical sinks across parallelism (asserted); "
             "gate: speedup_p4 >= 1.5 (tools/check_perf.py)")


def bench_p4_parallel(benchmark):
    """pytest-benchmark entry: smaller stream, same invariants."""
    results = benchmark.pedantic(lambda: run_experiment(20_000),
                                 rounds=1, iterations=1)
    report(results)
    assert results["parallel"]["speedup_p4"] >= 1.5


def main() -> None:
    args = benchlib.bench_parser(__doc__,
                                 events_default=N_EVENTS).parse_args()
    results = run_experiment(args.events)
    report(results)
    # The P1 sections are owned by bench_p1_throughput.py; this bench
    # owns only the "parallel" key.
    benchlib.merge_section(args.out, "parallel", results)


if __name__ == "__main__":
    main()
