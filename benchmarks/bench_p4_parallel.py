"""P4: parallel execution scaling — lane overlap at parallelism 1/2/4.

The logical->physical compiler (:mod:`repro.streaming.plan`) turns
one job graph into N subtasks per operator with hash-partitioned keyed
shuffles.  Execution stays single-threaded and deterministic, so the
scaling quantity is *modelled*: each subtask index is a worker lane,
and :meth:`ParallelExecutor.lane_items` counts the items each lane
processed.  The **lane overlap** ``sum / max`` of those counts is how
many lanes' worth of work the plan runs side by side (1.0 serial, p
when perfectly even).  It is exact, so it repeats from run to run and
needs no best-of-N.

The library reads no clock; this bench times each whole run itself
(best of ``repeats``).  If every lane's time is its item share of the
run, the busiest lane takes ``wall_p / overlap_p``, so the modelled
speedup over parallelism 1 is ``speedup_p = overlap_p * wall_1 /
wall_p``.  ``tools/check_perf.py`` gates ``speedup_p4 >= 1.5`` and
``lane_overlap_p4 > 3.2`` on the keyed-window workload: under the
ideal 4x, so channel/shuffle overhead is allowed, but a plan that stops
spreading its work fails (a one-key stream reads 1.0 to 1.33).  The
wall times are reported in their own column, never mixed with modelled
ones.

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


def lane_overlap(lanes: list[int]) -> float:
    """``sum / max`` of the per-lane item counts: how many lanes' worth
    of work ran side by side (1.0 when one lane did everything)."""
    return sum(lanes) / max(max(lanes), 1)


def run_experiment(elements: list[Element], repeats: int = 3) -> dict:
    outputs: dict[int, list[tuple]] = {}
    lanes: dict[int, list[int]] = {}
    wall: dict[int, float] = {}
    for p in PARALLELISMS:
        # Best-of-N on the wall time of the whole run; sinks and lane
        # counts must agree on every repeat.
        for _ in range(repeats):
            executor = ParallelExecutor(_build_job(elements), p)
            started = time.perf_counter()
            executor.run(source_batch=SOURCE_BATCH)
            elapsed = time.perf_counter() - started
            wall[p] = min(wall.get(p, elapsed), elapsed)
            out = _canonical_sink(executor.sinks["out"])
            assert outputs.setdefault(p, out) == out, (
                f"parallelism {p} diverged between repeats")
            assert lanes.setdefault(p, executor.lane_items()) == \
                executor.lane_items(), f"parallelism {p} lanes diverged"
    base = outputs[PARALLELISMS[0]]
    for p in PARALLELISMS[1:]:
        assert outputs[p] == base, (
            f"parallelism {p} diverged from the single-instance sinks")
    overlap = {p: lane_overlap(lanes[p]) for p in PARALLELISMS}
    return {
        "config": {"n_events": len(elements),
                   "n_keys": len({e.key for e in elements}),
                   "splits": N_SPLITS, "source_batch": SOURCE_BATCH,
                   "window_s": WINDOW_S},
        "parallel": {
            **{f"speedup_p{p}": overlap[p] * wall[1] / wall[p]
               for p in PARALLELISMS},
            **{f"lane_overlap_p{p}": overlap[p] for p in PARALLELISMS},
            **{f"lane_items_p{p}": lanes[p] for p in PARALLELISMS},
            **{f"wall_s_p{p}": wall[p] for p in PARALLELISMS},
            "window_results": len(base),
        },
    }


def report(results: dict) -> None:
    par = results["parallel"]
    print_table(
        "P4  parallel scaling "
        f"({results['config']['n_events']} events, keyed window sum, "
        f"{results['config']['splits']} source splits)",
        ["parallelism", "lane items", "lane overlap",
         "modelled speedup vs p=1", "wall s (best)"],
        [[str(p), " ".join(map(str, par[f"lane_items_p{p}"])),
          par[f"lane_overlap_p{p}"], par[f"speedup_p{p}"],
          par[f"wall_s_p{p}"]]
         for p in PARALLELISMS],
        note="bit-identical sinks across parallelism (asserted); "
             "modelled: overlap = sum/max lane items, speedup = "
             "overlap_p * wall_1 / wall_p; gates: speedup_p4 >= 1.5, "
             "lane_overlap_p4 > 3.2 (tools/check_perf.py)")


def bench_p4_parallel(benchmark):
    """pytest-benchmark entry: smaller stream, same invariants."""
    results = benchmark.pedantic(
        lambda: run_experiment(_elements(20_000)), rounds=1, iterations=1)
    report(results)
    assert results["parallel"]["speedup_p4"] >= 1.5


def main() -> None:
    args = benchlib.bench_parser(__doc__,
                                 events_default=N_EVENTS).parse_args()
    results = run_experiment(_elements(args.events))
    report(results)
    # The P1 sections are owned by bench_p1_throughput.py; this bench
    # owns only the "parallel" key.
    benchlib.merge_section(args.out, "parallel", results)


if __name__ == "__main__":
    main()
