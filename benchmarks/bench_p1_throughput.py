"""P1: batched dataflow throughput — per-item vs batched (chained).

The timeliness barrier (paper Section 4.1) is an executor problem before
it is an algorithms problem: the seed moved one element at a time
through Python-level dispatch.  This bench measures elements/sec on the
reference pipeline

    map -> filter -> keyBy -> watermarks -> tumbling window (sum)

under the two execution modes of the *same* job graph:

- ``per_item``  — element-at-a-time dispatch (the seed's semantics),
- ``chained``   — whole-batch channel moves + columnar operators, with
  map/filter/keyBy/watermarks fused into one chain node (batched
  execution; the plan fuses whatever it can).

Both modes must produce identical sink contents — asserted here — so
the speedup is pure interpreter-overhead removal.  Results are written
to ``BENCH_streaming.json`` so ``tools/check_perf.py`` can gate future
PRs against throughput regressions.

Both modes pass ``emit_every=32``; every in-tree application and the
end-to-end benchmark use ``with_watermarks()``'s default of one
watermark per element.  The ``default_watermarks`` row runs the chained
job in the end-to-end benchmark's shape (time-ordered input, 1 000
keys, ~10 rows per key and window, ``source_batch=1024``) under the
default cadence and, for reference, under ``emit_every=32``;
``check_perf`` floors the first at half the second, so the cadence the
benches tune cannot drift away from the one the applications run.

Also micro-benches two satellite fixes: the cached sample array in
``util.metrics.Summary`` and the vectorized sketch ``add_many`` kernels.

All measured rates are reported *through* a
:class:`~repro.util.metrics.MetricsRegistry` (the tables read the
snapshot, not the raw floats), and an observability-overhead section
times the chained job with hooks off / disabled / fully enabled —
backing the "<5% enabled, ~0% disabled" budget that
``tools/check_obs.py`` gates.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from repro.analytics.sketches import CountMinSketch, HyperLogLog
from repro.obs import Tracer
from repro.streaming import (
    Element,
    JobBuilder,
    ParallelExecutor,
    TumblingWindows,
)
from repro.util.metrics import MetricsRegistry, Summary

import benchlib
from tableprint import print_table

N_EVENTS = 100_000
N_KEYS = 64
SOURCE_BATCH = 8192
WINDOW_S = 5.0
#: the ``default_watermarks`` row: the shape benchmarks/e2e jobs run —
#: ~1 000 live keys, ~10 rows per key and window, 1 024-row pulls
DEFAULT_ROW_KEYS = 1000
DEFAULT_ROW_WINDOW_S = 100.0
DEFAULT_ROW_SOURCE_BATCH = 1024
#: the sections of BENCH_streaming.json this bench owns
SECTIONS = ("throughput", "obs_overhead", "summary_metrics", "sketch")

MODES = {
    "per_item": dict(batch_mode=False),
    "chained": dict(batch_mode=True),
}


def _elements(n: int) -> list[Element]:
    rng = np.random.default_rng(11)
    values = rng.normal(10.0, 4.0, size=n)
    return [Element(value=float(v), timestamp=i * 0.01)
            for i, v in enumerate(values)]


def _build_job(elements: list[Element], e2e_shape: bool = False,
               emit_every: int | None = 32):
    """``e2e_shape`` keys and windows the pipeline like the end-to-end
    benchmark's jobs (the ``default_watermarks`` row); ``emit_every=None``
    leaves ``with_watermarks()`` at its default cadence."""
    cadence = {} if emit_every is None else {"emit_every": emit_every}
    if e2e_shape:
        window_s = DEFAULT_ROW_WINDOW_S
        key_fn = lambda v: np.floor(v * 100.0) % DEFAULT_ROW_KEYS  # noqa: E731
    else:
        window_s = WINDOW_S
        key_fn = lambda v: np.floor(v) % N_KEYS  # noqa: E731
    builder = JobBuilder("p1-throughput")
    (builder.source("events", elements)
            .map(lambda v: v * 1.5 + 1.0, vectorized=True)
            .filter(lambda v: v > 4.0, vectorized=True)
            .key_by(key_fn, vectorized=True)
            .with_watermarks(0.5, **cadence)
            .window(TumblingWindows(window_s), "sum")
            .sink("out"))
    return builder.build()


def _canonical_sink(sink) -> list[tuple]:
    return [(float(r.key), r.window.start, round(float(r.value), 9), r.count)
            for r in sink.values]


def _best_eps(elements: list[Element], flags: dict, repeats: int,
              source_batch: int = SOURCE_BATCH,
              **job_shape) -> tuple[float, list[tuple]]:
    """Best-of-N elements/s of one job under one execution mode, and
    its canonical sink (asserted equal across the repeats).

    Best-of-N: the committed baseline gates an absolute eps floor, so
    the estimator must be robust to scheduler jitter on shared machines
    — min elapsed is the standard noise-floor statistic."""
    best = float("inf")
    sink: list[tuple] | None = None
    for _ in range(repeats):
        # fresh operators (state) per run
        executor = ParallelExecutor(_build_job(elements, **job_shape),
                                    **flags)
        start = time.perf_counter()
        sinks = executor.run(source_batch=source_batch)
        best = min(best, time.perf_counter() - start)
        out = _canonical_sink(sinks["out"])
        assert sink is None or out == sink, "runs diverged between repeats"
        sink = out
    return len(elements) / best, sink


def bench_pipeline(n_events: int, registry: MetricsRegistry,
                  repeats: int = 3) -> dict:
    elements = _elements(n_events)
    outputs: dict[str, list[tuple]] = {}
    for mode, flags in MODES.items():
        eps, outputs[mode] = _best_eps(elements, flags, repeats)
        registry.gauge("bench.eps", mode=mode).set(eps)
    base = outputs["per_item"]
    assert outputs["chained"] == base, (
        "chained execution diverged from per-item results")
    # The end-to-end shape, chained, under the default cadence and under
    # emit_every=32; each sink checked against one per-item run.
    for label, emit_every in (("default_watermarks", None),
                              ("e2e_shape_emit_32", 32)):
        shape = dict(source_batch=DEFAULT_ROW_SOURCE_BATCH, e2e_shape=True,
                     emit_every=emit_every)
        eps, sink = _best_eps(elements, MODES["chained"], repeats, **shape)
        assert sink == _best_eps(elements, MODES["per_item"], 1,
                                 **shape)[1], (
            f"{label}: chained execution diverged from per-item")
        registry.gauge("bench.eps", mode=label).set(eps)
    # Results flow through the registry: the report table and the
    # committed baseline both read the snapshot, not local floats.
    snap = registry.snapshot()
    eps = {mode: snap[f"bench.eps{{mode={mode}}}"]
           for mode in (*MODES, "default_watermarks", "e2e_shape_emit_32")}
    return {
        "per_item_eps": eps["per_item"],
        "chained_eps": eps["chained"],
        "speedup_chained": eps["chained"] / eps["per_item"],
        "window_results": len(base),
        "default_watermarks_eps": eps["default_watermarks"],
        "e2e_shape_emit_32_eps": eps["e2e_shape_emit_32"],
        "default_watermarks_ratio":
            eps["default_watermarks"] / eps["e2e_shape_emit_32"],
    }


def bench_obs_overhead(n_events: int, registry: MetricsRegistry,
                       repeats: int = 3) -> dict:
    """Chained-mode throughput with observability off / disabled / on.

    Configs run back-to-back within each round and the reported ratio is
    the median of within-round ratios — the same drift-cancelling
    statistic ``tools/check_obs.py`` gates (see the comment there).
    """
    elements = _elements(n_events)

    def one_run(tracer, metrics) -> float:
        executor = ParallelExecutor(_build_job(elements), tracer=tracer,
                                    metrics=metrics)
        start = time.perf_counter()
        executor.run(source_batch=SOURCE_BATCH)
        return n_events / (time.perf_counter() - start)

    configs = {
        "off": lambda: (None, None),
        "disabled": lambda: (Tracer(enabled=False), None),
        "enabled": lambda: (Tracer(), MetricsRegistry()),
    }
    for make in configs.values():
        one_run(*make())  # warmup, discarded
    for _ in range(repeats):
        round_eps = {}
        for name, make in configs.items():
            round_eps[name] = one_run(*make())
            registry.summary("bench.obs_eps", config=name).observe(
                round_eps[name])
        for name in ("disabled", "enabled"):
            registry.summary("bench.obs_ratio", config=name).observe(
                round_eps[name] / round_eps["off"])

    snap = registry.snapshot()
    rates = {name: snap[f"bench.obs_eps{{config={name}}}.p50"]
             for name in configs}
    ratios = {name: snap[f"bench.obs_ratio{{config={name}}}.p50"]
              for name in ("disabled", "enabled")}
    return {
        "off_eps": rates["off"],
        "disabled_eps": rates["disabled"],
        "enabled_eps": rates["enabled"],
        "disabled_overhead": 1.0 - ratios["disabled"],
        "enabled_overhead": 1.0 - ratios["enabled"],
    }


def bench_summary_metrics(n_samples: int = 20_000, calls: int = 300) -> dict:
    summary = Summary()
    rng = np.random.default_rng(5)
    for v in rng.normal(50.0, 12.0, size=n_samples):
        summary.observe(float(v))
    raw = summary.samples()

    start = time.perf_counter()
    for _ in range(calls):
        summary.percentile(95.0)
        summary.mean
    cached = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(calls):
        float(np.percentile(np.asarray(raw), 95.0))  # the seed's re-convert
        float(np.mean(np.asarray(raw)))
    naive = time.perf_counter() - start

    summary.reset()
    assert summary.count == 0
    return {
        "cached_calls_per_s": calls / cached,
        "naive_calls_per_s": calls / naive,
        "speedup": naive / cached,
    }


def bench_sketches(n_keys: int = 30_000) -> dict:
    keys = [f"user-{i % 2000}-{i % 97}" for i in range(n_keys)]

    cms_loop = CountMinSketch(epsilon=0.005)
    start = time.perf_counter()
    for k in keys:
        cms_loop.add(k)
    loop_s = time.perf_counter() - start

    cms_batch = CountMinSketch(epsilon=0.005)
    start = time.perf_counter()
    cms_batch.add_many(keys)
    batch_s = time.perf_counter() - start
    assert (cms_loop._table == cms_batch._table).all()

    hll_loop, hll_batch = HyperLogLog(), HyperLogLog()
    start = time.perf_counter()
    for k in keys:
        hll_loop.add(k)
    hll_loop_s = time.perf_counter() - start
    start = time.perf_counter()
    hll_batch.add_many(keys)
    hll_batch_s = time.perf_counter() - start
    assert (hll_loop._registers == hll_batch._registers).all()

    return {
        "cms_add_keys_per_s": n_keys / loop_s,
        "cms_add_many_keys_per_s": n_keys / batch_s,
        "cms_speedup": loop_s / batch_s,
        "hll_speedup": hll_loop_s / hll_batch_s,
    }


def run_experiment(n_events: int = N_EVENTS) -> dict:
    # `config` (merged as `throughput_config`) and `throughput` are read
    # by tools/check_perf.py against the committed baseline — extend
    # results with new keys only.
    registry = MetricsRegistry()
    return {
        "config": {"n_events": n_events, "n_keys": N_KEYS,
                   "source_batch": SOURCE_BATCH, "window_s": WINDOW_S},
        "throughput": bench_pipeline(n_events, registry),
        "obs_overhead": bench_obs_overhead(n_events, registry),
        "summary_metrics": bench_summary_metrics(),
        "sketch": bench_sketches(),
    }


def report(results: dict) -> None:
    t = results["throughput"]
    print_table(
        "P1  batched dataflow throughput "
        f"({results['config']['n_events']} events, map->filter->keyBy->window)",
        ["mode", "elements/s", "speedup vs per-item"],
        [["per_item", t["per_item_eps"], 1.0],
         ["chained", t["chained_eps"], t["speedup_chained"]]],
        note="identical sink contents in both modes (asserted)")
    print_table(
        "P1  default watermark cadence (chained, end-to-end shape: "
        f"{DEFAULT_ROW_KEYS} keys, source_batch={DEFAULT_ROW_SOURCE_BATCH})",
        ["cadence", "elements/s", "vs emit_every=32"],
        [["emit_every=32", t["e2e_shape_emit_32_eps"], 1.0],
         ["with_watermarks() default", t["default_watermarks_eps"],
          t["default_watermarks_ratio"]]],
        note="sinks identical to per-item (asserted); check_perf floors "
             "the ratio at 0.5")
    o = results["obs_overhead"]
    print_table(
        "P1  observability overhead (chained mode)",
        ["config", "elements/s", "overhead vs off"],
        [["off", o["off_eps"], 0.0],
         ["tracer disabled", o["disabled_eps"], o["disabled_overhead"]],
         ["tracer + metrics", o["enabled_eps"], o["enabled_overhead"]]],
        note="budget: <5% enabled, ~0% disabled (gated by tools/check_obs.py)")
    s, k = results["summary_metrics"], results["sketch"]
    print_table(
        "P1  satellite kernels",
        ["kernel", "speedup"],
        [["Summary.percentile/mean cached array", s["speedup"]],
         ["CountMinSketch.add_many", k["cms_speedup"]],
         ["HyperLogLog.add_many", k["hll_speedup"]]],
        note="batched sketch inserts are bit-identical to looped add()")


def bench_p1_throughput(benchmark):
    """pytest-benchmark entry: smaller stream, same invariants."""
    results = benchmark.pedantic(lambda: run_experiment(30_000),
                                 rounds=1, iterations=1)
    report(results)
    t = results["throughput"]
    assert t["speedup_chained"] > 1.5
    assert results["sketch"]["cms_speedup"] > 1.0


def main() -> None:
    parser = benchlib.bench_parser(__doc__, events_default=N_EVENTS)
    args = parser.parse_args()
    if args.events < 1:
        parser.error("--events must be >= 1")
    results = run_experiment(args.events)
    report(results)
    for section in SECTIONS:
        benchlib.merge_section(args.out, section, results)


if __name__ == "__main__":
    main()
