#!/usr/bin/env python
"""Serving-store gate: exactly-once state, fast lookups, determinism.

Runs the store-marked chaos suite, then three direct checks over the
tiered serving store (:mod:`repro.store`):

1. **exactly-once under chaos** — a serving job crashed mid-stage,
   mid-apply and during compaction (plus a coordinator crash) converges
   to hot-store contents and analytical row counts bit-identical to the
   fault-free run, at parallelism 1 and 2;
2. **lookup tail under ingest** — the ``benchmarks/bench_p8_store.py``
   experiment (>= 1M distinct keys, point lookups interleaved with
   sustained columnar ingest) holds p99 point-lookup latency under the
   committed floor; the bytes its hot tier holds per stored row
   (one shard, rebuilt under tracemalloc) are printed, with no bound;
   its Zipf row (lookups on keys with hundreds of memtable versions)
   holds a p50 within a fixed ratio of the uniform-key p50 measured in
   the same run; its read-amplification row
   (keys in the memtable and six runs) and its dashboard row (the
   ward-backfill panel's tumbling mean, a ~20 000-row group_by) are
   printed, with no bound; its
   epoch-apply row (one 20 000-row epoch, 1 000 epochs of 20 rows)
   costs no more handed over as the sink's sealed batch than as an
   Element list in the same run;
   the results merge into ``benchmarks/BENCH_streaming.json``;
3. **determinism** — the same seeded chaos schedule reproduces the
   same store state and fault trace on a second run.

Exit 0 when all hold, 1 otherwise.

Usage:  python tools/check_store.py [--skip-tests] [--skip-bench]
"""

from __future__ import annotations

import argparse
import sys

from gatelib import Gate, ensure_paths, run_suite

ensure_paths()

from repro.chaos import (  # noqa: E402
    SITE_COORDINATOR,
    SITE_STORE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.eventlog import LogCluster, Producer, TopicConfig  # noqa: E402
from repro.store import canonical_contents, serve_topic  # noqa: E402
from repro.util.rng import make_rng  # noqa: E402

N_RECORDS = 300
KEYS = 7

CHAOS_PLANS = {
    "mid-stage": FaultPlan(specs=(
        FaultSpec("store_crash", SITE_STORE, at=1, target="stage"),)),
    "mid-apply": FaultPlan(specs=(
        FaultSpec("store_crash", SITE_STORE, at=1, target="apply"),)),
    "during-compaction": FaultPlan(specs=(
        FaultSpec("store_crash", SITE_STORE, at=0, target="compact"),)),
    "mid-commit": FaultPlan(specs=(
        FaultSpec("coordinator_crash", SITE_COORDINATOR, at=1),)),
}


def _cluster() -> LogCluster:
    cluster = LogCluster(num_brokers=1)
    cluster.create_topic(TopicConfig(name="gate.events", partitions=2))
    producer = Producer(cluster)
    rng = make_rng(17)
    for i in range(N_RECORDS):
        producer.send("gate.events",
                      {"m": float(rng.uniform(0, 100)), "u": f"u-{i % KEYS}"},
                      key=f"u-{i % KEYS}", timestamp=float(i))
    return cluster


def _run(plan: FaultPlan | None, parallelism: int):
    injector = FaultInjector(plan) if plan is not None else None
    store, report = serve_topic(
        _cluster(), "gate.events", key_fn=lambda v: v["u"],
        metric_fn=lambda v: v["m"], parallelism=parallelism,
        source_batch=32, interval_cycles=1, injector=injector)
    trace = injector.trace_tuples() if injector is not None else ()
    return (canonical_contents(store), store.analytical.rows), report, trace


def check_exactly_once() -> bool:
    print("\n== exactly-once under chaos ==")
    ok = True
    for parallelism in (1, 2):
        golden, golden_report, _ = _run(None, parallelism)
        for label, plan in CHAOS_PLANS.items():
            state, report, _ = _run(plan, parallelism)
            fired = report.crashes + report.coordinator_crashes
            identical = state == golden
            ok &= identical and fired >= 1
            print(f"  p={parallelism} {label:<18} crashes={fired} "
                  f"restores={report.full_restores} "
                  f"{'IDENTICAL' if identical else 'DIVERGED'}")
    return ok


def check_latency_floor() -> bool:
    print("\n== lookup tail under sustained columnar ingest ==")
    import benchlib
    from bench_p8_store import (
        APPLY_SHAPES,
        HOT_KEY_RATIO_CEILING,
        P99_FLOOR_US,
        run_experiment,
    )

    results = run_experiment()
    stats = results["store"]
    p99 = stats["lookup_p99_us"]
    ratio = stats["hot_key_p50_ratio"]
    print(f"  {results['config']['keys']:,} keys, "
          f"{stats['ingest_rows']:,} rows ingested concurrently: "
          f"p50={stats['lookup_p50_us']} us p99={p99} us "
          f"(floor {P99_FLOOR_US:.0f} us)")
    print(f"  hot tier: {stats['hot_bytes_per_row']} traced bytes per "
          "stored row, one shard (reported, no bound)")
    print(f"  keys in the memtable and {stats['amp_runs']} runs: "
          f"p50={stats['amp_lookup_p50_us']} us "
          f"p99={stats['amp_lookup_p99_us']} us (reported, no bound)")
    for name in ("tumbling", "group_by"):
        print(f"  dashboard {name}: {stats[f'dash_{name}_rows']:,} rows -> "
              f"{stats[f'dash_{name}_cells']:,} cells, "
              f"p50={stats[f'dash_{name}_us_p50']} us (reported, no bound)")
    print(f"  Zipf keys, {stats['hot_key_memtable_versions_p50']} memtable "
          f"versions behind the median lookup: "
          f"p50={stats['hot_key_lookup_p50_us']} us = {ratio}x the "
          f"uniform-key p50 (ceiling {HOT_KEY_RATIO_CEILING}x)")
    apply_ok = True
    for label, epochs, rows in APPLY_SHAPES:
        over = stats[f"apply_{label}_batch_over_list"]
        apply_ok &= over <= 1.0
        print(f"  epoch apply, {epochs:,} x {rows:,} rows: sealed batch "
              f"{stats[f'apply_{label}_batch_us_per_row']} us/row, "
              f"Element list {stats[f'apply_{label}_list_us_per_row']} "
              f"us/row = {over}x (ceiling 1.0x)")
    benchlib.merge_section(benchlib.DEFAULT_OUT, "store", results)
    return (p99 < P99_FLOOR_US and ratio <= HOT_KEY_RATIO_CEILING
            and apply_ok)


def check_determinism() -> bool:
    print("\n== determinism (same seeded schedule, second run) ==")
    plan = CHAOS_PLANS["mid-apply"]
    first = _run(plan, 2)
    second = _run(plan, 2)
    same = (first[0], first[2]) == (second[0], second[2])
    print(f"  store state + fault trace {'MATCH' if same else 'DIFFER'}")
    return same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-tests", action="store_true",
                        help="skip the store-marked pytest suite")
    parser.add_argument("--skip-bench", action="store_true",
                        help="skip the 1M-key latency benchmark")
    args = parser.parse_args()

    gate = Gate("check_store")
    if not args.skip_tests and not run_suite("store test suite", "store"):
        return gate.fail("store suite")
    if not check_exactly_once():
        return gate.fail("state diverged or faults unfired")
    if not args.skip_bench and not check_latency_floor():
        return gate.fail("p99 point lookup above floor, hot-key lookups "
                         "slower than uniform-key ones, or a sealed "
                         "batch applied slower than an Element list")
    if not check_determinism():
        return gate.fail("state not reproducible")
    return gate.ok()


if __name__ == "__main__":
    sys.exit(main())
