#!/usr/bin/env python
"""Perf gate: tier-1 tests + a throughput smoke vs the committed baseline.

Runs the full tier-1 suite, then a short (~5 s) run of
``benchmarks/bench_p1_throughput.py`` and compares chained
elements-per-second against the committed ``benchmarks/BENCH_streaming.json``.
Fails (exit 1) if it regresses more than ``--tolerance`` (default
20%) — the guard that keeps future PRs from quietly giving back the
batched-execution win.

Also runs ``benchmarks/bench_p4_parallel.py`` and gates the *modelled*
parallel scaling of its keyed-window workload at parallelism 4 on two
absolute floors.  The lane overlap — ``sum / max`` of the items each
subtask index processed (``ParallelExecutor.lane_items``) — must exceed
``FLOOR_LANE_OVERLAP_P4`` (3.2).  It is an exact count ratio, so it
reads the same on every run and every machine, and a plan that stops
spreading its work fails (a one-key stream reads 1.0 to 1.33).  The
modelled speedup ``overlap_p4 * wall_1 / wall_p4`` (the bench times
whole runs; the library reads no clock) must reach
``FLOOR_SPEEDUP_P4`` (1.5x).

The default watermark cadence is gated too, as a within-run ratio: the
chained job in the end-to-end benchmark's shape under
``with_watermarks()``'s default must reach at least
``FLOOR_DEFAULT_WATERMARKS`` (0.5) of the same job under
``emit_every=32`` — in the smoke run and in the committed baseline.  The
other rows all pass ``emit_every=32``; without this one a cliff on the
cadence every application uses stays invisible here.

The event log's per-row path is gated the same way, on two same-run
ratios from ``benchmarks/bench_a2_log_scaling.py`` (200 000 keyed float
rows): ``Producer.send`` may cost at most ``CEIL_SEND_OVER_NOOP`` (10)
times the same loop calling a no-op with the same arguments, and
``Consumer.poll`` at most ``CEIL_POLL_OVER_NOOP`` (3) times that no-op
per row — a producer that builds a record object per row reads ~14x, a
consumer that builds a frozen record per polled row ~2.8x ``send``
(~14x the no-op).  Both are gated against the no-op, never against each
other, so a faster ``send`` cannot move ``poll``'s gate.  No absolute
microseconds are gated.

The committed baseline itself is also gated.  When it was produced on
the reference 100k-event workload, ``chained_eps`` must stay >=
``FLOOR_CHAINED_OVER_PER_ITEM`` (13.5) times the ``per_item_eps`` of the
same run — the columnar hot-path floor a PR cannot regress by
committing a slower baseline.  Its ``lane_overlap_p4`` is held to the
smoke run's floor at any size.  A columnar-vs-per-element equivalence
smoke (identical sinks and operator state) runs in-process before any
timing.

Usage:  python tools/check_perf.py [--events N] [--tolerance 0.2]
        python tools/check_perf.py --skip-tests   # bench gate only
"""

from __future__ import annotations

import argparse
import json
import sys

from gatelib import REPO, Gate, ensure_paths, run_bench, run_suite

try:
    import numpy  # noqa: F401  (presence check only)
except ImportError:  # pragma: no cover - environment guard
    sys.exit("check_perf: numpy is required for the perf gate (the "
             "columnar hot path and the benchmarks are numpy-based); "
             "install it with `pip install numpy>=1.24` and re-run "
             "`make perf`.")

BASELINE = REPO / "benchmarks" / "BENCH_streaming.json"
#: Floor for a committed baseline measured on the reference workload
#: (100k events): the columnar hot path must keep chained throughput
#: over 13.5x the per-item rate of the same run (the 1 M eps this floor
#: used to name, over the 74 k per-item eps of the run it was taken
#: beside).
FLOOR_EVENTS = 100_000
FLOOR_CHAINED_OVER_PER_ITEM = 13.5
#: parallelism 4 against 1 on the keyed-window workload: lane overlap
#: (exact, > floor) and modelled speedup (>= floor)
FLOOR_LANE_OVERLAP_P4 = 3.2
FLOOR_SPEEDUP_P4 = 1.5
#: default-cadence eps over emit_every=32 eps, same job, same run
FLOOR_DEFAULT_WATERMARKS = 0.5
#: the log's per-row path, same-run ratios: send and poll, each over a
#: no-op called in the same loop with the same arguments (poll read
#: 1.54-2.09x in six A2c runs of one commit)
CEIL_SEND_OVER_NOOP = 10.0
CEIL_POLL_OVER_NOOP = 3.0


def run_bench_smoke(events: int) -> dict | None:
    print(f"\n== throughput smoke ({events} events) ==", flush=True)
    return run_bench("bench_p1_throughput.py", "--events", str(events))


def run_parallel_smoke(events: int) -> dict | None:
    print(f"\n== parallel scaling smoke ({events} events) ==", flush=True)
    return run_bench("bench_p4_parallel.py", "--events", str(events))


def check_lane_overlap(results: dict, label: str) -> bool:
    overlap = results["parallel"]["lane_overlap_p4"]
    good = overlap > FLOOR_LANE_OVERLAP_P4
    print(f"  lane_overlap_p4 ({label}): {overlap:6.3f}   (floor > "
          f"{FLOOR_LANE_OVERLAP_P4})   {'ok' if good else 'TOO SERIAL'}")
    return good


def check_parallel_speedup(current: dict) -> bool:
    speedup = current["parallel"]["speedup_p4"]
    good = speedup >= FLOOR_SPEEDUP_P4
    print("\n== parallel scaling gate ==")
    print(f"  speedup_p4 (now): {speedup:8.2f}x  (floor "
          f"{FLOOR_SPEEDUP_P4}x)  {'ok' if good else 'TOO SLOW'}")
    return check_lane_overlap(current, "now") and good


def check_columnar_equivalence(events: int = 5_000) -> bool:
    """In-process smoke: the columnar representation must be invisible —
    identical sink contents and identical window-operator snapshots
    against the same job run per item (``batch_mode=False``)."""
    print(f"\n== columnar equivalence smoke ({events} events) ==",
          flush=True)
    ensure_paths()
    from bench_p1_throughput import SOURCE_BATCH, _build_job, _elements
    from repro.streaming import ParallelExecutor

    elements = _elements(events)
    runs = {}
    for label, batch_mode in (("columnar", True), ("per-element", False)):
        executor = ParallelExecutor(_build_job(elements),
                                    batch_mode=batch_mode)
        sinks = executor.run(source_batch=SOURCE_BATCH)
        snapshot = executor.checkpoint()
        runs[label] = ([(r.key, r.window.start, r.value, r.count)
                        for r in sinks["out"].values],
                       (snapshot.scalar_state, snapshot.keyed_state))
    same_sinks = runs["columnar"][0] == runs["per-element"][0]
    same_state = runs["columnar"][1] == runs["per-element"][1]
    print(f"  sinks identical: {same_sinks}   "
          f"operator state identical: {same_state}")
    return same_sinks and same_state


def check_default_watermarks(results: dict, label: str) -> bool:
    """The default-cadence row against its ``emit_every=32`` twin."""
    t = results["throughput"]
    ratio = t["default_watermarks_ratio"]
    good = ratio >= FLOOR_DEFAULT_WATERMARKS
    print(f"  default_watermarks ({label}): "
          f"{t['default_watermarks_eps']:12.0f}/s = {ratio:5.2f}x "
          f"emit_every=32  (floor {FLOOR_DEFAULT_WATERMARKS}x)  "
          f"{'ok' if good else 'DEFAULT-PATH CLIFF'}")
    return good


def check_log_path(results: dict, label: str) -> bool:
    """The two ratios of the log's per-row path against their ceilings,
    each derived from the same run's microseconds per row."""
    log = results["log"]
    ok = True
    for call, ceiling in (("send", CEIL_SEND_OVER_NOOP),
                          ("poll", CEIL_POLL_OVER_NOOP)):
        ratio = log[f"{call}_us_per_row"] / log["noop_us_per_row"]
        good = ratio <= ceiling
        ok = ok and good
        print(f"  {call}_over_noop ({label}): {ratio:6.2f}x no-op  "
              f"(ceiling {ceiling}x)  {'ok' if good else 'PER-ROW CLIFF'}")
    return ok


def check_committed_floors() -> bool:
    """Absolute floors on the *committed* baseline: when the numbers in
    ``BENCH_streaming.json`` were measured on the reference workload,
    they must clear the columnar hot-path targets — a PR cannot sneak a
    regression in by regenerating a slower baseline."""
    if not BASELINE.exists():
        return True
    baseline = json.loads(BASELINE.read_text())
    ok = True
    print("\n== committed baseline floors ==")
    if baseline.get("throughput_config", {}).get("n_events") == FLOOR_EVENTS:
        t = baseline["throughput"]
        ratio = t["chained_eps"] / t["per_item_eps"]
        good = ratio >= FLOOR_CHAINED_OVER_PER_ITEM
        ok = ok and good
        print(f"    chained_eps: {t['chained_eps']:12.0f}/s = {ratio:5.1f}x "
              f"per-item  (floor {FLOOR_CHAINED_OVER_PER_ITEM}x)  "
              f"{'ok' if good else 'BELOW FLOOR'}")
    else:
        print(f"  (baseline not measured at {FLOOR_EVENTS} events; "
              "skipping chained_eps floor)")
    ok = check_default_watermarks(baseline, "committed") and ok
    if "log" in baseline:
        ok = check_log_path(baseline, "committed") and ok
    else:
        print("  (no log section in the baseline; run "
              "benchmarks/bench_a2_log_scaling.py)")
    if "parallel" in baseline:
        ok = check_lane_overlap(baseline, "committed") and ok
    else:
        print("  (no parallel section in the baseline; run "
              "benchmarks/bench_p4_parallel.py)")
    return ok


def check_regression(current: dict, tolerance: float) -> bool:
    if not BASELINE.exists():
        print(f"no baseline at {BASELINE}; run "
              "benchmarks/bench_p1_throughput.py to create one")
        return True
    baseline = json.loads(BASELINE.read_text())
    ok = True
    print(f"\n== regression gate (tolerance {tolerance:.0%}) ==")
    n_now = current["throughput_config"]["n_events"]
    n_base = baseline["throughput_config"]["n_events"]
    same_size = n_now == n_base
    # Speedup vs the per-item baseline is a within-run ratio, robust to
    # machine speed; across stream sizes it shifts with amortization,
    # so the cross-size gate is loose where the like-size gate is not.
    rows = [("speedup_chained", "x", tolerance if same_size
             else 2 * tolerance)]
    if same_size:
        # Absolute throughput only compares like-for-like stream sizes
        # (fixed costs amortize differently on a smoke-sized stream).
        rows.insert(0, ("chained_eps", "/s", tolerance))
    else:
        print(f"  (stream sizes differ — {n_now} vs "
              f"baseline {n_base} — skipping "
              "absolute eps; speedup tolerance doubled, since fixed "
              "costs amortize less on a smoke-sized stream)")
    for key, unit, allowed in rows:
        base = baseline["throughput"][key]
        now = current["throughput"][key]
        ratio = now / base
        good = ratio >= 1.0 - allowed
        ok = ok and good
        print(f"  {key:>15}: baseline {base:12.2f}{unit}  "
              f"now {now:12.2f}{unit}  ({ratio:6.1%})  "
              f"{'ok' if good else 'REGRESSED'}")
    return check_default_watermarks(current, "now") and ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=30_000,
                        help="smoke-run stream size (default keeps the "
                             "bench near 5 seconds; `make perf` passes "
                             "the reference 100000 for a like-for-like "
                             "baseline comparison)")
    parser.add_argument("--parallel-events", type=int, default=30_000,
                        help="parallel smoke stream size (kept small — "
                             "its gates are absolute ratios)")
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument("--skip-tests", action="store_true")
    args = parser.parse_args()

    gate = Gate("check_perf")
    if not args.skip_tests and not run_suite("tier-1 test suite",
                                             fail_fast=True):
        return gate.fail("tier-1 tests")
    if not check_columnar_equivalence():
        return gate.fail("columnar execution diverged")
    if not check_committed_floors():
        return gate.fail("committed baseline below floor")
    current = run_bench_smoke(args.events)
    if current is None:
        return gate.fail("benchmark crashed")
    if not check_regression(current, args.tolerance):
        return gate.fail("throughput regression")
    parallel = run_parallel_smoke(args.parallel_events)
    if parallel is None:
        return gate.fail("parallel benchmark crashed")
    if not check_parallel_speedup(parallel):
        return gate.fail("parallel scaling below floor")
    print("\n== log per-row path ==", flush=True)
    log_path = run_bench("bench_a2_log_scaling.py")
    if log_path is None:
        return gate.fail("log path benchmark crashed")
    if not check_log_path(log_path, "now"):
        return gate.fail("log per-row path above ceiling")
    return gate.ok()


if __name__ == "__main__":
    sys.exit(main())
