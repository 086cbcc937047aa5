#!/usr/bin/env python
"""Elasticity gate: live rescaling must be safe, live and bounded.

Runs the autoscale-marked chaos suite, then the deterministic
end-to-end demo from ``benchmarks/bench_p7_autoscale.py`` (diurnal +
flash-crowd trace) and asserts:

1. **SLO dominance** — the autoscaled deployment's latency-SLO
   compliance strictly beats the fixed-parallelism baseline, and the
   two commit exactly the same sink content;
2. **liveness under chaos** — a supervisor crash at every rescale
   phase (decide / savepoint / recompile / restore) still completes
   the rescale on retry, with committed output bit-equal to the
   fault-free run;
3. **bounded replay** — recovery across a crashed rescale replays at
   most one savepoint interval's worth of input per attempt, never a
   whole-job restart;
4. **determinism** — the same seeds reproduce the same scaling
   trajectory and fault trace on a second run.

Exit 0 when all hold, 1 otherwise.

Usage:  python tools/check_elasticity.py [--skip-tests]
"""

from __future__ import annotations

import argparse
import sys

from gatelib import Gate, ensure_paths, run_suite

ensure_paths()

from bench_p7_autoscale import run_experiment  # noqa: E402

from repro.chaos import (  # noqa: E402
    SITE_RESCALE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    canonical_sinks,
    fault_free_sinks,
    reference_events,
    reference_job,
)
from repro.streaming import (  # noqa: E402
    Autoscaler,
    SchedulePolicy,
    Supervisor,
)

SOURCE_BATCH = 32
INTERVAL_CYCLES = 4
SPLITS = 4


def check_demo() -> bool:
    """The bench IS the acceptance demo; its internal asserts cover SLO
    dominance, exactly-once equality and the four-phase chaos column —
    any violation raises before we get numbers back."""
    print("\n== end-to-end demo (diurnal + flash crowd) ==")
    try:
        results = run_experiment()
    except AssertionError as exc:
        print(f"  demo invariant violated: {exc}")
        return False
    auto = results["autoscale"]
    print(f"  SLO compliance: fixed={auto['slo_fixed']:.3f} "
          f"autoscaled={auto['slo_autoscaled']:.3f} "
          f"capped+shed={auto['slo_capped_shed']:.3f}")
    print(f"  chaos: {auto['chaos_rescale_crashes']} rescale crashes "
          f"across {auto['chaos_phases']} phases, "
          f"{auto['chaos_rescales_completed']} rescales still completed, "
          "output bit-equal")
    return (auto["slo_autoscaled"] > auto["slo_fixed"]
            and auto["chaos_rescales_completed"] >= auto["chaos_phases"])


def _crashed_rescale(seed: int):
    plan = FaultPlan(specs=(
        FaultSpec("rescale_crash", SITE_RESCALE, at=0, target="restore"),
    ), name="elasticity-gate")
    injector = FaultInjector(plan)
    supervisor = Supervisor(
        reference_job(reference_events(seed=seed, n=400),
                      splits=SPLITS),
        controllers=[Autoscaler(SchedulePolicy({1: {"window_sum": 2}}))],
        injector=injector, parallelism=1,
        source_batch=SOURCE_BATCH, interval_cycles=INTERVAL_CYCLES)
    report = supervisor.run()
    return report, injector.trace_tuples()


def check_bounded_replay(seed: int) -> tuple[bool, tuple]:
    print("\n== bounded replay across a crashed rescale ==")
    report, trace = _crashed_rescale(seed)
    golden = canonical_sinks(fault_free_sinks(
        lambda: reference_job(reference_events(seed=seed, n=400),
                              splits=SPLITS),
        batch_mode=True, parallelism=1,
        source_batch=SOURCE_BATCH))
    exactly_once = canonical_sinks(report.sink_values) == golden
    # a savepoint precedes every restore, so replay per attempt can
    # never exceed what arrived since that cut
    bound = INTERVAL_CYCLES * SOURCE_BATCH * SPLITS
    attempts = sum(e.attempts for e in report.rescales)
    bounded = report.replayed_total <= bound * max(attempts, 1)
    completed = bool(report.rescales) and report.rescale_crashes >= 1
    print(f"  rescale_crashes={report.rescale_crashes} "
          f"rescales_completed={len(report.rescales)} "
          f"replayed={report.replayed_total} "
          f"bound={bound * max(attempts, 1)} "
          f"sinks {'EXACTLY-ONCE' if exactly_once else 'DIVERGED'}")
    return exactly_once and bounded and completed, (report.sink_values,
                                                   trace)


def check_determinism(seed: int, first: tuple) -> bool:
    print("\n== determinism (same seed, second run) ==")
    report, trace = _crashed_rescale(seed)
    same = (report.sink_values, trace) == first
    print(f"  sinks + fault trace {'MATCH' if same else 'DIFFER'}")
    return same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--skip-tests", action="store_true",
                        help="skip the autoscale-marked pytest suite")
    args = parser.parse_args()

    gate = Gate("check_elasticity")
    if not args.skip_tests and not run_suite("autoscale test suite",
                                             "autoscale"):
        return gate.fail("autoscale suite")
    if not check_demo():
        return gate.fail("end-to-end demo")
    bounded, first = check_bounded_replay(args.seed)
    if not bounded:
        return gate.fail("replay unbounded or output diverged")
    if not check_determinism(args.seed, first):
        return gate.fail("trajectory not reproducible")
    return gate.ok()


if __name__ == "__main__":
    sys.exit(main())
