"""P7: elastic autoscaling — SLO compliance and replay cost vs fixed plans.

The paper's city-scale AR scenarios see diurnal load plus flash crowds
(Sec 4); this bench drives the elastic control plane
(:mod:`repro.streaming.autoscale`) over exactly that trace
(:func:`repro.datagen.workload.diurnal_flash_events`) and compares three
deployments of the same keyed-window job:

- **fixed-p1** — sized for the diurnal base: drowns in the flash crowd
  and blows the latency SLO;
- **autoscaled** — utilization-target policy, rescaling live through
  stop-with-savepoint: meets the SLO, then scales back down;
- **capped** — the same policy with its width capped at 2, below what
  the flash crowd asks for.

Everything runs on SimClock, so every number here is deterministic:
latency is sim-time commit lag versus event time, intake capacity is
``source_parallelism * source_batch`` items per simulated second.  A
chaos column re-runs the autoscaled configuration with a crash at every
rescale phase and asserts sink output stays exactly equal — the bench
is also the end-to-end demo for ``tools/check_elasticity.py``, which
gates SLO compliance, rescale liveness under chaos, and bounded replay.

Results merge into ``BENCH_streaming.json`` under the ``"autoscale"``
key.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.chaos import (
    RESCALE_PHASES,
    SITE_RESCALE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    canonical_sinks,
    reference_job,
)
from repro.datagen import LoadProfile, diurnal_flash_events
from repro.streaming import (
    Autoscaler,
    SchedulePolicy,
    Supervisor,
    UtilizationTargetPolicy,
)

import benchlib
from tableprint import print_table

SEED = 3
SPLITS = 8
SOURCE_BATCH = 32
SLO_S = 15.0
PROFILE = LoadProfile()


def _events():
    return diurnal_flash_events(seed=SEED)


def _build(events):
    return reference_job(list(events), splits=SPLITS)


def _supervise(events, policy, *, injector=None):
    supervisor = Supervisor(
        _build(events), controllers=[Autoscaler(policy, slo_s=SLO_S)],
        injector=injector, parallelism=1, source_batch=SOURCE_BATCH)
    return supervisor.run(), supervisor


def _summarize(label, report, supervisor):
    return {
        "label": label,
        "results": sum(len(v) for v in report.sink_values.values()),
        "slo_compliance": report.slo_compliance,
        "latency_p99_s": report.latency_p99(),
        "rescales": len(report.rescales),
        "max_width": max(report.max_width, 1),
        "final_width": max(supervisor.parallelism.values()),
        "replayed": report.replayed_total,
        "checkpoints": report.checkpoints,
    }


def run_experiment() -> dict:
    events = _events()
    total = len(events)

    fixed_report, fixed_sup = _supervise(events, SchedulePolicy({}))
    auto_report, auto_sup = _supervise(
        events, UtilizationTargetPolicy(max_parallelism=SPLITS))
    capped_report, capped_sup = _supervise(
        events, UtilizationTargetPolicy(max_parallelism=2))

    # the autoscaled run must dominate the fixed baseline on the SLO
    assert auto_report.slo_compliance > fixed_report.slo_compliance
    assert auto_report.rescales, "load trace never triggered a rescale"
    # exactly-once sanity: same committed content, fixed vs autoscaled
    assert canonical_sinks(auto_report.sink_values) \
        == canonical_sinks(fixed_report.sink_values)

    # chaos column: a crash at every rescale phase, output must not fork
    golden = canonical_sinks(auto_report.sink_values)
    chaos_rescales = 0
    chaos_crashes = 0
    for phase in RESCALE_PHASES:
        plan = FaultPlan(specs=(
            FaultSpec("rescale_crash", SITE_RESCALE, at=0, target=phase),
        ), name=f"bench-{phase}")
        report, _sup = _supervise(
            events, UtilizationTargetPolicy(max_parallelism=SPLITS),
            injector=FaultInjector(plan))
        assert canonical_sinks(report.sink_values) == golden, (
            f"crash at rescale phase {phase!r} forked committed output")
        assert report.rescales, f"rescale never completed after {phase}"
        chaos_rescales += len(report.rescales)
        chaos_crashes += report.rescale_crashes

    rows = [
        _summarize("fixed-p1", fixed_report, fixed_sup),
        _summarize("autoscaled", auto_report, auto_sup),
        _summarize("capped", capped_report, capped_sup),
    ]
    return {
        "config": {"events": total, "splits": SPLITS,
                   "source_batch": SOURCE_BATCH, "slo_s": SLO_S,
                   "flash_rate": PROFILE.flash_rate,
                   "base_rate": PROFILE.base_rate, "seed": SEED},
        "autoscale": {
            "deployments": rows,
            "slo_fixed": rows[0]["slo_compliance"],
            "slo_autoscaled": rows[1]["slo_compliance"],
            "slo_capped": rows[2]["slo_compliance"],
            "p99_fixed_s": rows[0]["latency_p99_s"],
            "p99_autoscaled_s": rows[1]["latency_p99_s"],
            "replay_autoscaled": rows[1]["replayed"],
            "chaos_phases": len(RESCALE_PHASES),
            "chaos_rescales_completed": chaos_rescales,
            "chaos_rescale_crashes": chaos_crashes,
        },
    }


def report(results: dict) -> None:
    rows = results["autoscale"]["deployments"]
    print_table(
        f"P7  elastic autoscaling (diurnal + flash crowd, "
        f"{results['config']['events']} events, "
        f"SLO {results['config']['slo_s']}s)",
        ["deployment", "SLO compliance", "p99 latency s", "rescales",
         "max width", "replayed"],
        [[r["label"], r["slo_compliance"], r["latency_p99_s"],
          str(r["rescales"]), str(r["max_width"]), str(r["replayed"])]
         for r in rows],
        note="chaos column: crash at each of the "
             f"{results['autoscale']['chaos_phases']} rescale phases "
             "left committed output bit-equal (asserted); gate: "
             "tools/check_elasticity.py")


def bench_p7_autoscale(benchmark):
    """pytest-benchmark entry: same trace, same invariants."""
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report(results)
    auto = results["autoscale"]
    assert auto["slo_autoscaled"] > auto["slo_fixed"]


def main() -> None:
    args = benchlib.bench_parser(__doc__).parse_args()
    results = run_experiment()
    report(results)
    benchlib.merge_section(args.out, "autoscale", results)


if __name__ == "__main__":
    main()
