#!/usr/bin/env python
"""Robustness gate: a fixed whole-system fault schedule must recover.

One seeded schedule kills a streaming operator mid-batch, makes a log
partition unavailable on the fetch path, re-delivers already-consumed
records, and times out an offload task — then the gate asserts:

1. the recovered streaming run's sinks are **bit-identical** to the
   fault-free run, in per-item and batched (chained) mode;
2. the offload runner absorbs the timeout and still serves the frame;
3. the same seed reproduces the same fault trace on a second run;
4. recovery MTTR: on the two-region reference plan, a crash in one
   region recovers **regionally** — exactly-once output, and strictly
   fewer elements replayed than a whole-job restart would re-read.

Exit 0 when all hold, 1 otherwise.  Runs the ``chaos``-marked suite
first unless ``--skip-tests``.

``--datafault`` switches to the data-fault tolerance gate instead: the
``datafault``-marked suite, then (1) committed sink + committed DLQ
under data faults is invariant to layered operator crashes, rerun
bit-identical, in per-item and batched (chained) mode at parallelism
1/2/4; (2) on a pass-through pipeline the
sink and the dead-lettered originals partition the fault-free output
exactly; (3) corrupted newest checkpoints are quarantined with
fallback restore still exactly-once; (4) a persistently poisoned job
terminates on its restart budget with a diagnostic.

Usage:  python tools/check_robustness.py [--seed N] [--skip-tests]
                                         [--datafault]
"""

from __future__ import annotations

import argparse
import sys

from gatelib import Gate, ensure_paths, run_suite

ensure_paths()

from repro.chaos import (  # noqa: E402
    SITE_CHECKPOINT,
    SITE_DATA,
    SITE_FETCH,
    SITE_OFFLOAD,
    SITE_OPERATOR,
    ChaosLogCluster,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    canonical_sinks,
    fault_free_sinks,
    reference_events,
    reference_job,
    run_coordinated,
    two_region_job,
)
from repro.eventlog.broker import LogCluster, TopicConfig  # noqa: E402
from repro.eventlog.producer import Producer  # noqa: E402
from repro.offload import OffloadPlanner, OffloadRunner  # noqa: E402
from repro.offload.tasks import StageProfile, vision_pipeline  # noqa: E402
from repro.simnet.network import LINK_PRESETS  # noqa: E402
from repro.simnet.topology import NodeSpec, Topology  # noqa: E402
from repro.streaming.connectors import log_source  # noqa: E402
from repro.util.clock import SimClock  # noqa: E402
from repro.util.rng import RngRegistry  # noqa: E402

MODES = {"per-item": False, "chained": True}  # label -> batch_mode


def the_schedule(seed: int) -> FaultPlan:
    """Operator crash mid-batch + partition drop + duplicate delivery
    (streaming/log) and an offload task timeout — the acceptance
    scenario, pinned."""
    return FaultPlan(specs=(
        FaultSpec("operator_crash", SITE_OPERATOR, at=83,
                  target="window_sum"),
        FaultSpec("partition_unavailable", SITE_FETCH, at=2, count=2),
        FaultSpec("duplicate_delivery", SITE_FETCH, at=6, param=3),
        FaultSpec("task_timeout", SITE_OFFLOAD, at=0, target="edge"),
    ), seed=seed, name="robustness-gate")


def seeded_cluster(seed: int, injector: FaultInjector | None):
    cluster = LogCluster(num_brokers=3)
    cluster.create_topic(TopicConfig("events", partitions=2, replication=2))
    producer = Producer(cluster, clock=SimClock(), idempotent=True)
    for element in reference_events(seed=seed, n=200):
        producer.send("events", element.value,
                      key=str(element.value["k"]),
                      timestamp=element.timestamp)
    if injector is None:
        return cluster
    return ChaosLogCluster(cluster, injector)


def check_streaming_recovery(seed: int) -> tuple[bool, list]:
    print("\n== streaming recovery (log-backed, all modes) ==")
    ok = True
    traces = []
    for mode, batch_mode in MODES.items():
        golden = fault_free_sinks(
            lambda: reference_job(
                log_source(seeded_cluster(seed, None), "events")),
            batch_mode=batch_mode)
        injector = FaultInjector(the_schedule(seed))
        chaos = seeded_cluster(seed, injector)
        report = run_coordinated(
            reference_job(log_source(chaos, "events")), injector,
            batch_mode=batch_mode)
        identical = report.sink_values == golden
        ok = ok and identical
        traces.append(injector.trace_tuples())
        print(f"  {mode:>8}: crashes={report.crashes} "
              f"broker_faults={report.broker_faults} "
              f"restores={report.restores} "
              f"sinks {'IDENTICAL' if identical else 'DIVERGED'}")
    return ok, traces


def check_offload_timeout(seed: int) -> bool:
    print("\n== offload timeout absorption ==")
    rngs = RngRegistry(seed)
    topology = Topology(rngs.get("net"))
    topology.add_node(NodeSpec("device", cpu_hz=2e9, role="device"))
    topology.add_node(NodeSpec("edge", cpu_hz=16e9, role="edge"))
    topology.add_node(NodeSpec("cloud", cpu_hz=64e9, role="cloud"))
    topology.add_link("device", "edge", LINK_PRESETS["wifi"])
    topology.add_link("edge", "cloud", LINK_PRESETS["wan"])
    runner = OffloadRunner(OffloadPlanner(topology, "device"),
                           injector=FaultInjector(the_schedule(seed)),
                           clock=SimClock())
    pipeline = vision_pipeline(StageProfile(
        pixels=320 * 240, features=200, matches=80, ransac_iterations=50))
    result = runner.execute(pipeline)
    served = bool(result.attempts and result.attempts[-1].ok)
    print(f"  timeouts={result.timeouts} final_tier={result.tier} "
          f"degraded={result.degraded} "
          f"frame {'SERVED' if served else 'DROPPED'}")
    return served and result.timeouts >= 1


def check_recovery_mttr(seed: int) -> bool:
    """Regional recovery must beat a whole-job restart on replay volume.

    The two-region plan decomposes into independent failover regions, so
    a crash in pipeline A rewinds only ``events_a`` while pipeline B
    keeps its position — the coordinated supervisor reports both what it
    actually replayed and what a full restart to the same checkpoint
    would have re-read.
    """
    print("\n== recovery MTTR (regional vs full restart) ==")

    def build():
        return two_region_job(reference_events(seed=seed, n=200),
                              reference_events(seed=seed + 1, n=200))

    golden = fault_free_sinks(build, parallelism=2, source_batch=16)
    plan = FaultPlan(specs=(
        FaultSpec("operator_crash", SITE_OPERATOR, at=70,
                  target="window_a"),
    ), seed=seed, name="mttr-gate")
    injector = FaultInjector(plan)
    report = run_coordinated(build(), injector, parallelism=2,
                             source_batch=16, interval_cycles=2)
    exactly_once = (canonical_sinks(report.sink_values)
                    == canonical_sinks(golden))
    regional = report.regional_restores >= 1 and report.full_restores == 0
    beats_full = report.replayed_total < report.replayed_full_equiv
    print(f"  crashes={report.crashes} "
          f"regional_restores={report.regional_restores} "
          f"full_restores={report.full_restores} "
          f"checkpoints={report.checkpoints}")
    print(f"  replayed={report.replayed_total} vs "
          f"full-restart-equivalent={report.replayed_full_equiv} "
          f"(saved {report.replayed_full_equiv - report.replayed_total}) "
          f"{'REGIONAL' if regional else 'FULL'} "
          f"sinks {'EXACTLY-ONCE' if exactly_once else 'DIVERGED'}")
    return exactly_once and regional and beats_full


# -- data-fault tolerance (the `--datafault` gate) ---------------------------


def _rrepr(values: list) -> list[str]:
    """Bit-exact comparison that treats NaN as equal to itself
    (corrupted records legitimately carry NaN values/timestamps)."""
    return [repr(v) for v in values]


def _data_specs() -> tuple[FaultSpec, ...]:
    return (FaultSpec("udf_exception", SITE_DATA, at=13, count=3,
                      target="double"),
            FaultSpec("corrupt_value", SITE_DATA, at=57, count=2,
                      param="nan", target="double"))


def _crash_specs() -> tuple[FaultSpec, ...]:
    return (FaultSpec("operator_crash", SITE_OPERATOR, at=40,
                      target="window_sum"),
            FaultSpec("operator_crash", SITE_OPERATOR, at=120,
                      target="double"))


def _guarded_reference(seed: int):
    from repro.streaming.errors import DEAD_LETTER

    job = reference_job(reference_events(seed=seed, n=200))
    job.error_policies["double"] = DEAD_LETTER
    job.error_policies["drop_tiny"] = DEAD_LETTER
    return job


def check_dlq_exactly_once(seed: int) -> bool:
    """Committed sink + committed DLQ under data faults must not move
    when operator crashes are layered on top — and a rerun of the same
    schedule must be bit-identical."""
    print("\n== DLQ exactly-once under data faults x crashes ==")
    ok = True
    for parallelism in (1, 2, 4):
        label = f"coordinated p={parallelism}"
        for mode, batch_mode in MODES.items():
            def once(specs):
                injector = FaultInjector(FaultPlan(
                    specs=specs, seed=seed, name="datafault-gate"))
                report = run_coordinated(
                    _guarded_reference(seed), injector,
                    parallelism=parallelism, interval_cycles=2,
                    batch_mode=batch_mode)
                return {name: _rrepr(values) for name, values
                        in report.sink_values.items()}, report
            golden, _ = once(_data_specs())
            chaosed, report = once(_data_specs() + _crash_specs())
            rerun, _ = once(_data_specs() + _crash_specs())
            identical = golden == chaosed and chaosed == rerun
            ok = ok and identical and report.crashes >= 1
            dlq = len(golden.get("__dlq__", ()))
            print(f"  {label:>15} {mode:>8}: dlq={dlq} "
                  f"crashes={report.crashes} "
                  f"{'IDENTICAL' if identical else 'DIVERGED'}")
    return ok


def check_dlq_accounting(seed: int) -> bool:
    """On a pass-through pipeline, committed sink + dead-lettered
    originals must partition the fault-free output exactly."""
    from repro.streaming import Element, JobBuilder
    from repro.streaming.errors import DEAD_LETTER

    print("\n== DLQ accounting (sink + DLQ partitions the input) ==")

    def build():
        events = [Element({"k": i % 4, "v": float(i)},
                          timestamp=float(i) * 0.25) for i in range(300)]
        builder = JobBuilder("datafault-accounting")
        (builder.source("events", events)
                .map(lambda v: v, name="ident")
                .on_error(DEAD_LETTER)
                .sink("out"))
        return builder.build()

    golden = fault_free_sinks(build)
    specs = (FaultSpec("udf_exception", SITE_DATA, at=11, count=5,
                       target="ident"),
             FaultSpec("operator_crash", SITE_OPERATOR, at=150,
                       target="ident"))
    injector = FaultInjector(FaultPlan(specs=specs, seed=seed,
                                       name="accounting-gate"))
    report = run_coordinated(build(), injector)
    sink = report.sink_values["out"]
    dlq = report.sink_values["__dlq__"]
    union = sorted(_rrepr(sink) + _rrepr([d.value for d in dlq]))
    partitions = union == sorted(_rrepr(golden["out"]))
    disjoint = len(sink) + len(dlq) == len(golden["out"])
    print(f"  sink={len(sink)} dlq={len(dlq)} "
          f"fault-free={len(golden['out'])} "
          f"{'PARTITIONS' if partitions and disjoint else 'LEAKS'}")
    return partitions and disjoint and len(dlq) == 5


def check_checkpoint_integrity(seed: int) -> bool:
    """Rotting the newest checkpoints must quarantine them and fall
    back to the newest verifiable one — output still exactly-once."""
    from repro.streaming.coordinator import CheckpointStore

    print("\n== checkpoint integrity (corruption -> fallback restore) ==")
    golden = run_coordinated(_guarded_reference(seed), None,
                             parallelism=2, interval_cycles=1,
                             source_batch=16)
    specs = (FaultSpec("checkpoint_corruption", SITE_CHECKPOINT, at=2,
                       count=1000, param="payload"),
             FaultSpec("operator_crash", SITE_OPERATOR, at=110,
                       target="window_sum"))
    store = CheckpointStore(keep=100)
    report = run_coordinated(
        _guarded_reference(seed),
        FaultInjector(FaultPlan(specs=specs, seed=seed,
                                name="integrity-gate")),
        parallelism=2, interval_cycles=1, source_batch=16, store=store)
    identical = all(
        _rrepr(golden.sink_values[name]) == _rrepr(report.sink_values[name])
        for name in golden.sink_values)
    detected = report.integrity_failures >= 1 and bool(store.quarantined)
    print(f"  quarantined={len(store.quarantined)} "
          f"integrity_failures={report.integrity_failures} "
          f"full_restores={report.full_restores} "
          f"sinks {'IDENTICAL' if identical else 'DIVERGED'}")
    return identical and detected


def check_restart_budget(seed: int) -> bool:
    """A persistently poisoned record under FAIL policy must terminate
    with a RestartsExhausted diagnostic, not loop forever."""
    from repro.streaming.errors import RestartBudget
    from repro.util.errors import RestartsExhausted

    print("\n== restart budget (poisoned job goes terminal) ==")
    specs = (FaultSpec("udf_exception", SITE_DATA, at=40, count=1,
                       target="double"),)

    def poisoned():
        return reference_job(reference_events(seed=seed, n=200))

    outcomes = []
    for label, budget in (
            ("flapping", RestartBudget(max_restarts=50, flap_threshold=3,
                                       seed=seed)),
            ("budget", RestartBudget(max_restarts=3, flap_threshold=0,
                                     seed=seed))):
        try:
            run_coordinated(
                poisoned(),
                FaultInjector(FaultPlan(specs=specs, seed=seed,
                                        name="budget-gate")),
                restart_budget=budget)
            outcomes.append((label, None))
        except RestartsExhausted as exc:
            outcomes.append((label, exc))
    ok = True
    for label, exc in outcomes:
        hit = exc is not None and exc.reason == label
        ok = ok and hit
        print(f"  {label:>8}: "
              + (f"terminal after {exc.restarts} restarts"
                 if hit else "DID NOT ESCALATE"))
    return ok


def check_datafault(seed: int) -> bool:
    return (check_dlq_exactly_once(seed)
            and check_dlq_accounting(seed)
            and check_checkpoint_integrity(seed)
            and check_restart_budget(seed))


def check_trace_reproducibility(seed: int, first: list) -> bool:
    print("\n== trace reproducibility (same seed, second run) ==")
    second = check_quietly(seed)
    same = first == second
    print(f"  {len(first[0])} fired faults per streaming mode; "
          f"traces {'MATCH' if same else 'DIFFER'}")
    return same


def check_quietly(seed: int) -> list:
    traces = []
    for batch_mode in MODES.values():
        injector = FaultInjector(the_schedule(seed))
        chaos = seeded_cluster(seed, injector)
        run_coordinated(reference_job(log_source(chaos, "events")),
                        injector, batch_mode=batch_mode)
        traces.append(injector.trace_tuples())
    return traces


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-tests", action="store_true",
                        help="skip the marked pytest suite")
    parser.add_argument("--datafault", action="store_true",
                        help="run the data-fault tolerance gate instead "
                             "(datafault suite + DLQ/integrity/budget)")
    args = parser.parse_args()

    if args.datafault:
        gate = Gate("check_robustness[datafault]")
        if not args.skip_tests and not run_suite("datafault test suite",
                                                 "datafault"):
            return gate.fail("datafault suite")
        return gate.verdict(check_datafault(args.seed),
                            "data-fault tolerance checks")

    gate = Gate("check_robustness")
    if not args.skip_tests and not run_suite("chaos test suite",
                                             "chaos or slow"):
        return gate.fail("chaos suite")
    recovered, traces = check_streaming_recovery(args.seed)
    if not recovered:
        return gate.fail("recovered sinks diverged")
    if not check_offload_timeout(args.seed):
        return gate.fail("offload frame not served")
    if not check_trace_reproducibility(args.seed, traces):
        return gate.fail("fault trace not reproducible")
    if not check_recovery_mttr(args.seed):
        return gate.fail("regional recovery did not beat a full restart")
    return gate.ok()


if __name__ == "__main__":
    sys.exit(main())
