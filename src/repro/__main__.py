"""``python -m repro`` — library info, self-check, and demos.

With no subcommand, prints the subsystem inventory with import health
and a one-shot smoke of the end-to-end loop, so a fresh checkout can
verify itself without running the full test suite.

``python -m repro demo-geo`` runs the geo-distributed story end to
end: a keyed job pinned to an edge region, its input log mirrored to
the core, the whole edge region lost mid-stream, and the deployment
failing over to the replica — with the committed output checked
bit-identical to a fault-free run.

``python -m repro demo-datafault`` runs the data-fault tolerance
story: a hospital vitals stream with poisoned and corrupted records
dead-lettered under a per-operator policy, an operator crash layered
on top, and the committed sink + DLQ checked invariant against the
crash-free run with the same poison.
"""

from __future__ import annotations

import argparse
import importlib
import sys

SUBSYSTEMS = [
    ("repro.core", "the AR x Big-Data convergence pipeline"),
    ("repro.eventlog", "Kafka-like partitioned replicated log"),
    ("repro.streaming", "Flink-like event-time dataflow engine"),
    ("repro.analytics", "sketches, recommenders, anomaly detection"),
    ("repro.vision", "pure-numpy AR tracking stack"),
    ("repro.sensors", "crowd building models, spatial index, POIs"),
    ("repro.render", "occlusion, declutter, frame-budget compositor"),
    ("repro.offload", "CloudRiDAR-style offloading + battery models"),
    ("repro.privacy", "DP mechanisms, location privacy, attacks"),
    ("repro.simnet", "deterministic discrete-event simulation"),
    ("repro.context", "semantic entities, ARML, interpretation"),
    ("repro.datagen", "seeded workload generators"),
    ("repro.store", "tiered serving store: hot + analytical tiers"),
    ("repro.apps", "retail/tourism/healthcare/public/education"),
    ("repro.geo", "geo control plane: region failover + handoff"),
]


def _smoke() -> str:
    """One pass around the loop; returns a short result line."""
    import numpy as np

    from repro import ARBigDataPipeline, PipelineConfig
    from repro.context import SemanticEntity
    from repro.vision import look_at

    pipeline = ARBigDataPipeline(PipelineConfig(seed=0))
    pipeline.create_topic("smoke")
    for i in range(50):
        pipeline.ingest("smoke", {"s": f"x{i % 2}", "v": float(i)},
                        key=f"x{i % 2}", timestamp=float(i))
    results = pipeline.windowed_aggregate(
        "smoke", key_fn=lambda v: v["s"], value_fn=lambda v: v["v"],
        window_s=25.0, aggregate="count")
    pipeline.add_entity(SemanticEntity(
        entity_id="x0", entity_type="thing",
        position=np.array([0.0, 0.0, 5.0]), name="x0"))
    pipeline.add_entity(SemanticEntity(
        entity_id="x1", entity_type="thing",
        position=np.array([0.5, 0.0, 5.0]), name="x1"))
    pipeline.interpreter.register_default("count")
    bound = pipeline.interpret_and_publish([
        {"tag": "count", "subject": r.key, "value": r.value}
        for r in results])
    session = pipeline.open_session("smoke-user")
    session.sync()
    frame = session.render(look_at(eye=[0, 0, 0], target=[0, 0, 5.0]))
    total = sum(r.value for r in results)
    return (f"{total} records windowed, {bound.bound} bound, "
            f"{frame.drawn} annotations rendered")


def _demo_geo() -> int:
    """Two-region failover, end to end, against a golden run."""
    from repro.chaos import canonical_sinks, fault_free_sinks
    from repro.eventlog import LogCluster, Producer, TopicConfig
    from repro.geo import GeoDeployment
    from repro.simnet import (
        FailureInjector,
        RegionFailureEvent,
        Simulator,
        region_topology,
    )
    from repro.streaming import JobBuilder, parallel_log_source
    from repro.streaming.placement import placement_from_topology
    from repro.streaming.windows import TumblingWindows
    from repro.util.rng import make_rng

    topic, n_records, keys = "demo.events", 240, 8
    pins = {topic: "edge-a", "by_key": "edge-a",
            "window_sum": "edge-a", "out": "edge-a"}

    def fill(cluster: LogCluster) -> None:
        cluster.create_topic(TopicConfig(name=topic, partitions=4))
        producer = Producer(cluster, idempotent=True)
        for i in range(n_records):
            producer.send(topic, {"k": i % keys, "v": float(i)},
                          key=f"k-{i % keys}", timestamp=float(i))

    def build_job(cluster: LogCluster):
        builder = JobBuilder("demo-geo")
        factory, splits = parallel_log_source(cluster, topic)
        (builder.source(topic, splits=splits, split_factory=factory)
                .key_by(lambda v: v["k"], name="by_key")
                .window(TumblingWindows(20.0), "sum",
                        value_fn=lambda v: v["v"], name="window_sum")
                .sink("out"))
        for node, region in pins.items():
            builder.pin_region(node, region)
        builder.declare_cross_region(topic, "by_key")
        return builder.build()

    golden_cluster = LogCluster(num_brokers=1)
    fill(golden_cluster)
    golden = canonical_sinks(fault_free_sinks(
        lambda: build_job(golden_cluster), parallelism=2))

    primary = LogCluster(num_brokers=1)
    standby = LogCluster(num_brokers=1)
    fill(primary)
    topo = region_topology(make_rng(11))
    sim = Simulator()
    FailureInjector(sim, topo).schedule_region(
        RegionFailureEvent("edge-a", down_at=4.0, up_at=1e9))
    deployment = GeoDeployment(
        build_job,
        primary_cluster=primary, standby_cluster=standby, topic=topic,
        placement=placement_from_topology(topo, dict(pins),
                                          default_region="core"),
        source_batch=8, interval_cycles=2,
        region_timeout_s=2.0, topology=topo, simulator=sim,
        observer="core")
    print(f"demo-geo: {n_records} records pinned to edge-a, mirrored "
          "to core; edge-a dies at t=4.0s")
    report = deployment.run()
    failover = report.failover
    if failover is None:
        print("demo-geo FAILED: region loss never detected")
        return 1
    print(f"  region lost: {failover.lost_region} -> failed over to "
          f"{failover.to_region} (MTTR {failover.mttr_s:.2f} sim s)")
    print(f"  restored checkpoint: {failover.checkpoint_id} — replayed "
          f"{failover.replayed} of a full-restart {failover.full_restart_equiv}")
    print(f"  mirror records pumped: {report.mirror_pumped}, "
          f"checkpoints committed: {report.checkpoints}")
    identical = canonical_sinks(report.sink_values) == golden
    print(f"  committed output vs fault-free run: "
          f"{'IDENTICAL' if identical else 'DIVERGED'}")
    return 0 if identical else 1


def _demo_datafault() -> int:
    """A poisoned hospital vitals stream surviving on its error
    policies: dead letters to a transactional DLQ, a crash layered on
    top, committed output invariant — with the DLQ inspectable."""
    from repro.chaos import (
        SITE_DATA,
        SITE_OPERATOR,
        FaultInjector,
        FaultPlan,
        FaultSpec,
        run_coordinated,
    )
    from repro.datagen.health import generate_patients, vitals_stream
    from repro.streaming import DEAD_LETTER, DLQ_SINK, Element, JobBuilder
    from repro.streaming.windows import TumblingWindows
    from repro.util.rng import RngRegistry

    registry = RngRegistry(seed=17)
    patients = generate_patients(registry.get("patients"), n=4,
                                 horizon_s=600.0)
    samples = []
    for patient in patients:
        samples.extend(vitals_stream(
            patient, registry.get(f"vitals-{patient.patient_id}"),
            horizon_s=600.0, period_s=10.0))
    samples.sort(key=lambda s: (s.timestamp, s.patient_id, s.vital))
    events = [Element({"patient": s.patient_id, "vital": s.vital,
                       "value": s.value}, timestamp=s.timestamp)
              for s in samples]

    def build_job():
        builder = JobBuilder("demo-datafault")
        (builder.source("vitals", list(events))
                .map(lambda v: {"patient": v["patient"],
                                "vital": v["vital"],
                                "value": float(v["value"])},
                     name="featurize")
                .on_error(DEAD_LETTER)
                .key_by(lambda v: v["patient"], name="by_patient")
                .window(TumblingWindows(60.0), "sum",
                        value_fn=lambda v: v["value"], name="ward_load")
                .sink("out"))
        return builder.build()

    data_specs = (
        FaultSpec("udf_exception", SITE_DATA, at=40, count=3,
                  target="featurize"),
        FaultSpec("corrupt_value", SITE_DATA, at=220, count=2,
                  param="wrong_type", target="featurize"),
    )
    crash_spec = FaultSpec("operator_crash", SITE_OPERATOR,
                           at=len(events) // 2, target="ward_load")

    def run(specs, name):
        return run_coordinated(
            build_job(),
            FaultInjector(FaultPlan(specs=specs, seed=17, name=name)))

    print(f"demo-datafault: {len(events)} vitals samples from "
          f"{len(patients)} patients; 5 records poisoned, operator "
          "crash layered on top")
    golden = run(data_specs, "demo-data-only")
    report = run(data_specs + (crash_spec,), "demo-layered")

    letters = report.sink_values.get(DLQ_SINK, [])
    print(f"  committed windows: {len(report.sink_values['out'])}, "
          f"dead letters: {len(letters)}, crashes survived: "
          f"{report.crashes}, restores: {report.restores}")
    print("  dead-letter queue (committed transactionally with the sink):")
    for letter in letters:
        value = letter.value
        what = (f"{value['patient']}/{value['vital']}"
                if isinstance(value, dict) and "patient" in value
                else repr(value)[:40])
        print(f"    t={letter.timestamp:7.1f} {what:24s} "
              f"op={letter.operator} fault={letter.fault} "
              f"error={letter.error_type}")
    identical = all(
        [repr(v) for v in report.sink_values[name]]
        == [repr(v) for v in golden.sink_values[name]]
        for name in golden.sink_values)
    print(f"  committed sink+DLQ vs crash-free run with the same "
          f"poison: {'IDENTICAL' if identical else 'DIVERGED'}")
    if not letters or not identical:
        print("demo-datafault FAILED")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'When Augmented Reality Meets Big "
                    "Data' (ICDCS 2017)")
    parser.add_argument("--no-smoke", action="store_true",
                        help="skip the end-to-end smoke check")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("demo-geo",
                   help="two-region failover demo: edge loss, mirror "
                        "replay, exactly-once output")
    sub.add_parser("demo-datafault",
                   help="data-fault tolerance demo: poisoned vitals "
                        "stream, transactional DLQ, crash-invariant "
                        "committed output")
    args = parser.parse_args(argv)

    if args.command == "demo-geo":
        return _demo_geo()
    if args.command == "demo-datafault":
        return _demo_datafault()

    import repro
    print(f"repro {repro.__version__}")
    print()
    failures = 0
    for module_name, description in SUBSYSTEMS:
        try:
            module = importlib.import_module(module_name)
            exports = getattr(module, "__all__", [])
            for name in exports:  # a lazy re-export imports on access
                getattr(module, name)
            status = f"ok  ({len(exports):3d} exports)"
        except Exception as exc:  # pragma: no cover - import disasters
            status = f"FAILED: {exc}"
            failures += 1
        print(f"  {module_name:18s} {status}  - {description}")
    if not args.no_smoke:
        print()
        try:
            print(f"smoke: {_smoke()}")
        except Exception as exc:  # pragma: no cover
            print(f"smoke FAILED: {exc}")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
