"""The facade's jobs run supervised and answer as the bare executor does.

Every job ``ARBigDataPipeline`` and the apps start goes through
``run_job`` -> ``run_coordinated`` (checkpoints, 2PC sinks, the failure
ladder).  Here each entry point's answer is compared with the golden
run of the same job, ``fault_free_sinks`` (a bare ``ParallelExecutor``),
in batched and in per-item mode.
"""

import pytest

from repro.apps import HealthcareApp
from repro.chaos.harness import fault_free_sinks
from repro.core import ARBigDataPipeline, PipelineConfig
from repro.datagen import Episode, generate_patients, vitals_stream
from repro.streaming.connectors import log_source
from repro.streaming.graph import JobBuilder
from repro.util.rng import make_rng


def _readings(seed=3, n=700):
    pipeline = ARBigDataPipeline(PipelineConfig(seed=seed))
    pipeline.create_topic("readings")
    rng = make_rng(seed)
    for i in range(n):
        # jittered event time: some rows arrive out of order
        ts = float(i) + float(rng.uniform(-4.0, 4.0))
        pipeline.ingest("readings", {"sensor": i % 5, "v": float(i % 17)},
                        key=str(i % 5), timestamp=max(0.0, ts))
    return pipeline


def _windowed_aggregate():
    pipeline = _readings()
    return pipeline, lambda: pipeline.windowed_aggregate(
        "readings", key_fn=lambda v: v["sensor"],
        value_fn=lambda v: v["v"], window_s=25.0, aggregate="sum")


def _run_job():
    pipeline = _readings()

    def build(builder):
        stream = builder.source("readings",
                                log_source(pipeline.log, "readings"))
        stream.filter(lambda v: v["v"] > 3).map(
            lambda v: (v["sensor"], v["v"] * 2)).sink("doubled")
        stream.map(lambda v: v["sensor"]).sink("sensors")

    return pipeline, lambda: pipeline.run_job(build, "two-sinks")


def _detect_compound():
    rng = make_rng(10)
    patients = generate_patients(rng, n=4, episode_rate=0.0,
                                 horizon_s=2400.0)
    patients[1].episodes.append(Episode(
        vital="heart_rate", onset_s=800.0, end_s=2000.0,
        magnitude=55.0, ramp_s=60.0))
    patients[1].episodes.append(Episode(
        vital="systolic_bp", onset_s=1100.0, end_s=2000.0,
        magnitude=-45.0, ramp_s=120.0))
    app = HealthcareApp(ARBigDataPipeline(PipelineConfig(seed=10)),
                        patients)
    for patient in patients:
        app.ingest_vitals(vitals_stream(patient, rng, horizon_s=2400.0,
                                        period_s=10.0))
    return app.pipeline, app.detect_compound


ENTRY_POINTS = {
    "windowed_aggregate": (_windowed_aggregate, "out"),
    "run_job": (_run_job, None),
    "detect_compound": (_detect_compound, "matches"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_facade_job_equals_the_golden_run(entry):
    setup, sink = ENTRY_POINTS[entry]
    pipeline, call = setup()
    built = []
    run_job = pipeline.run_job

    def spy(build, name="job"):
        built.append((build, name))
        return run_job(build, name)

    pipeline.run_job = spy
    answer = call()
    (build, name), = built

    def job():
        builder = JobBuilder(name)
        build(builder)
        return builder.build()

    for batch_mode in (True, False):
        golden = fault_free_sinks(job, batch_mode=batch_mode)
        assert answer == (golden if sink is None else golden[sink])
    assert all(answer.values() if sink is None else [answer])
