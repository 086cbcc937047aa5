"""Integration tests: end-to-end tracing across every subsystem.

The contract under test (gated continuously by ``tools/check_obs.py``):
a traced reference run yields ONE connected span tree rooted at
``frame`` covering produce -> broker hop -> consume -> every logical
streaming operator -> sink -> offload -> render, and the tree's shape is
identical in per-item and batched (chained) execution.
"""

from collections import Counter as TallyCounter

import pytest

from repro.chaos.harness import reference_operator_names
from repro.eventlog.broker import LogCluster, TopicConfig
from repro.eventlog.consumer import Consumer
from repro.eventlog.producer import Producer
from repro.obs import (
    JsonLinesExporter,
    Tracer,
    build_tree,
    critical_path,
    read_jsonl,
    span_to_dict,
    traced_reference_run,
    tree_is_connected,
)
from repro.streaming import Element, JobBuilder, ParallelExecutor
from repro.util import SimClock

MODES = {
    "per_item": dict(batch_mode=False),
    "chained": dict(batch_mode=True),
}
N_EVENTS = 60


@pytest.fixture(scope="module")
def runs():
    return {mode: traced_reference_run(seed=0, n_events=N_EVENTS, **kwargs)
            for mode, kwargs in MODES.items()}


def _shape(spans) -> TallyCounter:
    by_id = {s.span_id: s for s in spans}
    return TallyCounter(
        (s.name, by_id[s.parent_id].name if s.parent_id in by_id else None)
        for s in spans)


class TestCompleteness:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_single_connected_tree(self, runs, mode):
        run = runs[mode]
        assert run.tracer.open_spans() == []
        assert tree_is_connected(run.tracer.spans)
        [root] = build_tree(run.tracer.spans)
        assert root.name == "frame"
        assert root.span["attrs"]["mode"] == mode

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_covers_every_stage(self, runs, mode):
        names = TallyCounter(s.name for s in runs[mode].tracer.spans)
        assert names["produce"] == N_EVENTS
        assert names["consume"] == N_EVENTS
        assert names["offload:frame"] == 1
        assert names["offload:attempt"] >= 1
        assert names["render:compose"] == 1
        for stage in ("ingest", "stream", "offload", "render"):
            assert names[stage] == 1, stage

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_job_span_covers_every_logical_operator(self, runs, mode):
        [root] = build_tree(runs[mode].tracer.spans)
        [job] = [n for n in root.walk() if n.name.startswith("job:")]
        children = {c.name for c in job.children}
        wanted = ({f"op:{name}" for name in reference_operator_names()}
                  | {"source:events", "sink:out"})
        assert wanted <= children

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_consume_spans_parented_across_broker_hop(self, runs, mode):
        spans = runs[mode].tracer.spans
        produce_ids = {s.span_id for s in spans if s.name == "produce"}
        consumes = [s for s in spans if s.name == "consume"]
        assert consumes
        assert all(s.parent_id in produce_ids for s in consumes)

    def test_critical_path_reaches_a_leaf_stage(self, runs):
        [root] = build_tree(runs["chained"].tracer.spans)
        path = critical_path(root)
        assert path[0].name == "frame"
        assert len(path) >= 2
        assert path[-1].children == []


class TestModeInvariance:
    def test_span_tree_shape_identical_across_modes(self, runs):
        shapes = {mode: _shape(run.tracer.spans)
                  for mode, run in runs.items()}
        assert shapes["chained"] == shapes["per_item"]

    def test_sinks_identical_across_modes(self, runs):
        assert runs["chained"].sinks == runs["per_item"].sinks

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_job_span_names_the_mode_not_the_plan_shape(self, mode):
        """Two modes, two labels: a batched plan that happens to fuse
        nothing is still ``chained``."""
        builder = JobBuilder("lone-map")
        builder.source("s", [Element(1.0, 0.0)]).map(lambda v: v).sink("out")
        tracer = Tracer(SimClock())
        executor = ParallelExecutor(builder.build(), tracer=tracer,
                                    **MODES[mode])
        assert all(len(node.members) == 1
                   for node in executor.graph.nodes.values())
        executor.run()
        (job,) = [s for s in tracer.spans if s.name == "job:lone-map"]
        assert job.attrs["mode"] == mode

    def test_runs_are_reproducible(self):
        a = traced_reference_run(seed=0, n_events=20)
        b = traced_reference_run(seed=0, n_events=20)
        assert ([span_to_dict(s) for s in a.tracer.spans]
                == [span_to_dict(s) for s in b.tracer.spans])
        assert a.registry.snapshot() == b.registry.snapshot()


class TestBrokerHopPropagation:
    def test_producer_injects_consumer_parents(self):
        """Standalone producer -> cluster -> consumer: the traceparent
        header carries the produce span's context across the hop."""
        clock = SimClock()
        tracer = Tracer(clock)
        cluster = LogCluster(num_brokers=3)
        cluster.create_topic(TopicConfig("t", partitions=2, replication=2))
        producer = Producer(cluster, clock=clock, tracer=tracer)
        for i in range(8):
            producer.send("t", {"i": i}, key=str(i))

        consumer = Consumer(cluster, "t", tracer=tracer)
        records = consumer.poll(max_records=64)
        assert len(records) == 8
        for record in records:
            ctx = Tracer.parse_traceparent(record.headers["traceparent"])
            assert ctx is not None

        produce = {s.span_id: s for s in tracer.spans if s.name == "produce"}
        consumes = [s for s in tracer.spans if s.name == "consume"]
        assert len(produce) == 8 and len(consumes) == 8
        for span in consumes:
            parent = produce[span.parent_id]
            assert span.trace_id == parent.trace_id
            assert span.end_time is not None

    def test_untraced_producer_yields_rootless_consumes(self):
        """Records without a traceparent header still consume cleanly —
        the consume spans just start fresh traces."""
        cluster = LogCluster(num_brokers=1)
        cluster.create_topic(TopicConfig("t"))
        producer = Producer(cluster)  # no tracer: no header injected
        producer.send("t", {"x": 1})
        tracer = Tracer()
        consumer = Consumer(cluster, "t", tracer=tracer)
        assert len(consumer.poll()) == 1
        [consume] = [s for s in tracer.spans if s.name == "consume"]
        assert consume.parent_id is None


class TestExportRoundTrip:
    def test_jsonl_round_trip_preserves_the_real_tree(self, runs, tmp_path):
        run = runs["chained"]
        path = tmp_path / "trace.jsonl"
        exporter = JsonLinesExporter(path)
        assert exporter.export_spans(run.tracer.spans) == len(run.tracer.spans)
        exporter.export_metrics(run.registry.snapshot())

        spans, metrics = read_jsonl(path)
        assert tree_is_connected(spans)
        assert _shape_from_dicts(spans) == _shape(run.tracer.spans)
        assert metrics == [
            {k: pytest.approx(v)
             for k, v in run.registry.snapshot().items()}]

    def test_trace_report_cli_renders(self, runs, tmp_path, capsys):
        import importlib.util
        import pathlib
        tool = (pathlib.Path(__file__).resolve().parents[2]
                / "tools" / "trace_report.py")
        spec = importlib.util.spec_from_file_location("trace_report", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        run = runs["chained"]
        module.report([span_to_dict(s) for s in run.tracer.spans],
                      run.registry.snapshot())
        out = capsys.readouterr().out
        assert "== span tree ==" in out
        assert "== critical path ==" in out
        assert "frame" in out and "render:compose" in out
        assert "== metrics ==" in out


def _shape_from_dicts(spans) -> TallyCounter:
    by_id = {s["span_id"]: s for s in spans}
    return TallyCounter(
        (s["name"],
         by_id[s["parent_id"]]["name"] if s.get("parent_id") in by_id
         else None)
        for s in spans)
