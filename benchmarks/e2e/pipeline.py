"""The path under test, driven through ``repro``'s public APIs only.

``Producer.send`` -> ``LogCluster`` -> ``parallel_log_source`` /
``Consumer.poll`` -> a ``JobBuilder`` job under
``chaos.harness.run_coordinated`` (p=1, transactional sinks) ->
``StoreSink`` -> ``TieredStore`` -> ``TieredStore.latest`` ->
``InterpretationEngine.interpret`` -> ``Compositor.compose``.

A :class:`World` is one ``LogCluster``, one ``TieredStore`` and one
``CheckpointStore`` shared by every job of a run, so checkpoint ids —
the store's epochs — stay monotonic across jobs.  Every call into a
layer sits inside a ``rec.span``; with the :class:`~spans.NullRecorder`
of the untraced pass those are no-ops.  The three seams that reach
*inside* ``run_coordinated`` (split factory, ``CheckpointStore.finalize``,
``StoreSink.on_checkpoint_committed``) are wrapped only in the traced
pass.
"""

from __future__ import annotations

import pickle
import time
from typing import Any

from repro.chaos.harness import run_coordinated
from repro.context import ContextStore, InterpretationEngine, SemanticEntity
from repro.eventlog import Consumer, LogCluster, Producer, TopicConfig
from repro.render import Compositor, FrameBudget, SceneGraph
from repro.store import StoreSink, TieredStore
from repro.streaming.batch import RecordBatch
from repro.streaming.connectors import parallel_log_source
from repro.streaming.coordinator import CheckpointStore
from repro.streaming.element import Element
from repro.streaming.execution import ParallelExecutor
from repro.streaming.graph import JobBuilder, JobGraph
from repro.streaming.windows import TumblingWindows
from repro.vision import CameraIntrinsics, look_at

from inputs import Inputs, Lookup, Query, Rows

__all__ = ["World", "LIVE_TOPIC"]

LIVE_TOPIC = "live"
SINK = "store"


def _window_value(result: Any) -> float:
    """Store the window's mean, not the ``WindowResult`` wrapper, so all
    three workloads serve ``(key, ts, float)`` rows."""
    return result.value


class _TimedCheckpointStore(CheckpointStore):
    """Traced-pass seam: times ``finalize`` and sizes its payload."""

    #: pickling the payload a second time costs as much as the digest
    #: inside ``finalize``; sizing every 8th keeps the probe near 1 %
    SIZE_EVERY = 8

    def __init__(self, rec: Any) -> None:
        super().__init__()
        self.rec = rec
        self.finalized = 0
        self.payload_bytes: list[int] = []

    def finalize(self, checkpoint: Any, manifest: Any) -> None:
        with self.rec.span("streaming.checkpoint_finalize"):
            super().finalize(checkpoint, manifest)
        self.finalized += 1
        if self.finalized % self.SIZE_EVERY == 1:
            # the benchmark's own cost, kept out of every layer's time
            with self.rec.span("bench.checkpoint_bytes"):
                self.payload_bytes.append(len(pickle.dumps(
                    checkpoint, protocol=pickle.HIGHEST_PROTOCOL)))


class _TimedStoreSink(StoreSink):
    """Traced-pass seam: times the epoch apply."""

    def __init__(self, rec: Any, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.rec = rec

    def on_checkpoint_committed(self, checkpoint_id: int,
                                committed: list) -> int:
        with self.rec.span("store.apply"):
            return super().on_checkpoint_committed(checkpoint_id, committed)


class World:
    """Everything one pass runs against, plus its counters."""

    def __init__(self, inputs: Inputs, cfg: dict, rec: Any) -> None:
        self.cfg = cfg
        self.rec = rec
        self.windowed = inputs.windowed
        self.cluster = LogCluster(num_brokers=3)
        self.store = TieredStore()
        self.checkpoints = (_TimedCheckpointStore(rec) if rec.enabled
                            else CheckpointStore())
        context = ContextStore()
        for entity_id, kind, position in inputs.entities:
            context.add_entity(SemanticEntity(entity_id, kind, position,
                                              name=entity_id))
        self.engine = InterpretationEngine(context)
        for tag in inputs.tags:
            self.engine.register_default(tag)
        self.compositor = Compositor(
            CameraIntrinsics(fx=800.0, fy=800.0, cx=640.0, cy=360.0,
                             width=1280, height=720),
            budget=FrameBudget(budget_ms=cfg["frame_budget_ms"]))
        self.poses = [look_at(eye, target) for eye, target in inputs.cameras]
        self.producer = Producer(self.cluster)
        self.cluster.create_topic(TopicConfig(
            LIVE_TOPIC, partitions=cfg["partitions"]))
        self._live = Consumer(self.cluster, LIVE_TOPIC)
        keys = inputs.keys
        self._query_keys = {
            q.codes: [keys[c] for c in q.codes]
            for q in (*inputs.queries, *inputs.tick_queries.values())
            if q.codes is not None}
        # counters
        self.jobs = 0
        self.rows_appended = 0
        self.rows_fetched = 0
        self.sink_rows = 0
        self.checkpoints_done = 0
        self.epochs_applied = 0
        self.fetch_probe_ns = 0
        self.connector_probe_ns = 0
        self.connector_probe_rows = 0
        self.construct_ns: list[int] = []
        self.restore_ns: list[int] = []

    # -- ingest ---------------------------------------------------------------

    def _produce(self, topic: str, rows: Rows) -> None:
        with self.rec.span("eventlog.produce"):
            send = self.producer.send
            for key, ts, value in zip(rows.keys_l, rows.ts_l, rows.values_l):
                send(topic, value, key=key, timestamp=ts)
        self.rows_appended += len(rows)

    def _chunk_job(self, topic: str, traced: bool) -> JobGraph:
        factory, splits = parallel_log_source(self.cluster, topic,
                                              columnar=True)
        if traced:
            factory = self._traced_factory(factory)
        builder = JobBuilder(f"backfill:{topic}")
        stream = builder.source("events", splits=splits,
                                split_factory=factory)
        if self.windowed:
            # records carry their log key (patient:vital) into
            # Element.key, so the window is keyed without a key_by
            stream = (stream.with_watermarks(self.cfg["watermark_s"])
                      .window(TumblingWindows(self.cfg["window_s"]), "mean")
                      .map(_window_value))
        stream.sink(SINK)
        return builder.build()

    def _traced_factory(self, factory: Any) -> Any:
        def split(index: int, n: int) -> Any:
            with self.rec.span("streaming.connector"):
                out = factory(index, n)
            self.rows_fetched += sum(len(batch) for batch in out)
            return out
        return split

    def _run(self, job: JobGraph) -> None:
        job_cfg = self.cfg["job"]
        names = {"sink_name": SINK, "consumer_name": "e2e-store"}
        sink = (_TimedStoreSink(self.rec, self.store, **names)
                if self.rec.enabled else StoreSink(self.store, **names))
        with self.rec.span("streaming.run_coordinated"):
            report = run_coordinated(
                job, None, parallelism=job_cfg["parallelism"],
                source_batch=job_cfg["source_batch"],
                interval_cycles=job_cfg["interval_cycles"],
                store=self.checkpoints, on_coordinator=sink.attach)
        self.jobs += 1
        self.sink_rows += len(report.sink_values[SINK])
        self.checkpoints_done += report.checkpoints
        self.epochs_applied += sink.applied_epochs

    def create_chunk_topic(self, index: int) -> str:
        topic = f"chunk-{index:03d}"
        self.cluster.create_topic(TopicConfig(
            topic, partitions=self.cfg["partitions"]))
        return topic

    def ingest_chunk(self, topic: str, rows: Rows) -> None:
        """One backfill chunk: produce into its own topic, then one job
        over it; returns with the rows queryable in the store."""
        self._produce(topic, rows)
        with self.rec.span("streaming.job_build"):
            job = self._chunk_job(topic, traced=self.rec.enabled)
        self._run(job)

    def _drain_live(self) -> list:
        """The live job's source: whatever the persistent consumer has
        not yet seen, as one columnar batch."""
        with self.rec.span("streaming.source"):
            with self.rec.span("eventlog.fetch"):
                records = []
                while True:
                    batch = self._live.poll(max_records=4096)
                    if not batch:
                        break
                    records.extend(batch)
            run = [Element(value=r.value, timestamp=r.timestamp, key=r.key)
                   for r in records]
            self.rows_fetched += len(run)
            return [RecordBatch.from_elements(run)] if run else []

    def ingest_tick(self, rows: Rows) -> None:
        """One live tick's write half: produce, then one micro-batch job
        draining the live topic into the store."""
        self._produce(LIVE_TOPIC, rows)
        with self.rec.span("streaming.job_build"):
            builder = JobBuilder(f"tick:{self.jobs}")
            builder.source("events", self._drain_live).sink(SINK)
            job = builder.build()
        self._run(job)

    # -- serve ----------------------------------------------------------------

    def serve_frame(self, camera: int, lookups: tuple[Lookup, ...]):
        """One overlay frame: point lookups, interpret, compose.
        Returns ``(versions per lookup, bound content, overlay frame)``
        for the caller to check against the oracle."""
        rec = self.rec
        latest = self.store.latest
        got = []
        for lk in lookups:
            with rec.span("store.lookup"):
                got.append(latest(lk.key))
        # the application's own step: shape store rows into the tagged
        # analytics results the interpretation engine binds
        with rec.span("app.results"):
            results = [
                {"tag": lk.tag, "subject": lk.subject,
                 "value": round(versions[0][1], 1),
                 "priority": abs(versions[0][1] - lk.mean) * lk.inv_spread}
                for lk, versions in zip(lookups, got) if versions]
        with rec.span("context.interpret"):
            bound = self.engine.interpret(results)
        with rec.span("render.scene"):
            scene = SceneGraph()
            for annotation in bound.annotations:
                scene.add(annotation)
        with rec.span("render.compose"):
            frame = self.compositor.compose(scene, self.poses[camera])
        return got, bound, frame

    def run_query(self, query: Query) -> dict:
        keys = (None if query.codes is None
                else self._query_keys[query.codes])
        with self.rec.span("store.query"):
            if query.window_s is not None:
                return self.store.tumbling(query.window_s, "mean", keys=keys,
                                           start=query.start, end=query.end)
            return self.store.group_by("mean", keys=keys, start=query.start,
                                       end=query.end)

    # -- traced-pass probes, run outside every timed unit -----------------------

    def probe_fetch(self, topic: str) -> None:
        """A plain ``Consumer.poll`` drain of a chunk's topic."""
        consumer = Consumer(self.cluster, topic)
        started = time.perf_counter_ns()
        while consumer.poll(max_records=4096):
            pass
        self.fetch_probe_ns += time.perf_counter_ns() - started

    def probe_connector(self, topic: str) -> None:
        """What the connector costs on a topic no job reads through it
        (``ward-live``'s, whose job drains a plain consumer)."""
        factory, splits = parallel_log_source(self.cluster, topic,
                                              columnar=True)
        started = time.perf_counter_ns()
        rows = sum(len(batch) for split in range(splits)
                   for batch in factory(split, splits))
        self.connector_probe_ns += time.perf_counter_ns() - started
        self.connector_probe_rows += rows

    def probe_launch_and_restore(self, topic: str | None) -> None:
        """What ``run_coordinated`` pays to construct its executor, and
        what a restart would pay: ``CheckpointStore.latest()`` plus
        ``ParallelExecutor.restore``."""
        if topic is None:
            builder = JobBuilder("probe")
            builder.source("events", []).sink(SINK)
            job = builder.build()
        else:
            job = self._chunk_job(topic, traced=False)
        t0 = time.perf_counter_ns()
        executor = ParallelExecutor(job, self.cfg["job"]["parallelism"],
                                    transactional_sinks=True)
        t1 = time.perf_counter_ns()
        executor.restore(self.checkpoints.latest())
        t2 = time.perf_counter_ns()
        self.construct_ns.append(t1 - t0)
        self.restore_ns.append(t2 - t1)

    # -- introspection --------------------------------------------------------------

    def store_counters(self) -> dict[str, float]:
        stats = self.store.stats()
        shards = stats["hot"]["shards"]
        return {
            "store.hot_rows": stats["hot"]["rows"],
            "store.hot_runs_max": max(s["runs"] for s in shards),
            "store.hot_flushes": sum(s["flushes"] for s in shards),
            "store.hot_compactions": sum(s["compactions"] for s in shards),
            "store.analytical_rows": stats["analytical"]["rows"],
            "store.analytical_segments": stats["analytical"]["segments"],
        }
