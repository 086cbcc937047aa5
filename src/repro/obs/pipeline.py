"""The traced reference run: one AR frame across every subsystem.

``traced_reference_run`` drives the full request path of the paper's
architecture — produce into the event log, replay through the streaming
reference job (in any execution mode), offload a vision pipeline, and
composite the analytics into an AR overlay — with one tracer and one
metrics registry threaded through all of it.  The result is a single
connected span tree rooted at ``frame``:

    frame
    ├── ingest              (producer; one ``produce`` span per record)
    ├── stream
    │   ├── consume:poll / consume   (parented on ``produce`` via the
    │   │                             traceparent header)
    │   └── job:chaos-reference
    │       ├── source:events
    │       ├── op:watermarks ... op:window_sum   (one per *logical* op)
    │       └── sink:out
    ├── offload
    │   └── offload:frame → offload:attempt ...
    └── render
        └── render:compose

The span set is identical in per-item and batched (chained) mode —
that invariant is what ``tools/check_obs.py`` gates and the integration
tests assert.  All timestamps come from one :class:`SimClock`; the
stages advance it by nominal costs so durations (and the critical path)
are meaningful yet exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..chaos.harness import reference_events, reference_job
from ..eventlog.broker import LogCluster, TopicConfig
from ..eventlog.producer import Producer
from ..offload import OffloadPlanner, OffloadRunner, vision_pipeline
from ..offload.runner import OffloadResult
from ..offload.tasks import StageProfile
from ..render import Annotation, Compositor, OverlayFrame, SceneGraph
from ..simnet.network import LINK_PRESETS
from ..simnet.topology import NodeSpec, Topology
from ..streaming.connectors import log_source
from ..streaming.execution import ParallelExecutor
from ..util.clock import SimClock
from ..util.metrics import MetricsRegistry
from ..util.rng import RngRegistry
from ..vision import CameraIntrinsics, look_at
from .trace import Span, Tracer

__all__ = ["TracedRunReport", "traced_reference_run"]

_SEND_COST_S = 20e-6      # modelled producer append cost per record
_STREAM_COST_S = 5e-6     # modelled streaming cost per event
_RENDER_COST_S = 16e-3    # one 60 fps frame budget


@dataclass
class TracedRunReport:
    """Everything a caller needs to inspect a traced run."""

    tracer: Tracer
    registry: MetricsRegistry
    clock: SimClock
    root: Span
    sinks: dict[str, list[Any]]
    offload: OffloadResult
    frame: OverlayFrame
    mode: str


def _planner(seed: int) -> OffloadPlanner:
    """The canonical three-tier topology (device/edge/cloud) used by the
    offload tests — small enough to price instantly."""
    rngs = RngRegistry(seed)
    topology = Topology(rngs.get("net"))
    topology.add_node(NodeSpec("device", cpu_hz=2e9, role="device"))
    topology.add_node(NodeSpec("edge", cpu_hz=16e9, role="edge"))
    topology.add_node(NodeSpec("cloud", cpu_hz=64e9, role="cloud"))
    topology.add_link("device", "edge", LINK_PRESETS["wifi"])
    topology.add_link("edge", "cloud", LINK_PRESETS["wan"])
    return OffloadPlanner(topology, "device")


def _scene_from_aggregates(values: list[Any]) -> SceneGraph:
    """Turn the streaming sink's window aggregates into AR annotations
    anchored on a deterministic grid in front of the camera."""
    scene = SceneGraph()
    for i, value in enumerate(values[:12]):
        x = (i % 4 - 1.5) * 1.2
        y = (i // 4 - 1.0) * 0.9
        z = 4.0 + (i % 3)
        scene.add(Annotation(annotation_id=f"agg-{i:02d}",
                             anchor=np.array([x, y, z]),
                             text=str(value), priority=float(len(values) - i)))
    return scene


def traced_reference_run(*, seed: int = 0, n_events: int = 200,
                         batch_mode: bool = True,
                         tracer: Tracer | None = None,
                         registry: MetricsRegistry | None = None,
                         clock: SimClock | None = None) -> TracedRunReport:
    """Run the end-to-end reference pipeline under tracing."""
    clock = clock if clock is not None else SimClock()
    tracer = tracer if tracer is not None else Tracer(clock)
    registry = registry if registry is not None else MetricsRegistry()
    mode = "chained" if batch_mode else "per_item"

    root = tracer.start_span("frame", attrs={"mode": mode,
                                             "events": n_events})
    with tracer.activate(root):
        # -- ingest: seeded events into a replicated, partitioned log --
        cluster = LogCluster(num_brokers=3)
        cluster.create_topic(TopicConfig("events", partitions=2,
                                         replication=2))
        producer = Producer(cluster, clock=clock, tracer=tracer)
        with tracer.span("ingest", topic="events"):
            for element in reference_events(seed=seed, n=n_events):
                clock.advance(_SEND_COST_S)
                producer.send("events", element.value,
                              key=str(element.value["k"]),
                              timestamp=element.timestamp)

        # -- stream: replay the topic through the reference job --
        with tracer.span("stream", mode=mode):
            job = reference_job(log_source(cluster, "events",
                                           tracer=tracer))
            executor = ParallelExecutor(
                job, batch_mode=batch_mode,
                tracer=tracer, metrics=registry)
            sink_buffers = executor.run(source_batch=64)
            clock.advance(n_events * _STREAM_COST_S)
        sinks = {name: list(buf.values)
                 for name, buf in sink_buffers.items()}

        # -- offload: one vision pipeline through the tiered edge --
        with tracer.span("offload"):
            runner = OffloadRunner(_planner(seed), clock=clock,
                                   tracer=tracer, metrics=registry)
            offload_result = runner.execute(vision_pipeline(StageProfile(
                pixels=320 * 240, features=200, matches=80,
                ransac_iterations=50)))

        # -- render: composite the aggregates into the AR overlay --
        with tracer.span("render"):
            intrinsics = CameraIntrinsics(fx=400, fy=400, cx=160, cy=120,
                                          width=320, height=240)
            compositor = Compositor(intrinsics, tracer=tracer,
                                    metrics=registry)
            frame = compositor.compose(
                _scene_from_aggregates(sinks.get("out", [])),
                look_at(eye=[0.0, 0.0, 0.0], target=[0.0, 0.0, 5.0]))
            clock.advance(_RENDER_COST_S)
    root.end()

    registry.gauge("pipeline.events").set(float(n_events))
    registry.gauge("pipeline.end_to_end_s").set(
        root.end_time - root.start_time)
    return TracedRunReport(tracer=tracer, registry=registry, clock=clock,
                           root=root, sinks=sinks, offload=offload_result,
                           frame=frame, mode=mode)
