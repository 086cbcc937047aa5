"""The AR x Big-Data convergence pipeline — the paper's contribution as
an API.

One object wires the whole loop the paper sketches::

    sensors/UGC --> [PrivacyGuard] --> event log (velocity, volume)
        --> streaming job (event time, windows)
        --> analytics results (tagged with semantics)
        --> [InterpretationEngine] --> AR annotations
        --> SharedDataset --> per-user ARSession views
    while [TimelinessController] places the per-frame vision work
    across device/edge/cloud.

Applications (``repro.apps``) are thin layers over this facade; the
experiments measure its components under the paper's scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..context.entities import ContextStore, SemanticEntity, UserContext
from ..context.interpret import BoundContent, InterpretationEngine
from ..eventlog.broker import LogCluster, TopicConfig
from ..eventlog.producer import Producer
from ..offload.executor import OffloadPlanner
from ..offload.policies import GreedyLatency, OffloadPolicy
from ..render.compositor import Compositor, FrameBudget
from ..render.occlusion import OcclusionWorld
from ..simnet.network import LINK_PRESETS, LinkSpec
from ..simnet.topology import NodeSpec, Topology
from ..streaming.connectors import log_source
from ..streaming.graph import JobBuilder
from ..streaming.supervisor import run_coordinated
from ..streaming.window_operator import WindowResult
from ..streaming.windows import TumblingWindows
from ..util.clock import SimClock
from ..util.errors import PipelineError
from ..util.rng import RngRegistry
from ..vision.camera import CameraIntrinsics
from .privacy_guard import PrivacyConfig, PrivacyGuard
from .session import ARSession, SharedDataset
from .timeliness import TimelinessController

__all__ = ["PipelineConfig", "ARBigDataPipeline"]

DEFAULT_INTRINSICS = CameraIntrinsics(fx=500.0, fy=500.0, cx=160.0,
                                      cy=120.0, width=320, height=240)


#: the log's brokers, and each topic's replicas and default partitions
BROKERS = 3
REPLICATION = 2
PARTITIONS = 4


@dataclass(frozen=True)
class PipelineConfig:
    """Top-level knobs, all defaulted to sane values.

    The device, edge and cloud run at 2, 16 and 64 GHz, and the edge
    reaches the cloud over the ``"wan"`` link preset.
    """

    seed: int = 0
    deadline_s: float = 1.0 / 30.0
    access_link: str = "wifi"  # device <-> edge preset name
    privacy: PrivacyConfig = PrivacyConfig(location_mode="none")

    def __post_init__(self) -> None:
        if self.access_link not in LINK_PRESETS:
            raise PipelineError(
                f"unknown link preset {self.access_link!r}; choose from "
                f"{sorted(LINK_PRESETS)}")


class ARBigDataPipeline:
    """Facade over every substrate, wired per the paper's architecture."""

    def __init__(self, config: PipelineConfig = PipelineConfig()) -> None:
        self.config = config
        self.rngs = RngRegistry(config.seed)
        self.clock = SimClock()
        # Big-data backbone.
        self.log = LogCluster(num_brokers=BROKERS)
        self.producer = Producer(self.log, clock=self.clock)
        # Semantics + interpretation.
        self.context = ContextStore()
        self.interpreter = InterpretationEngine(self.context)
        # Shared AR content.
        self.dataset = SharedDataset()
        # Privacy boundary.
        self.guard = PrivacyGuard(config.privacy, self.rngs.get("privacy"))
        # Offloading topology: device -- edge -- cloud.
        self.topology = Topology(self.rngs.get("network"))
        self.topology.add_node(NodeSpec("device", cpu_hz=2.0e9,
                                        role="device", power_w=2.5))
        self.topology.add_node(NodeSpec("edge", cpu_hz=16.0e9,
                                        role="edge", cores=4))
        self.topology.add_node(NodeSpec("cloud", cpu_hz=64.0e9,
                                        role="cloud", cores=32))
        self.topology.add_link("device", "edge",
                               LINK_PRESETS[config.access_link])
        self.topology.add_link("edge", "cloud",
                               LINK_PRESETS["wan"])
        self.planner = OffloadPlanner(self.topology, "device")
        self.timeliness = TimelinessController(
            self.planner, GreedyLatency(), deadline_s=config.deadline_s)
        self._sessions: dict[str, ARSession] = {}

    # -- topology/policy tweaks ------------------------------------------------

    def set_offload_policy(self, policy: OffloadPolicy) -> None:
        self.timeliness = TimelinessController(
            self.planner, policy, deadline_s=self.config.deadline_s)

    def set_access_link(self, spec: LinkSpec) -> None:
        """Replace the device<->edge link (e.g. to degrade the network)."""
        self.topology.replace_link("device", "edge", spec)

    # -- ingestion ---------------------------------------------------------------

    def create_topic(self, name: str, partitions: int | None = None) -> None:
        self.log.create_topic(TopicConfig(
            name=name,
            partitions=partitions or PARTITIONS, replication=REPLICATION))

    def ingest(self, topic: str, value: Mapping[str, Any],
               key: str | None = None,
               timestamp: float | None = None,
               personal: bool = False) -> tuple[int, int]:
        """Append one record; personal records pass the privacy guard
        (pseudonymized user, protected location)."""
        record = dict(value)
        if personal:
            if "user" in record:
                record["user"] = self.guard.pseudonymize(str(record["user"]))
                key = record["user"] if key is not None else key
            if "x" in record and "y" in record:
                px, py, err = self.guard.protect_location(
                    float(record["x"]), float(record["y"]))
                record["x"], record["y"] = px, py
                record["loc_error_m"] = err
        return self.producer.send(topic, record, key=key,
                                  timestamp=timestamp)

    # -- streaming analytics -------------------------------------------------------

    def windowed_aggregate(self, topic: str,
                           key_fn: Callable[[Any], Any],
                           value_fn: Callable[[Any], float],
                           window_s: float,
                           aggregate: str = "mean",
                           ) -> list[WindowResult]:
        """Run a tumbling-window job over everything retained in a topic."""
        def build(builder: JobBuilder) -> None:
            (builder.source(topic, log_source(self.log, topic))
                    .with_watermarks(5.0)
                    .key_by(key_fn)
                    .window(TumblingWindows(window_s), aggregate,
                            value_fn=value_fn)
                    .sink("out"))
        return self.run_job(build, f"{topic}-window")["out"]

    def run_job(self, build: Callable[[JobBuilder], None],
                name: str = "job") -> dict[str, list[Any]]:
        """Build a dataflow over the log and run it supervised
        (checkpoints, 2PC sinks, the failure ladder); returns each
        sink's committed values."""
        builder = JobBuilder(name)
        build(builder)
        return run_coordinated(builder.build(),
                               source_batch=256).sink_values

    # -- semantics ------------------------------------------------------------------

    def add_entity(self, entity: SemanticEntity) -> None:
        self.context.add_entity(entity)

    def update_user_context(self, context: UserContext) -> None:
        self.context.update_user(context)

    def interpret_and_publish(self, results: list[Mapping[str, Any]],
                              ) -> BoundContent:
        """Interpretation step + publish bound annotations to sessions."""
        bound = self.interpreter.interpret(results)
        if bound.annotations:
            self.dataset.publish(bound.annotations)
        return bound

    # -- sessions ---------------------------------------------------------------------

    def open_session(self, user_id: str,
                     occlusion: OcclusionWorld | None = None,
                     budget: FrameBudget | None = None) -> ARSession:
        if user_id in self._sessions:
            raise PipelineError(f"session for {user_id!r} already open")
        compositor = Compositor(DEFAULT_INTRINSICS, occlusion=occlusion,
                                budget=budget)
        session = ARSession(user_id=user_id, dataset=self.dataset,
                            compositor=compositor)
        session.sync()
        self._sessions[user_id] = session
        return session

    def session(self, user_id: str) -> ARSession:
        try:
            return self._sessions[user_id]
        except KeyError:
            raise PipelineError(f"no session for {user_id!r}") from None

    def sessions(self) -> list[ARSession]:
        return [self._sessions[k] for k in sorted(self._sessions)]
