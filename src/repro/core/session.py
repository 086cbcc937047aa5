"""AR sessions over a shared dataset (Figures 3 and 4).

A :class:`SharedDataset` is a versioned collection of interpreted AR
content (annotations) produced by the pipeline.  Each
:class:`ARSession` is one user's window onto it: the user syncs (pull),
composes their own view from their own pose, and can open *probes* —
per-user filters over the shared content that do not interfere with
other users ("each user can also probe into subsets respectively
without interference").  Staleness (shared version minus synced
version) is the consistency metric experiment F4 sweeps with user count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..render.compositor import Compositor, OverlayFrame
from ..render.scene import Annotation, SceneGraph
from ..util.errors import PipelineError
from ..vision.camera import Pose

__all__ = ["SharedDataset", "ARSession", "Probe"]


@dataclass
class Probe:
    """A named per-user filter over shared annotations."""

    name: str
    predicate: Callable[[Annotation], bool]


class SharedDataset:
    """Versioned shared AR content."""

    def __init__(self) -> None:
        self._annotations: dict[str, Annotation] = {}
        self.version = 0
        self._log: list[tuple[int, str, Annotation | None]] = []

    def publish(self, annotations: list[Annotation]) -> int:
        """Upsert a batch; one version tick per batch."""
        self.version += 1
        for annotation in annotations:
            self._annotations[annotation.annotation_id] = annotation
            self._log.append((self.version, annotation.annotation_id,
                              annotation))
        return self.version

    def retract(self, annotation_id: str) -> int:
        if annotation_id not in self._annotations:
            raise PipelineError(f"unknown annotation {annotation_id!r}")
        self.version += 1
        del self._annotations[annotation_id]
        self._log.append((self.version, annotation_id, None))
        return self.version

    def snapshot(self) -> tuple[int, list[Annotation]]:
        return self.version, list(self._annotations.values())

    def __len__(self) -> int:
        return len(self._annotations)


@dataclass
class ARSession:
    """One user's live view onto the shared dataset."""

    user_id: str
    dataset: SharedDataset
    compositor: Compositor
    synced_version: int = 0
    probes: dict[str, Probe] = field(default_factory=dict)
    _scene: SceneGraph = field(default_factory=SceneGraph)
    frames_rendered: int = 0
    #: simnet node this user's device maps to (geo-aware deployments)
    device: str | None = None
    #: tier currently serving this session's overlay updates
    serving_node: str | None = None
    serving_region: str | None = None
    tier_switches: int = 0

    @property
    def staleness(self) -> int:
        """Versions behind the shared dataset."""
        return self.dataset.version - self.synced_version

    def sync(self) -> int:
        """Pull the latest shared content; returns versions advanced."""
        version, annotations = self.dataset.snapshot()
        advanced = version - self.synced_version
        self._scene = SceneGraph()
        for annotation in annotations:
            self._scene.add(annotation)
        self.synced_version = version
        return advanced

    # -- serving tier --------------------------------------------------------

    def rehome(self, selector) -> "TierDecision":
        """Re-price this session's serving tier against live link
        conditions (a :class:`~repro.offload.tiers.LiveTierSelector`).

        Sticky by construction: the selector keeps the incumbent tier
        within its hysteresis band, so a session only switches — and
        only then pays a state handoff — when the network genuinely
        moved under it (edge outage, partition, congestion).
        """
        if self.device is None:
            raise PipelineError(
                f"session {self.user_id!r} has no device node; "
                "set ARSession.device to enable tier selection")
        decision = selector.select(self.device, current=self.serving_node)
        if decision.node != self.serving_node:
            if self.serving_node is not None:
                self.tier_switches += 1
            self.serving_node = decision.node
        self.serving_region = decision.region
        return decision

    # -- probes -------------------------------------------------------------

    def open_probe(self, probe: Probe) -> None:
        if probe.name in self.probes:
            raise PipelineError(f"probe {probe.name!r} already open")
        self.probes[probe.name] = probe

    def close_probe(self, name: str) -> None:
        if name not in self.probes:
            raise PipelineError(f"probe {name!r} not open")
        del self.probes[name]

    def _probe_filtered(self) -> SceneGraph:
        if not self.probes:
            return self._scene
        filtered = SceneGraph()
        annotations, _anchors = self._scene.world_anchors()
        for annotation in annotations:
            if all(probe.predicate(annotation)
                   for probe in self.probes.values()):
                filtered.add(annotation)
        return filtered

    def visible_annotation_ids(self) -> set[str]:
        annotations, _anchors = self._probe_filtered().world_anchors()
        return {a.annotation_id for a in annotations}

    # -- rendering -----------------------------------------------------------

    def render(self, pose: Pose) -> OverlayFrame:
        """Compose this user's current view (probe-filtered, own pose)."""
        self.frames_rendered += 1
        return self.compositor.compose(self._probe_filtered(), pose)
