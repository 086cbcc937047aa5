"""Tourism application (Section 3.2, Figure 7).

A city guide: POIs become semantic entities; tourists move on mobility
traces; the guide overlays nearby-POI content either as naive floating
bubbles (the AR-browser baseline the paper criticizes) or registered,
decluttered and occlusion-aware.  The Ingress-style gamification places
portals at landmark POIs and measures visit engagement with and without
the game layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analytics.incremental import DecayedCounter
from ..context.entities import SemanticEntity
from ..core.pipeline import ARBigDataPipeline
from ..datagen.mobility import Trace
from ..render.compositor import Compositor
from ..render.occlusion import OcclusionWorld
from ..render.scene import Annotation, SceneGraph
from ..sensors.poi import PoiDatabase
from ..util.errors import PipelineError
from ..vision.camera import CameraIntrinsics, look_at

__all__ = ["TourismApp", "OverlayComparison", "GameStats"]

VISITS_TOPIC = "tourism.visits"


@dataclass(frozen=True)
class OverlayComparison:
    """Registered/decluttered vs naive bubbles, one frame."""

    naive_useful_ratio: float
    smart_useful_ratio: float
    naive_overlap_ratio: float
    smart_overlap_ratio: float
    labels: int

    @property
    def useful_uplift(self) -> float:
        if self.smart_useful_ratio <= self.naive_useful_ratio:
            return 0.0
        return min(1.0, self.smart_useful_ratio - self.naive_useful_ratio)


@dataclass(frozen=True)
class GameStats:
    """Ingress-style engagement outcome."""

    tourists: int
    portal_count: int
    visits_plain: int  # POI encounters without the game
    visits_gamified: int  # encounters when portals attract detours

    @property
    def engagement_uplift(self) -> float:
        if self.visits_plain == 0:
            return 1.0 if self.visits_gamified > 0 else 0.0
        return max(0.0, (self.visits_gamified - self.visits_plain)
                   / self.visits_gamified) if self.visits_gamified else 0.0


class TourismApp:
    """City-guide AR service over the convergence pipeline."""

    def __init__(self, pipeline: ARBigDataPipeline, pois: PoiDatabase,
                 buildings: OcclusionWorld | None = None) -> None:
        self.pipeline = pipeline
        self.pois = pois
        self.buildings = buildings if buildings is not None \
            else OcclusionWorld()
        pipeline.create_topic(VISITS_TOPIC)
        for poi in pois.most_popular(k=len(pois)):
            pipeline.add_entity(SemanticEntity(
                entity_id=poi.poi_id, entity_type="poi",
                position=np.array([poi.x, poi.y, 2.0]),
                name=poi.name,
                tags={"category": poi.category,
                      "popularity": poi.popularity}))
        pipeline.interpreter.register_default("poi-info")
        self._trend = {}  # poi -> DecayedCounter of recent visits

    # -- guide overlays ----------------------------------------------------

    def nearby_content(self, x: float, y: float, radius_m: float = 150.0,
                       limit: int = 20) -> list[Annotation]:
        """Annotations for nearby POIs, popularity-prioritized."""
        nearby = self.pois.within(x, y, radius_m)[:limit]
        annotations = []
        for poi in nearby:
            annotations.append(Annotation(
                annotation_id=f"poi:{poi.poi_id}",
                anchor=np.array([poi.x, poi.y, 2.0]),
                text=poi.name,
                kind="poi-info",
                priority=poi.popularity,
                width_px=90.0, height_px=22.0))
        return annotations

    def compare_overlays(self, x: float, y: float,
                         heading_to: tuple[float, float],
                         intrinsics: CameraIntrinsics,
                         radius_m: float = 150.0,
                         limit: int = 20) -> OverlayComparison:
        """Render the same view naive vs smart and measure clutter."""
        annotations = self.nearby_content(x, y, radius_m, limit=limit)
        scene = SceneGraph()
        for annotation in annotations:
            scene.add(annotation)
        eye = np.array([x, y, 1.7])
        target = np.array([heading_to[0], heading_to[1], 1.7])
        pose = look_at(eye=eye, target=target, up=np.array([0.0, 0.0, 1.0]))
        naive = Compositor(intrinsics, occlusion=self.buildings,
                           occlusion_policy="ignore",
                           declutter=False).compose(scene, pose)
        smart = Compositor(intrinsics, occlusion=self.buildings,
                           occlusion_policy="xray",
                           declutter=True).compose(scene, pose)
        return OverlayComparison(
            naive_useful_ratio=naive.layout.useful_ratio,
            smart_useful_ratio=smart.layout.useful_ratio,
            naive_overlap_ratio=naive.layout.overlap_ratio,
            smart_overlap_ratio=smart.layout.overlap_ratio,
            labels=len(annotations))

    # -- visit tracking / trends -----------------------------------------------

    def record_visit(self, user: str, poi_id: str, timestamp: float) -> None:
        self.pois.get(poi_id)  # validate
        self.pipeline.ingest(VISITS_TOPIC,
                             {"user": user, "poi": poi_id, "x": 0, "y": 0},
                             key=user, timestamp=timestamp, personal=True)
        counter = self._trend.setdefault(poi_id, DecayedCounter(tau=3600.0))
        counter.add(timestamp)

    def trending(self, now: float, k: int = 5) -> list[tuple[str, float]]:
        scored = [(poi_id, counter.value(now))
                  for poi_id, counter in self._trend.items()]
        scored.sort(key=lambda kv: (-kv[1], kv[0]))
        return scored[:k]

    def trending_private(self, now: float, k: int, epsilon: float,
                         rng: np.random.Generator) -> list[str]:
        """DP release of the trending list (Sec 4.3: recommendations
        from personal visit data with a bounded privacy cost).

        Uses exponential-mechanism peeling over the decayed visit
        scores; a single visit changes any score by at most 1 (decay
        only shrinks it), so per-pick sensitivity is 1.
        """
        from ..privacy.exponential import private_top_k
        scores = {poi_id: counter.value(now)
                  for poi_id, counter in self._trend.items()}
        if len(scores) < k:
            raise PipelineError(
                f"only {len(scores)} visited POIs; cannot release top-{k}")
        return private_top_k(scores, k=k, epsilon=epsilon, rng=rng)

    # -- gamification --------------------------------------------------------------

    def run_game(self, traces: list[Trace], portal_count: int = 10,
                 encounter_m: float = 60.0,
                 detour_m: float = 150.0) -> GameStats:
        """Ingress-style portals at the most popular POIs.

        Plain mode counts organic POI encounters along each trace; the
        gamified mode also captures portals within ``detour_m`` (players
        detour to capture), modelling the paper's "treasure hunt".
        """
        if portal_count < 1:
            raise PipelineError("need at least one portal")
        portals = self.pois.most_popular(k=portal_count)
        portal_xy = np.array([[p.x, p.y] for p in portals])
        visits_plain = 0
        visits_gamified = 0
        for trace in traces:
            seen_plain: set[int] = set()
            seen_game: set[int] = set()
            for x, y in zip(trace.xs, trace.ys):
                d = np.hypot(portal_xy[:, 0] - x, portal_xy[:, 1] - y)
                seen_plain.update(np.nonzero(d <= encounter_m)[0].tolist())
                seen_game.update(np.nonzero(d <= detour_m)[0].tolist())
            visits_plain += len(seen_plain)
            visits_gamified += len(seen_game)
        return GameStats(tourists=len(traces), portal_count=portal_count,
                         visits_plain=visits_plain,
                         visits_gamified=visits_gamified)

    # -- translation assist -----------------------------------------------------------

    def translate_signs(self, signs: list[tuple[str, str]],
                        phrasebook: dict[str, str]) -> list[dict]:
        """Mock native-language sign translation: a lookup 'model'.

        ``signs`` rows are (sign_id, native_text); unknown phrases stay
        untranslated (coverage is the metric, as with any MT system).
        """
        out = []
        for sign_id, text in signs:
            translated = phrasebook.get(text)
            out.append({"sign": sign_id, "native": text,
                        "translated": translated,
                        "covered": translated is not None})
        return out
