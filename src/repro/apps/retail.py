"""Retail application (Section 3.1, Figure 6).

Big-data-driven AR shopping: the interaction history stream trains an
item-CF recommender; gaze events (eye-tracking glasses) boost what is
similar to what a shopper looked at; the store view overlays
personalized recommendations anchored at shelf positions, and the
"X-ray" locator highlights a searched product through the shelves.

The app exposes the *with/without big data* comparison directly:
``recommend(user, personalized=False)`` degrades to the popularity
baseline, which is what a data-less AR browser could show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..analytics.recommend import (
    Interaction,
    ItemCFRecommender,
    PopularityRecommender,
    hit_rate,
    precision_at_k,
)
from ..context.entities import SemanticEntity, UserContext
from ..core.pipeline import ARBigDataPipeline
from ..datagen.retail import GazeEvent, RetailWorld
from ..render.occlusion import BoxOccluder, OcclusionWorld
from ..util.errors import PipelineError
from ..vision.camera import look_at

__all__ = ["RetailApp", "RecommendationEval"]

INTERACTIONS_TOPIC = "retail.interactions"
GAZE_TOPIC = "retail.gaze"
#: the distance at which a product's proximity boost halves
PROXIMITY_SCALE_M = 10.0
#: how fast a gaze's boost fades
RECENCY_TAU_S = 60.0
#: recommendations a shelf shows and an evaluation judges
TOP_K = 5


@dataclass(frozen=True)
class RecommendationEval:
    """Precision/hit-rate comparison across recommenders."""

    users_evaluated: int
    k: int
    cf_precision: float
    popularity_precision: float
    cf_hit_rate: float
    popularity_hit_rate: float

    @property
    def uplift(self) -> float:
        """Relative precision uplift of CF over popularity, in [0, 1]."""
        if self.cf_precision <= self.popularity_precision:
            return 0.0
        if self.cf_precision == 0:
            return 0.0
        return min(1.0, (self.cf_precision - self.popularity_precision)
                   / max(self.cf_precision, 1e-12))


class RetailApp:
    """The store's AR + big-data service."""

    def __init__(self, pipeline: ARBigDataPipeline,
                 world: RetailWorld) -> None:
        self.pipeline = pipeline
        self.world = world
        self.cf = ItemCFRecommender()
        self.popularity = PopularityRecommender()
        self._seen: dict[str, set[str]] = {}
        self._gaze: dict[str, list[tuple[str, float]]] = {}
        pipeline.create_topic(INTERACTIONS_TOPIC)
        pipeline.create_topic(GAZE_TOPIC)
        # Products become semantic entities so interpretation can anchor
        # recommendations to shelves.
        for product in world.products:
            pipeline.add_entity(SemanticEntity(
                entity_id=product.product_id,
                entity_type="product",
                position=np.array([product.x, product.y, product.z]),
                name=product.product_id,
                tags={"category": product.category,
                      "price": product.price},
            ))
        pipeline.interpreter.register_default("recommendation")
        pipeline.interpreter.register_default("locator")
        self._shelves = self._build_shelves()

    def _build_shelves(self) -> OcclusionWorld:
        """Aisles as box occluders (for the X-ray locator)."""
        world = OcclusionWorld()
        store = max(max(p.x for p in self.world.products),
                    max(p.y for p in self.world.products)) + 1.0
        aisle_count = 5
        for i in range(aisle_count):
            y0 = (i + 0.5) * store / (aisle_count + 1)
            world.add(BoxOccluder(
                name=f"shelf-{i}",
                minimum=(2.0, y0 - 0.3, 0.0),
                maximum=(store - 2.0, y0 + 0.3, 2.0)))
        return world

    # -- data ingestion ------------------------------------------------------

    def ingest_interactions(self, interactions: list[Interaction]) -> int:
        """Feed history into the log and both recommenders."""
        for it in interactions:
            self.pipeline.ingest(
                INTERACTIONS_TOPIC,
                {"user": it.user, "item": it.item, "weight": it.weight},
                key=it.user, timestamp=it.timestamp, personal=True)
            self.cf.add(it)
            self.popularity.add(it)
            self._seen.setdefault(it.user, set()).add(it.item)
        return len(interactions)

    def seen_items(self, user: str) -> set[str]:
        """Items the user has already interacted with."""
        return set(self._seen.get(user, set()))

    def ingest_gaze(self, events: list[GazeEvent]) -> int:
        for event in events:
            self.pipeline.ingest(
                GAZE_TOPIC,
                {"user": event.user, "item": event.product_id,
                 "dwell": event.dwell_s},
                key=event.user, timestamp=event.timestamp, personal=True)
            self._gaze.setdefault(event.user, []).append(
                (event.product_id, event.timestamp))
        return len(events)

    # -- recommendation ---------------------------------------------------------

    def recommend(self, user: str, k: int = 5, personalized: bool = True,
                  now: float = 0.0,
                  position: tuple[float, float] | None = None,
                  ) -> list[tuple[str, float]]:
        """Top-k products; personalized uses CF + gaze/proximity context."""
        base = (self.cf if personalized else self.popularity).recommend(
            user, k=k * 4)
        if not personalized:
            return base[:k]
        scores = dict(base)
        if position is not None:
            px, py = position
            by_id = {p.product_id: p for p in self.world.products}
            for item in scores:
                product = by_id[item]
                distance = float(np.hypot(product.x - px, product.y - py))
                scores[item] *= 1.0 + 1.0 / (
                    1.0 + distance / PROXIMITY_SCALE_M)
        # Gaze context: boost candidates *similar* to recently gazed
        # products (gazed items themselves are seen and excluded).
        for gazed, ts in self._gaze.get(user, ()):
            recency = math.exp(-max(0.0, now - ts)
                               / RECENCY_TAU_S)
            if recency < 1e-3:
                continue
            for item in scores:
                similarity = self.cf.similarity(item, gazed)
                if similarity > 0:
                    scores[item] *= 1.0 + recency * similarity
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]

    def publish_recommendations(self, user: str, now: float = 0.0) -> int:
        """Interpretation step: the top ``TOP_K`` recommendations ->
        anchored annotations."""
        recs = self.recommend(user, k=TOP_K, now=now)
        results = [{"tag": "recommendation", "subject": item,
                    "value": f"score {score:.2f}", "priority": score}
                   for item, score in recs]
        bound = self.pipeline.interpret_and_publish(results)
        return bound.bound

    # -- X-ray locator --------------------------------------------------------------

    def locate_product(self, user: str, product_id: str,
                       user_position: tuple[float, float],
                       ) -> dict:
        """Highlight a product through the shelves (Section 3.1's
        "X-Ray vision ... to see a specific one behind")."""
        products = {p.product_id: p for p in self.world.products}
        if product_id not in products:
            raise PipelineError(f"unknown product {product_id!r}")
        product = products[product_id]
        self.pipeline.update_user_context(UserContext(
            user_id=user,
            position=np.array([user_position[0], user_position[1], 1.6])))
        bound = self.pipeline.interpret_and_publish([{
            "tag": "locator", "subject": product_id,
            "value": "HERE", "priority": 10.0}])
        if bound.bound != 1:
            raise PipelineError("locator annotation failed to bind")
        session = self._session_for(user)
        session.sync()
        eye = np.array([user_position[0], user_position[1], 1.6])
        target = np.array([product.x, product.y, product.z])
        pose = look_at(eye=eye, target=target, up=np.array([0.0, 0.0, 1.0]))
        frame = session.render(pose)
        item = next((i for i in frame.items
                     if i.annotation_id == f"locator:{product_id}"), None)
        distance = float(np.linalg.norm(target - eye))
        return {
            "found": item is not None,
            "xray": item.xray if item is not None else False,
            "occluded": item.occluded if item is not None else False,
            "distance_m": distance,
        }

    def _session_for(self, user: str):
        try:
            return self.pipeline.session(user)
        except PipelineError:
            return self.pipeline.open_session(user, occlusion=self._shelves)

    # -- evaluation --------------------------------------------------------------------

    def evaluate(self, rng: np.random.Generator,
                 max_users: int | None = None) -> RecommendationEval:
        """Precision@k of CF vs popularity against preference holdouts,
        at k = ``TOP_K``."""
        k = TOP_K
        shoppers = self.world.shoppers[:max_users]
        cf_p, pop_p, cf_h, pop_h = [], [], [], []
        for shopper in shoppers:
            relevant = self.world.holdout_relevant(rng, shopper)
            # Recommenders exclude seen items, so judge them only on the
            # unseen part of the holdout.
            relevant = relevant - self.seen_items(shopper.shopper_id)
            if not relevant:
                continue
            cf_items = [i for i, _s in self.cf.recommend(
                shopper.shopper_id, k=k)]
            pop_items = [i for i, _s in self.popularity.recommend(
                shopper.shopper_id, k=k)]
            cf_p.append(precision_at_k(cf_items, relevant, k))
            pop_p.append(precision_at_k(pop_items, relevant, k))
            cf_h.append(hit_rate(cf_items, relevant, k))
            pop_h.append(hit_rate(pop_items, relevant, k))
        return RecommendationEval(
            users_evaluated=len(shoppers), k=k,
            cf_precision=float(np.mean(cf_p)) if cf_p else 0.0,
            popularity_precision=float(np.mean(pop_p)) if pop_p else 0.0,
            cf_hit_rate=float(np.mean(cf_h)) if cf_h else 0.0,
            popularity_hit_rate=float(np.mean(pop_h)) if pop_h else 0.0,
        )
