"""Retail workload: catalog, shoppers, transactions, gaze streams.

The Section-3.1 scenario made generative: a product catalog with Zipf
popularity and category structure; shoppers with latent category
preferences; interaction streams (views, gaze dwells, purchases) whose
statistics reward collaborative filtering over global popularity — the
property the F6 experiment rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analytics.recommend import Interaction
from ..util.errors import ConfigError

__all__ = ["Product", "Shopper", "RetailWorld", "GazeEvent"]

#: the Zipf exponent of product popularity within a category
ZIPF_S = 1.1


@dataclass(frozen=True)
class Product:
    product_id: str
    category: str
    price: float
    # shelf position in store-local metres
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class GazeEvent:
    """One gaze dwell on a product (eye-tracking stream of Figure 6)."""

    user: str
    product_id: str
    timestamp: float
    dwell_s: float


@dataclass
class Shopper:
    shopper_id: str
    preferences: np.ndarray  # over categories, sums to 1
    position: tuple[float, float] = (0.0, 0.0)


@dataclass
class RetailWorld:
    """A generated store: products, shoppers, and their ground truth."""

    products: list[Product]
    shoppers: list[Shopper]
    categories: list[str]
    _by_category: dict[str, list[Product]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self._by_category:
            for product in self.products:
                self._by_category.setdefault(product.category, []).append(
                    product)

    @staticmethod
    def generate(rng: np.random.Generator, num_products: int = 200,
                 num_categories: int = 10, num_shoppers: int = 100,
                 preference_concentration: float = 0.3) -> "RetailWorld":
        """Build a store, 50 m on a side.

        ``preference_concentration`` is the Dirichlet alpha: small values
        give each shopper a few loved categories (strong CF signal),
        large values make everyone identical (no CF signal).
        """
        if num_products < num_categories:
            raise ConfigError("need at least one product per category")
        categories = [f"cat-{c:02d}" for c in range(num_categories)]
        products = []
        for i in range(num_products):
            category = categories[i % num_categories]
            products.append(Product(
                product_id=f"p-{i:04d}",
                category=category,
                price=float(np.round(rng.uniform(1.0, 200.0), 2)),
                x=float(rng.uniform(0, 50.0)),
                y=float(rng.uniform(0, 50.0)),
                z=float(rng.uniform(0.2, 1.8)),
            ))
        shoppers = []
        for s in range(num_shoppers):
            prefs = rng.dirichlet(
                np.full(num_categories, preference_concentration))
            shoppers.append(Shopper(shopper_id=f"s-{s:04d}",
                                    preferences=prefs))
        return RetailWorld(products=products, shoppers=shoppers,
                           categories=categories)

    def by_category(self, category: str) -> list[Product]:
        return self._by_category.get(category, [])

    def _sample_product(self, rng: np.random.Generator,
                        shopper: Shopper) -> Product:
        """Category by preference, then product by within-category Zipf."""
        cat_idx = int(rng.choice(len(self.categories),
                                 p=shopper.preferences))
        pool = self.by_category(self.categories[cat_idx])
        ranks = np.arange(1, len(pool) + 1, dtype=float)
        weights = ranks ** -ZIPF_S
        weights /= weights.sum()
        return pool[int(rng.choice(len(pool), p=weights))]

    def interactions(self, rng: np.random.Generator,
                     events_per_shopper: int = 30) -> list[Interaction]:
        """Historical interaction log (training data for recommenders),
        one event every 20 s from time 0."""
        out: list[Interaction] = []
        t = 0.0
        for shopper in self.shoppers:
            for _ in range(events_per_shopper):
                product = self._sample_product(rng, shopper)
                out.append(Interaction(user=shopper.shopper_id,
                                       item=product.product_id,
                                       timestamp=t))
                t += 20.0
        return out

    def holdout_relevant(self, rng: np.random.Generator,
                         shopper: Shopper) -> set[str]:
        """Future-relevant products for a shopper: 20 draws from the
        same preference process (evaluation ground truth)."""
        return {self._sample_product(rng, shopper).product_id
                for _ in range(20)}

    def gaze_stream(self, rng: np.random.Generator, shopper: Shopper,
                    n_events: int = 10) -> list[GazeEvent]:
        """Gaze dwells from time 0 follow the shopper's true
        preferences."""
        events = []
        t = 0.0
        for _ in range(n_events):
            product = self._sample_product(rng, shopper)
            dwell = float(rng.exponential(1.5))
            events.append(GazeEvent(user=shopper.shopper_id,
                                    product_id=product.product_id,
                                    timestamp=t, dwell_s=dwell))
            t += dwell + float(rng.exponential(3.0))
        return events
