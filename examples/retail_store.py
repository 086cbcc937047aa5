"""Retail scenario (paper Section 3.1, Figure 6).

A store where shopper behaviour streams train a collaborative-filtering
recommender; a shopper walks in, her gaze stream sharpens the targeting,
personalized offers are anchored to shelves, and the X-ray locator
guides her to a product hidden behind an aisle.

Run:  python examples/retail_store.py
"""

from repro import ARBigDataPipeline, PipelineConfig, PrivacyConfig
from repro.apps import RetailApp
from repro.datagen import RetailWorld
from repro.util.rng import make_rng


def main() -> None:
    rng = make_rng(17)
    # Personal data passes the privacy guard before reaching the log.
    pipeline = ARBigDataPipeline(PipelineConfig(
        seed=17, privacy=PrivacyConfig(location_mode="laplace",
                                       geo_epsilon=0.1)))
    world = RetailWorld.generate(rng, num_products=150,
                                 num_categories=12, num_shoppers=120,
                                 preference_concentration=0.15)
    app = RetailApp(pipeline, world)

    # -- big data accumulates: months of interaction history ------------
    history = world.interactions(rng, events_per_shopper=35)
    app.ingest_interactions(history)
    print(f"trained on {len(history)} interactions from "
          f"{len(world.shoppers)} shoppers "
          f"(pseudonymized: {pipeline.guard.pseudonymize('s-0000')})")

    # -- a shopper arrives: generic vs personalized offers --------------
    shopper = world.shoppers[0]
    generic = app.recommend(shopper.shopper_id, k=5, personalized=False)
    personal = app.recommend(shopper.shopper_id, k=5)
    print("\ngeneric overlay (no big data):",
          [item for item, _s in generic])
    print("personalized overlay (CF):     ",
          [item for item, _s in personal])

    # -- her gaze stream sharpens the targeting --------------------------
    gaze = world.gaze_stream(rng, shopper, n_events=8)
    app.ingest_gaze(gaze)
    contextual = app.recommend(shopper.shopper_id, k=5,
                               now=gaze[-1].timestamp,
                               position=(5.0, 5.0))
    print("gaze+proximity contextual:     ",
          [item for item, _s in contextual])
    published = app.publish_recommendations(shopper.shopper_id,
                                            now=gaze[-1].timestamp)
    print(f"published {published} shelf-anchored offer annotations")

    # -- the X-ray locator -----------------------------------------------
    target = contextual[0][0]
    outcome = app.locate_product(shopper.shopper_id, target, (1.0, 1.0))
    state = "BEHIND A SHELF (x-ray highlight)" if outcome["xray"] \
        else "in direct view"
    print(f"\nlocating {target}: {outcome['distance_m']:.1f} m away, "
          f"{state}")

    # -- how much did big data buy? ---------------------------------------
    evaluation = app.evaluate(rng, max_users=40)
    print(f"\nprecision@5: CF {evaluation.cf_precision:.3f} vs "
          f"popularity {evaluation.popularity_precision:.3f} "
          f"(uplift {evaluation.uplift:.0%})")


if __name__ == "__main__":
    main()
