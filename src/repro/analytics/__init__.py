"""Big-data analytics: sketches, incremental aggregation, recommenders,
anomaly detection, correlation mining."""

from .anomaly import Alarm, EwmaDetector, ThresholdDetector
from .correlation import AssociationRule, LiftMiner
from .heavyhitters import HeavyHitters
from .incremental import (
    DecayedCounter,
    IncrementalQuery,
    RunningStats,
)
from .quantiles import P2Quantile
from .recommend import (
    Interaction,
    ItemCFRecommender,
    PopularityRecommender,
    Recommender,
    hit_rate,
    precision_at_k,
)
from .sketches import CountMinSketch, HyperLogLog

__all__ = [
    "Alarm",
    "EwmaDetector",
    "ThresholdDetector",
    "AssociationRule",
    "LiftMiner",
    "HeavyHitters",
    "DecayedCounter",
    "IncrementalQuery",
    "RunningStats",
    "P2Quantile",
    "Interaction",
    "ItemCFRecommender",
    "PopularityRecommender",
    "Recommender",
    "hit_rate",
    "precision_at_k",
    "CountMinSketch",
    "HyperLogLog",
]
