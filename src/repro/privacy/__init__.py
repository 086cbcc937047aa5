"""Privacy substrate: DP mechanisms with budget accounting, location
privacy (cloaking, geo-indistinguishability), re-identification attack."""

from .exponential import exponential_mechanism, private_top_k
from .location import CloakedRegion, GridCloak, PlanarLaplace
from .mechanisms import (
    BudgetAccountant,
    GeometricMechanism,
    LaplaceMechanism,
)
from .reidentify import AttackResult, TraceDatabase, discretize_trace

__all__ = [
    "exponential_mechanism",
    "private_top_k",
    "CloakedRegion",
    "GridCloak",
    "PlanarLaplace",
    "BudgetAccountant",
    "GeometricMechanism",
    "LaplaceMechanism",
    "AttackResult",
    "TraceDatabase",
    "discretize_trace",
]
