"""The paper's contribution: the AR x Big-Data convergence framework.

- :class:`ARBigDataPipeline` — the end-to-end facade
- :class:`ARSession` / :class:`SharedDataset` — multi-user AR views
- :class:`TimelinessController` — Section 4.1 as a component
- :class:`PrivacyGuard` — Section 4.3 as a component
- :mod:`influence` — the computable Figure-5 model
"""

from .influence import (
    LEVELS,
    PAPER_FIGURE5,
    FieldInfluence,
    InfluenceLevel,
    classify,
    classify_score,
)
from .pipeline import (
    DEFAULT_INTRINSICS,
    ARBigDataPipeline,
    PipelineConfig,
)
from .privacy_guard import PrivacyConfig, PrivacyGuard
from .session import ARSession, Probe, SharedDataset
from .timeliness import (
    AdaptiveQualityController,
    FrameTiming,
    TimelinessController,
    TimelinessReport,
)

__all__ = [
    "LEVELS",
    "PAPER_FIGURE5",
    "FieldInfluence",
    "InfluenceLevel",
    "classify",
    "classify_score",
    "DEFAULT_INTRINSICS",
    "ARBigDataPipeline",
    "PipelineConfig",
    "PrivacyConfig",
    "PrivacyGuard",
    "ARSession",
    "Probe",
    "SharedDataset",
    "AdaptiveQualityController",
    "FrameTiming",
    "TimelinessController",
    "TimelinessReport",
]
