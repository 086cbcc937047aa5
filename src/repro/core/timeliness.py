"""Timeliness control (Section 4.1 as a component).

The controller owns the per-frame real-time contract: given the frame's
measured vision workload it asks an offload policy for a placement,
prices the frame, and tracks the deadline budget.  It also owns the
incremental-vs-batch decision for analytics refreshes: incremental
updates are free-flowing; criteria changes force a rebuild, whose cost
is charged against freshness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analytics.quantiles import P2Quantile
from ..offload.executor import OffloadPlanner
from ..offload.policies import OffloadPolicy, PolicyDecision
from ..offload.tasks import vision_pipeline
from ..util.errors import PipelineError
from ..vision.tracker import StageProfile

__all__ = ["FrameTiming", "TimelinessController", "TimelinessReport",
           "AdaptiveQualityController"]


@dataclass(frozen=True)
class FrameTiming:
    """One frame's timing verdict."""

    latency_s: float
    energy_j: float
    placement: str
    met_deadline: bool
    decision: PolicyDecision


@dataclass
class TimelinessReport:
    """Aggregate timing over a run."""

    frames: int = 0
    deadline_misses: int = 0
    total_latency_s: float = 0.0
    total_energy_j: float = 0.0
    placements: dict[str, int] = field(default_factory=dict)

    @property
    def miss_rate(self) -> float:
        return self.deadline_misses / self.frames if self.frames else 0.0

    @property
    def mean_latency_s(self) -> float:
        return self.total_latency_s / self.frames if self.frames else 0.0

    @property
    def mean_energy_j(self) -> float:
        return self.total_energy_j / self.frames if self.frames else 0.0


class AdaptiveQualityController:
    """Graceful degradation: step frame quality down when the deadline
    slips, back up when there is headroom.

    Section 4.1's real-time contract must survive bad conditions — the
    AR session "continues at reduced rate rather than dying".  The
    controller holds a ladder of resolutions and starts at the best;
    after ``window`` frames it steps down if the miss rate exceeds
    ``down_threshold`` and steps up if every frame met the deadline with
    ``up_margin`` slack.
    """

    #: (width, height) ladder, best first.
    LADDER = ((1280, 720), (640, 480), (320, 240), (160, 120))
    window = 10
    down_threshold = 0.3
    up_margin = 0.5

    def __init__(self, timeliness: "TimelinessController") -> None:
        self.timeliness = timeliness
        self.level = 0
        self._recent: list[FrameTiming] = []
        self.downshifts = 0
        self.upshifts = 0

    @property
    def resolution(self) -> tuple[int, int]:
        return self.LADDER[self.level]

    def profile_for_level(self) -> StageProfile:
        """Vision workload at the current quality level."""
        width, height = self.resolution
        pixels = width * height
        features = min(1200, int(80 * (pixels / (160 * 120)) ** 0.5))
        return StageProfile(pixels=pixels, features=features,
                            matches=int(features * 0.4),
                            ransac_iterations=80)

    def admit_frame(self) -> FrameTiming:
        """Admit one frame at the current quality and adapt."""
        timing = self.timeliness.admit_frame(self.profile_for_level())
        self._recent.append(timing)
        if len(self._recent) >= self.window:
            misses = sum(1 for t in self._recent if not t.met_deadline)
            miss_rate = misses / len(self._recent)
            deadline = self.timeliness.deadline_s
            max_latency = max(t.latency_s for t in self._recent)
            if (miss_rate > self.down_threshold
                    and self.level < len(self.LADDER) - 1):
                self.level += 1
                self.downshifts += 1
            elif (misses == 0
                  and max_latency < deadline * (1.0 - self.up_margin)
                  and self.level > 0):
                self.level -= 1
                self.upshifts += 1
            self._recent.clear()
        return timing


class TimelinessController:
    """Applies an offload policy per frame and tracks the deadline."""

    def __init__(self, planner: OffloadPlanner, policy: OffloadPolicy,
                 deadline_s: float = 1.0 / 30.0) -> None:
        if deadline_s <= 0:
            raise PipelineError("deadline must be positive")
        self.planner = planner
        self.policy = policy
        self.deadline_s = deadline_s
        self.report = TimelinessReport()
        self.latency_p95 = P2Quantile(0.95)

    def admit_frame(self, profile: StageProfile) -> FrameTiming:
        """Place and price one frame."""
        pipeline = vision_pipeline(profile)
        decision = self.policy.decide(self.planner, pipeline)
        outcome = decision.outcome
        met = outcome.latency_s <= self.deadline_s
        self.report.frames += 1
        self.report.total_latency_s += outcome.latency_s
        self.report.total_energy_j += outcome.energy_j
        if not met:
            self.report.deadline_misses += 1
        placement = outcome.tier_node if not outcome.is_local else "local"
        self.report.placements[placement] = \
            self.report.placements.get(placement, 0) + 1
        self.latency_p95.add(outcome.latency_s)
        return FrameTiming(latency_s=outcome.latency_s,
                           energy_j=outcome.energy_j,
                           placement=placement, met_deadline=met,
                           decision=decision)
