"""Offloading policies.

Four policies span the design space the Section-4.1 experiment sweeps:

- :class:`AlwaysLocal` — the baseline the paper says cannot keep up.
- :class:`AlwaysRemote` — everything to a fixed tier (CloudRiDAR's
  simple mode); wins on big frames, loses on thin networks.
- :class:`GreedyLatency` — pick the globally fastest plan.
- :class:`DeadlineEnergyAware` — among plans meeting the deadline pick
  the lowest energy; if none meets it, degrade to the fastest (the AR
  session continues at reduced rate rather than dying).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..util.errors import OffloadError
from .executor import OffloadPlanner, PlanOutcome
from .tasks import Pipeline

__all__ = ["OffloadPolicy", "AlwaysLocal", "AlwaysRemote", "GreedyLatency",
           "DeadlineEnergyAware", "PolicyDecision"]


@dataclass(frozen=True)
class PolicyDecision:
    """What a policy chose and why."""

    outcome: PlanOutcome
    met_deadline: bool | None
    considered: int


class OffloadPolicy:
    """Interface: choose a plan for one frame."""

    name = "abstract"

    def decide(self, planner: OffloadPlanner,
               pipeline: Pipeline) -> PolicyDecision:
        raise NotImplementedError


class AlwaysLocal(OffloadPolicy):
    name = "always-local"

    def decide(self, planner: OffloadPlanner,
               pipeline: Pipeline) -> PolicyDecision:
        outcome = planner.price(pipeline, max(pipeline.valid_cuts()),
                                planner.device.name)
        return PolicyDecision(outcome=outcome, met_deadline=None,
                              considered=1)


class AlwaysRemote(OffloadPolicy):
    """Fixed tier, at the earliest valid cut: ship the frame, run
    everything remote."""

    def __init__(self, tier: str) -> None:
        self.tier = tier
        self.name = f"always-{tier}"

    def decide(self, planner: OffloadPlanner,
               pipeline: Pipeline) -> PolicyDecision:
        outcome = planner.price(pipeline, min(pipeline.valid_cuts()),
                                self.tier)
        return PolicyDecision(outcome=outcome, met_deadline=None,
                              considered=1)


class GreedyLatency(OffloadPolicy):
    name = "greedy-latency"

    def decide(self, planner: OffloadPlanner,
               pipeline: Pipeline) -> PolicyDecision:
        outcomes = planner.plan(pipeline)
        if not outcomes:
            raise OffloadError("no feasible plan")
        best = min(outcomes, key=lambda o: (o.latency_s, o.energy_j))
        return PolicyDecision(outcome=best, met_deadline=None,
                              considered=len(outcomes))


class DeadlineEnergyAware(OffloadPolicy):
    """Least energy among deadline-meeting plans; fastest otherwise."""

    def __init__(self, deadline_s: float) -> None:
        if deadline_s <= 0:
            raise OffloadError("deadline must be positive")
        self.deadline_s = deadline_s
        self.name = f"deadline-{deadline_s * 1000:.0f}ms"

    def decide(self, planner: OffloadPlanner,
               pipeline: Pipeline) -> PolicyDecision:
        outcomes = planner.plan(pipeline)
        if not outcomes:
            raise OffloadError("no feasible plan")
        meeting = [o for o in outcomes if o.latency_s <= self.deadline_s]
        if meeting:
            best = min(meeting, key=lambda o: (o.energy_j, o.latency_s))
            return PolicyDecision(outcome=best, met_deadline=True,
                                  considered=len(outcomes))
        best = min(outcomes, key=lambda o: (o.latency_s, o.energy_j))
        return PolicyDecision(outcome=best, met_deadline=False,
                              considered=len(outcomes))
