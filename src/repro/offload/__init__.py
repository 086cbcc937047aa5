"""Computation offloading (CloudRiDAR-style): pipeline models, plan
pricing, placement policies, resilient execution."""

from .battery import DEVICE_CLASSES, Battery, DeviceClass
from .executor import EnergyModel, OffloadPlanner, PlanOutcome
from .policies import (
    AlwaysLocal,
    AlwaysRemote,
    DeadlineEnergyAware,
    GreedyLatency,
    OffloadPolicy,
    PolicyDecision,
)
from .runner import OffloadAttempt, OffloadResult, OffloadRunner
from .tasks import Pipeline, TaskStage, vision_pipeline

__all__ = [
    "Battery",
    "DeviceClass",
    "DEVICE_CLASSES",
    "EnergyModel",
    "OffloadPlanner",
    "PlanOutcome",
    "AlwaysLocal",
    "AlwaysRemote",
    "DeadlineEnergyAware",
    "GreedyLatency",
    "OffloadPolicy",
    "PolicyDecision",
    "OffloadAttempt",
    "OffloadResult",
    "OffloadRunner",
    "Pipeline",
    "TaskStage",
    "vision_pipeline",
]
