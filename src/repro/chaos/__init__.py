"""Deterministic fault injection and crash-consistent recovery testing.

The chaos substrate the robustness suites are built on: seeded
:class:`FaultPlan` schedules, a :class:`FaultInjector` with counted
hooks threaded through the eventlog / streaming / offload layers, a
:class:`ChaosLogCluster` proxy for log-level faults, and the reference
fixtures the suites run under the one runner (:func:`run_coordinated`,
re-exported from :mod:`repro.streaming.supervisor`) to enforce the
headline invariant — sinks after recovery are bit-identical to the
fault-free run, for any seeded schedule.
"""

from .._lazy import lazy_exports

# lazy: the harness is the runner's home for every job, and needs
# neither the injector nor the schedules
__getattr__, __dir__ = lazy_exports(__name__, {
    ".harness": (
        "canonical_sinks", "fault_free_sinks", "reference_events",
        "reference_job", "reference_operator_names", "run_coordinated",
        "two_region_job"),
    ".injector": ("ChaosLogCluster", "FaultInjector"),
    ".plan": (
        "CORRUPT_TS_MODES", "CORRUPT_VALUE_MODES", "DATA_FAULT_KINDS",
        "RESCALE_PHASES", "SITE_APPEND", "SITE_BARRIER", "SITE_CHANNEL",
        "SITE_CHECKPOINT", "SITE_COORDINATOR", "SITE_DATA", "SITE_FETCH",
        "SITE_OFFLOAD", "SITE_OPERATOR", "SITE_RESCALE", "SITE_STALL",
        "SITE_STORE", "STORE_PHASES", "FaultEvent", "FaultPlan",
        "FaultSpec"),
})

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultEvent",
    "FaultInjector",
    "ChaosLogCluster",
    "run_coordinated",
    "reference_events",
    "reference_job",
    "reference_operator_names",
    "fault_free_sinks",
    "two_region_job",
    "canonical_sinks",
    "SITE_OPERATOR",
    "SITE_APPEND",
    "SITE_FETCH",
    "SITE_OFFLOAD",
    "SITE_CHANNEL",
    "SITE_BARRIER",
    "SITE_COORDINATOR",
    "SITE_STALL",
    "SITE_RESCALE",
    "RESCALE_PHASES",
    "SITE_STORE",
    "STORE_PHASES",
    "SITE_DATA",
    "SITE_CHECKPOINT",
    "DATA_FAULT_KINDS",
    "CORRUPT_VALUE_MODES",
    "CORRUPT_TS_MODES",
]
