"""Fault plans: seeded, deterministic schedules of what breaks when.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each
naming an injection *site* (a counted hook the production code passes
through), a *kind* of failure, and the occurrence index ``at`` at which
it fires.  Because every site counts deterministically — items entering
a streaming operator, append attempts on the log cluster, fetches,
offload task attempts — a plan replays the same fault trace on every
invocation, which is what makes crash-recovery testable at all: the
assertion "recovered sinks == fault-free sinks" only means something if
the crash lands in the same place twice.

A plan's ``seed`` and ``name`` say where it came from in a fault trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..util.errors import ChaosError

__all__ = ["FaultSpec", "FaultPlan", "FaultEvent",
           "SITE_OPERATOR", "SITE_APPEND", "SITE_FETCH", "SITE_OFFLOAD",
           "SITE_CHANNEL", "SITE_BARRIER", "SITE_COORDINATOR", "SITE_STALL",
           "SITE_RESCALE", "RESCALE_PHASES", "SITE_STORE", "STORE_PHASES",
           "SITE_DATA", "SITE_CHECKPOINT", "DATA_FAULT_KINDS",
           "CORRUPT_VALUE_MODES", "CORRUPT_TS_MODES"]

SITE_OPERATOR = "streaming.operator"
SITE_APPEND = "eventlog.append"
SITE_FETCH = "eventlog.fetch"
SITE_OFFLOAD = "offload.task"
#: one offer of a batch onto a physical channel (network-fault site)
SITE_CHANNEL = "streaming.channel"
#: one subtask snapshot taken on barrier passage
SITE_BARRIER = "streaming.barrier"
#: one checkpoint-finalize attempt by the coordinator
SITE_COORDINATOR = "streaming.coordinator"
#: one macro-cycle liveness check of a subtask
SITE_STALL = "streaming.stall"
#: one phase entry of a supervisor reshape (rescale, handoff, failover)
SITE_RESCALE = "streaming.rescale"
#: one phase entry of a serving-store epoch apply (StoreSink)
SITE_STORE = "store.apply"
#: one data element entering an operator (data-fault site; counted in
#: *elements*, so columnar batches advance it by their row count)
SITE_DATA = "streaming.data"
#: one checkpoint finalized into the store (storage-rot site)
SITE_CHECKPOINT = "streaming.checkpoint"

#: the phases of every reshape, in order; ``rescale_crash``
#: targets one of these (or None for the global phase-entry counter)
RESCALE_PHASES = ("decide", "savepoint", "recompile", "restore")

#: the store apply protocol's phases; ``store_crash`` targets one of
#: these (or None for the global counter): ``stage`` builds the epoch's
#: rows off to the side, ``apply`` installs them, ``compact`` merges
#: sorted runs afterwards
STORE_PHASES = ("stage", "apply", "compact")

#: kind -> sites where it may be scheduled
KIND_SITES = {
    "operator_crash": {SITE_OPERATOR},
    "partition_unavailable": {SITE_APPEND, SITE_FETCH},
    "torn_append": {SITE_APPEND},
    "broker_down": {SITE_APPEND},
    "duplicate_delivery": {SITE_FETCH},
    "task_timeout": {SITE_OFFLOAD},
    "tier_dropout": {SITE_OFFLOAD},
    # network faults on dataflow channels (param = cycles to hold /
    # duplicate depth; see FaultInjector.on_channel_offer)
    "channel_delay": {SITE_CHANNEL},
    "channel_duplicate": {SITE_CHANNEL},
    "channel_reorder": {SITE_CHANNEL},
    "channel_partition": {SITE_CHANNEL},
    # checkpoint-protocol faults
    "barrier_crash": {SITE_BARRIER},
    "coordinator_crash": {SITE_COORDINATOR},
    # fail-silent subtask: skips drain cycles and heartbeats for the
    # window, so only the failure detector can notice
    "subtask_stall": {SITE_STALL},
    # supervisor death at one phase of a live rescale (target = phase)
    "rescale_crash": {SITE_RESCALE},
    # serving-store death at one phase of an epoch apply (target = phase)
    "store_crash": {SITE_STORE},
    # data faults: poison individual records entering an operator
    # (param picks the flavour; see CORRUPT_VALUE_MODES / CORRUPT_TS_MODES)
    "udf_exception": {SITE_DATA},
    "corrupt_value": {SITE_DATA},
    "corrupt_timestamp": {SITE_DATA},
    # storage rot: damage a checkpoint *after* its atomic commit
    # (param = "payload" | "manifest")
    "checkpoint_corruption": {SITE_CHECKPOINT},
}

#: kinds scheduled at the data site (element-counted)
DATA_FAULT_KINDS = ("udf_exception", "corrupt_value", "corrupt_timestamp")
#: corrupt_value flavours (spec.param; None = wrong_type)
CORRUPT_VALUE_MODES = ("nan", "oversized", "wrong_type")
#: corrupt_timestamp flavours (spec.param; None = garbage)
CORRUPT_TS_MODES = ("backwards", "garbage")

#: kinds that fire exactly once and then disarm (vs. window kinds that
#: affect every occurrence in [at, at + count)).
ONE_SHOT_KINDS = {"operator_crash", "torn_append", "barrier_crash",
                  "coordinator_crash", "rescale_crash", "store_crash"}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    kind    what breaks (see :data:`KIND_SITES`)
    site    which counted hook it observes
    at      0-based occurrence index at the site when the fault starts
    count   window width in occurrences (ignored by one-shot kinds)
    target  narrows the hook: an operator (or chain member) name, a
            ``"topic[partition]"`` / ``"topic"`` string, a tier name —
            ``None`` matches the site's global counter
    param   kind-specific knob: broker id for ``broker_down``, rewind
            depth for ``duplicate_delivery``, corruption flavour for
            ``corrupt_value`` / ``corrupt_timestamp`` /
            ``checkpoint_corruption``
    """

    kind: str
    site: str
    at: int
    count: int = 1
    target: str | None = None
    param: int | str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KIND_SITES:
            raise ChaosError(f"unknown fault kind {self.kind!r}")
        if self.site not in KIND_SITES[self.kind]:
            raise ChaosError(
                f"kind {self.kind!r} cannot be scheduled at site "
                f"{self.site!r} (valid: {sorted(KIND_SITES[self.kind])})")
        if self.at < 0:
            raise ChaosError("at must be >= 0")
        if self.count < 1:
            raise ChaosError("count must be >= 1")
        if self.kind == "broker_down" and self.param is None:
            raise ChaosError("broker_down needs param=broker_id")
        if self.kind == "rescale_crash" and \
                self.target is not None and self.target not in RESCALE_PHASES:
            raise ChaosError(
                f"rescale_crash target must be a phase in "
                f"{RESCALE_PHASES} or None, got {self.target!r}")
        if self.kind == "store_crash" and \
                self.target is not None and self.target not in STORE_PHASES:
            raise ChaosError(
                f"store_crash target must be a phase in "
                f"{STORE_PHASES} or None, got {self.target!r}")
        if self.kind == "corrupt_value" and self.param is not None \
                and self.param not in CORRUPT_VALUE_MODES:
            raise ChaosError(
                f"corrupt_value param must be one of "
                f"{CORRUPT_VALUE_MODES} or None, got {self.param!r}")
        if self.kind == "corrupt_timestamp" and self.param is not None \
                and self.param not in CORRUPT_TS_MODES:
            raise ChaosError(
                f"corrupt_timestamp param must be one of "
                f"{CORRUPT_TS_MODES} or None, got {self.param!r}")
        if self.kind == "checkpoint_corruption" and self.param is not None \
                and self.param not in ("payload", "manifest"):
            raise ChaosError(
                f"checkpoint_corruption param must be 'payload', "
                f"'manifest' or None, got {self.param!r}")

    @property
    def end(self) -> int:
        """First occurrence index past the fault window."""
        return self.at + self.count

    def one_shot(self) -> bool:
        return self.kind in ONE_SHOT_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault, recorded in the injector's trace."""

    kind: str
    site: str
    identity: str
    occurrence: int
    detail: str = ""

    def as_tuple(self) -> tuple:
        return (self.kind, self.site, self.identity, self.occurrence,
                self.detail)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded schedule of faults."""

    specs: tuple[FaultSpec, ...]
    seed: int = 0
    name: str = "plan"

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)
