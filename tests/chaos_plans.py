"""A seeded random fault schedule for the chaos sweeps.

``random_plan(seed, ...)`` draws a :class:`~repro.chaos.FaultPlan` from a
seeded RNG, so property tests sweep many scenarios while each stays
reproducible from its seed.
"""

from __future__ import annotations

from repro.chaos.plan import (
    CORRUPT_TS_MODES,
    CORRUPT_VALUE_MODES,
    DATA_FAULT_KINDS,
    RESCALE_PHASES,
    SITE_APPEND,
    SITE_BARRIER,
    SITE_CHANNEL,
    SITE_CHECKPOINT,
    SITE_COORDINATOR,
    SITE_DATA,
    SITE_FETCH,
    SITE_OFFLOAD,
    SITE_OPERATOR,
    SITE_RESCALE,
    SITE_STALL,
    SITE_STORE,
    STORE_PHASES,
    FaultPlan,
    FaultSpec,
)
from repro.util.errors import ChaosError
from repro.util.rng import make_rng


def random_plan(seed: int, *, horizon: int,
                operators: tuple[str, ...] | list[str] = (),
                tiers: tuple[str, ...] | list[str] = (),
                brokers: tuple[int, ...] | list[int] = (),
                crashes: int = 2,
                torn_appends: int = 1,
                unavailable_windows: int = 1,
                duplicate_deliveries: int = 1,
                broker_outages: int = 0,
                task_timeouts: int = 1,
                tier_dropouts: int = 0,
                channel_faults: int = 0,
                barrier_crashes: int = 0,
                coordinator_crashes: int = 0,
                stalls: int = 0,
                rescale_crashes: int = 0,
                store_crashes: int = 0,
                data_faults: int = 0,
                checkpoint_corruptions: int = 0,
                name: str = "random") -> FaultPlan:
    """Draw a deterministic schedule from ``seed``.

    ``horizon`` bounds every ``at`` index — pick roughly the number
    of events flowing through the system so faults actually land.
    Categories without a target pool (no ``operators`` for crashes,
    no ``brokers`` for outages, ...) are silently skipped, so one
    generator serves single-layer and whole-system tests alike.
    """
    if horizon < 1:
        raise ChaosError("horizon must be >= 1")
    rng = make_rng((int(seed), 0xC4A05))
    specs: list[FaultSpec] = []

    def _at() -> int:
        return int(rng.integers(0, horizon))

    def _window() -> int:
        return int(rng.integers(1, max(2, horizon // 4)))

    if operators:
        for _ in range(crashes):
            target = str(operators[int(rng.integers(len(operators)))])
            specs.append(FaultSpec("operator_crash", SITE_OPERATOR,
                                   at=_at(), target=target))
    for _ in range(torn_appends):
        specs.append(FaultSpec("torn_append", SITE_APPEND, at=_at()))
    for _ in range(unavailable_windows):
        site = SITE_APPEND if rng.random() < 0.5 else SITE_FETCH
        specs.append(FaultSpec("partition_unavailable", site,
                               at=_at(), count=_window()))
    for _ in range(duplicate_deliveries):
        specs.append(FaultSpec("duplicate_delivery", SITE_FETCH,
                               at=_at(),
                               param=int(rng.integers(1, 4))))
    if brokers:
        for _ in range(broker_outages):
            broker = int(brokers[int(rng.integers(len(brokers)))])
            specs.append(FaultSpec("broker_down", SITE_APPEND, at=_at(),
                                   count=_window(), param=broker))
    for _ in range(task_timeouts):
        target = (str(tiers[int(rng.integers(len(tiers)))])
                  if tiers else None)
        specs.append(FaultSpec("task_timeout", SITE_OFFLOAD, at=_at(),
                               count=int(rng.integers(1, 3)),
                               target=target))
    if tiers:
        for _ in range(tier_dropouts):
            target = str(tiers[int(rng.integers(len(tiers)))])
            specs.append(FaultSpec("tier_dropout", SITE_OFFLOAD,
                                   at=_at(), target=target))
    _channel_kinds = ("channel_delay", "channel_duplicate",
                     "channel_reorder", "channel_partition")
    for _ in range(channel_faults):
        kind = _channel_kinds[int(rng.integers(len(_channel_kinds)))]
        specs.append(FaultSpec(kind, SITE_CHANNEL, at=_at(),
                               count=int(rng.integers(1, 3)),
                               param=int(rng.integers(1, 4))))
    if operators:
        for _ in range(barrier_crashes):
            target = str(operators[int(rng.integers(len(operators)))])
            specs.append(FaultSpec("barrier_crash", SITE_BARRIER,
                                   at=_at(), target=target))
    for _ in range(coordinator_crashes):
        specs.append(FaultSpec("coordinator_crash", SITE_COORDINATOR,
                               at=_at()))
    for _ in range(rescale_crashes):
        phase = RESCALE_PHASES[int(rng.integers(len(RESCALE_PHASES)))]
        # rescale attempts are rare events: keep `at` small so the
        # crash lands on an attempt that actually happens
        specs.append(FaultSpec("rescale_crash", SITE_RESCALE,
                               at=int(rng.integers(0, 3)),
                               target=phase))
    for _ in range(store_crashes):
        phase = STORE_PHASES[int(rng.integers(len(STORE_PHASES)))]
        # an epoch apply happens once per finalized checkpoint —
        # keep `at` small so the crash lands on a real apply
        specs.append(FaultSpec("store_crash", SITE_STORE,
                               at=int(rng.integers(0, 4)),
                               target=phase))
    if operators:
        for _ in range(stalls):
            target = str(operators[int(rng.integers(len(operators)))])
            specs.append(FaultSpec("subtask_stall", SITE_STALL,
                                   at=_at(),
                                   count=int(rng.integers(2, 6)),
                                   target=target))
    if operators:
        for _ in range(data_faults):
            kind = DATA_FAULT_KINDS[
                int(rng.integers(len(DATA_FAULT_KINDS)))]
            if kind == "corrupt_value":
                param: str | None = CORRUPT_VALUE_MODES[
                    int(rng.integers(len(CORRUPT_VALUE_MODES)))]
            elif kind == "corrupt_timestamp":
                param = CORRUPT_TS_MODES[
                    int(rng.integers(len(CORRUPT_TS_MODES)))]
            else:
                param = None
            target = str(operators[int(rng.integers(len(operators)))])
            specs.append(FaultSpec(kind, SITE_DATA, at=_at(),
                                   count=int(rng.integers(1, 4)),
                                   target=target, param=param))
    for _ in range(checkpoint_corruptions):
        mode = "payload" if rng.random() < 0.5 else "manifest"
        # checkpoints finalize a handful of times per run — keep
        # `at` small so the rot lands on one that actually commits
        specs.append(FaultSpec("checkpoint_corruption",
                               SITE_CHECKPOINT,
                               at=int(rng.integers(0, 4)),
                               param=mode))
    specs.sort(key=lambda s: (s.site, s.at, s.kind, s.target or ""))
    return FaultPlan(specs=tuple(specs), seed=int(seed), name=name)
