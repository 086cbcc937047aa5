"""Checkpoint coordination: barriers in, manifests out, regions back.

The :class:`CheckpointCoordinator` drives Chandy–Lamport snapshots of a
running :class:`~repro.streaming.execution.ParallelExecutor` *without*
waiting for quiescence: the executor opens a
:class:`~repro.streaming.barrier.Cut`, injects numbered
:class:`~repro.streaming.element.CheckpointBarrier` markers at every
source subtask and writes the cut as they pass (alignment rules in
:mod:`repro.streaming.barrier`, 2PC acks from
:mod:`repro.streaming.txn_sink`).  Once every subtask and sink has
reported, the coordinator **finalizes** it: the cut's
:class:`~repro.streaming.barrier.ParallelCheckpoint` and its manifest
are committed to the :class:`CheckpointStore` atomically, sinks commit
phase 2, listeners (event-log mirrors) are notified, and superseded
checkpoints are pruned.

A coordinator crash (:class:`~repro.util.errors.CoordinatorDown`,
injectable) abandons the in-progress checkpoint; the 2PC abort demotes
sink pre-commits back into the open transaction, so nothing is lost and
nothing becomes visible early.  A rebuilt coordinator resumes from the
last *finalized* manifest — pending manifests are recovery debris, never
restore targets.

The module also houses the two failure-handling companions:

- :class:`HeartbeatMonitor` — a deadline failure detector over
  :class:`~repro.util.clock.SimClock`.  Subtasks beat once per macro
  cycle; a subtask that misses ``timeout_s`` of beats is declared dead
  even if it never raised (the *fail-silent* case the
  ``subtask_stall`` chaos fault exercises).
- :func:`failover_regions` — partitions the physical plan into regions
  that must restart together: the weakly connected components of the
  execution graph.  No operator edge is backed by a durable log, so a
  region is never cut inside a component.  Regional recovery restores
  only the dead subtask's region and replays strictly less input than
  a whole-job restart.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable

from ..util.clock import SimClock
from ..util.errors import CheckpointError
from .barrier import ParallelCheckpoint
from .operators import logical_name, subtask_name
from .plan import ExecutionGraph

#: simulated seconds one macro cycle takes (the autoscaler's load model
#: reads source timestamps as arrival times on the same scale)
CYCLE_SECONDS = 1.0
#: Drain cycles a savepoint may take before it is declared stuck (a
#: blocked channel or a stalled subtask).
SAVEPOINT_MAX_CYCLES = 256

__all__ = [
    "CheckpointManifest",
    "CheckpointStore",
    "CheckpointCoordinator",
    "HeartbeatMonitor",
    "HEARTBEAT_TIMEOUT_S",
    "failover_regions",
    "failover_region_of",
]

PENDING = "pending"
FINALIZED = "finalized"
ABORTED = "aborted"

#: simulated seconds without a beat before a :class:`HeartbeatMonitor`
#: declares a member dead: a subtask (every live one beats once a macro
#: cycle of ``CYCLE_SECONDS``) or, in ``geo/``, a region
HEARTBEAT_TIMEOUT_S = 5.0


def _digest(obj: Any) -> str:
    """Content digest of a snapshot payload.

    Pickle gives a stable byte encoding for ordinary checkpoint state
    (dicts keep insertion order, so re-digesting the same object
    reproduces the bytes); state holding unpicklable objects (bound
    lambdas in exotic operator snapshots) falls back to ``repr``, which
    is equally stable within one process — the only scope where a
    digest is ever re-checked.
    """
    try:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        payload = repr(obj).encode("utf-8", "replace")
    return hashlib.sha256(payload).hexdigest()


def _manifest_checksum(manifest: "CheckpointManifest") -> str:
    """Checksum over every manifest field except the checksum itself."""
    record = manifest.as_dict()
    record.pop("checksum", None)
    encoded = repr(sorted(record.items())).encode("utf-8", "replace")
    return hashlib.sha256(encoded).hexdigest()


@dataclass
class CheckpointManifest:
    """The durable record of one checkpoint attempt.

    Only a manifest whose status is ``finalized`` names a restorable
    checkpoint; a ``pending`` or ``aborted`` manifest is an attempt that
    never completed (crash debris) and is skipped by recovery.
    """

    checkpoint_id: int
    status: str = PENDING
    started_at: float = 0.0
    finalized_at: float | None = None
    #: source -> split -> position at barrier injection (the cut point)
    source_positions: dict[str, dict[int, int]] = field(default_factory=dict)
    acked_subtasks: list[str] = field(default_factory=list)
    acked_sinks: list[str] = field(default_factory=list)
    #: sha256 of the snapshot payload, recorded at finalize — restore
    #: re-derives it to detect bit-rot/truncation before trusting state
    payload_digest: str | None = None
    #: sha256 over the manifest's own fields (metadata self-check)
    checksum: str | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "checkpoint_id": self.checkpoint_id,
            "status": self.status,
            "started_at": self.started_at,
            "finalized_at": self.finalized_at,
            "source_positions": {s: dict(p)
                                 for s, p in self.source_positions.items()},
            "acked_subtasks": list(self.acked_subtasks),
            "acked_sinks": list(self.acked_sinks),
            "payload_digest": self.payload_digest,
            "checksum": self.checksum,
        }


class CheckpointStore:
    """Manifest-backed checkpoint storage with pruning.

    ``finalize`` is the atomic commit point: the manifest flips to
    ``finalized`` and the snapshot becomes ``latest()`` in one step —
    there is no observable state where the snapshot exists without its
    manifest.  Superseded snapshots are pruned (their manifests stay, as
    aborted/finalized history), so storage holds one live checkpoint.

    **Retain watermark.**  Downstream consumers that apply committed
    epochs asynchronously (a serving-store sink, regional recovery) may
    still need to rewind to an old checkpoint.  They register here and
    report ``last_applied_epoch``; pruning never deletes a snapshot at
    or above the minimum of those watermarks, regardless of ``keep``.
    Before this, a fast checkpoint cadence could prune the very
    manifest a lagging consumer needed for replay, turning its next
    restore into data loss.
    """

    def __init__(self, keep: int = 1) -> None:
        if keep < 1:
            raise CheckpointError("store must keep at least one checkpoint")
        self.keep = keep
        self._snapshots: dict[int, ParallelCheckpoint] = {}
        self.manifests: dict[int, CheckpointManifest] = {}
        self.pruned = 0
        #: checkpoint ids that failed verification: never restore
        #: targets again, never counted against ``keep``
        self.quarantined: set[int] = set()
        #: verification failures detected (each id counted once)
        self.integrity_failures = 0
        #: consumer name -> last checkpoint epoch it fully applied
        self._consumers: dict[str, int] = {}
        #: highest id ever recorded or finalized (``manifests`` keeps
        #: the whole history; this spares scanning it per trigger)
        self._last_id = 0

    # -- consumer watermarks --------------------------------------------------

    def register_consumer(self, name: str,
                          last_applied_epoch: int = 0) -> None:
        """A downstream consumer announces it may rewind to any
        checkpoint >= its last applied epoch (0 = retain everything)."""
        current = self._consumers.get(name)
        if current is None or last_applied_epoch > current:
            self._consumers[name] = int(last_applied_epoch)

    def consumer_applied(self, name: str, checkpoint_id: int) -> None:
        """Advance a consumer's watermark (monotonic) and re-run
        pruning — an advancing consumer releases retained snapshots."""
        if name not in self._consumers:
            raise CheckpointError(f"unknown consumer {name!r}")
        if checkpoint_id > self._consumers[name]:
            self._consumers[name] = int(checkpoint_id)
            self._prune()

    def retain_watermark(self) -> int | None:
        """Oldest epoch any registered consumer may still rewind to,
        or ``None`` when no consumers are registered."""
        if not self._consumers:
            return None
        return min(self._consumers.values())

    def record(self, manifest: CheckpointManifest) -> None:
        """Register a pending manifest (checkpoint attempt started)."""
        self.manifests[manifest.checkpoint_id] = manifest
        self._last_id = max(self._last_id, manifest.checkpoint_id)

    def finalize(self, checkpoint: ParallelCheckpoint,
                 manifest: CheckpointManifest) -> None:
        if manifest.checkpoint_id != checkpoint.checkpoint_id:
            raise CheckpointError("manifest/checkpoint id mismatch")
        recorded = self.manifests.get(manifest.checkpoint_id)
        if manifest.status == ABORTED or (recorded is not None
                                          and recorded.status == ABORTED):
            # The 2PC abort already demoted the sinks' pre-commits;
            # committing the snapshot now would resurrect a transaction
            # everyone else rolled back.
            raise CheckpointError(
                f"checkpoint {manifest.checkpoint_id} was aborted and "
                "cannot be finalized")
        manifest.status = FINALIZED
        manifest.payload_digest = _digest(checkpoint)
        manifest.checksum = _manifest_checksum(manifest)
        self.manifests[manifest.checkpoint_id] = manifest
        self._last_id = max(self._last_id, manifest.checkpoint_id)
        self._snapshots[checkpoint.checkpoint_id] = checkpoint
        self._prune()

    def abort(self, checkpoint_id: int) -> None:
        manifest = self.manifests.get(checkpoint_id)
        if manifest is not None and manifest.status == PENDING:
            manifest.status = ABORTED

    # -- integrity -----------------------------------------------------------

    def verify(self, checkpoint_id: int) -> bool:
        """Does this retained checkpoint still match what was committed?

        Checks the manifest's self-checksum and re-derives the snapshot
        payload digest.  A checkpoint without both records (never
        finalized, pruned, or pre-integrity legacy data) fails closed.
        """
        manifest = self.manifests.get(checkpoint_id)
        snapshot = self._snapshots.get(checkpoint_id)
        if manifest is None or snapshot is None:
            return False
        if manifest.status != FINALIZED:
            return False
        if manifest.checksum != _manifest_checksum(manifest):
            return False
        return manifest.payload_digest == _digest(snapshot)

    def corrupt(self, checkpoint_id: int, mode: str = "payload") -> None:
        """Chaos helper: silently damage a retained checkpoint.

        ``payload`` mangles the snapshot object (models bit-rot in the
        state blob); ``manifest`` overwrites the manifest checksum
        (models a torn metadata write).  Detection happens at restore,
        exactly like real corruption.
        """
        if checkpoint_id not in self._snapshots:
            raise CheckpointError(
                f"no retained snapshot for checkpoint {checkpoint_id}")
        if mode == "payload":
            self._snapshots[checkpoint_id] = (  # type: ignore[assignment]
                "\x00corrupt", self._snapshots[checkpoint_id])
        elif mode == "manifest":
            self.manifests[checkpoint_id].checksum = "0" * 64
        else:
            raise CheckpointError(f"unknown corruption mode {mode!r}")

    def latest(self) -> ParallelCheckpoint | None:
        """Newest retained checkpoint that passes verification.

        A corrupt newest checkpoint is quarantined (counted once) and
        recovery falls back to the next-newest verifiable snapshot —
        the reason ``keep >= 2`` matters on deployments that fear
        storage rot.  Returns ``None`` only when nothing verifies.
        """
        for cid in sorted(self._snapshots, reverse=True):
            if cid in self.quarantined:
                continue
            if self.verify(cid):
                return self._snapshots[cid]
            self.quarantined.add(cid)
            self.integrity_failures += 1
        return None

    def snapshot(self, checkpoint_id: int) -> ParallelCheckpoint | None:
        """A specific retained snapshot (None once pruned)."""
        return self._snapshots.get(checkpoint_id)

    def retained_ids(self) -> list[int]:
        return sorted(self._snapshots)

    def next_checkpoint_id(self) -> int:
        """Ids keep increasing across coordinator incarnations: a
        rebuilt coordinator must never reuse an id a dead one claimed."""
        return self._last_id + 1

    def _prune(self) -> None:
        watermark = self.retain_watermark()
        # Quarantined snapshots never count against ``keep``: pruning
        # must not let a corrupt newest checkpoint push out the healthy
        # fallback that recovery would need.
        healthy = [cid for cid in sorted(self._snapshots)
                   if cid not in self.quarantined]
        while len(healthy) > self.keep:
            victim = healthy[0]
            if watermark is not None and victim >= watermark:
                # A registered consumer may still rewind here; keep the
                # snapshot (and everything newer) until it catches up.
                break
            healthy.pop(0)
            del self._snapshots[victim]
            self.pruned += 1
        if healthy:
            # Quarantined debris older than the oldest healthy snapshot
            # can never be a restore target; reclaim it.
            for cid in [c for c in self._snapshots
                        if c in self.quarantined and c < healthy[0]]:
                del self._snapshots[cid]
                self.pruned += 1


class HeartbeatMonitor:
    """Deadline failure detector: who has not beaten lately?"""

    def __init__(self, clock: SimClock,
                 timeout_s: float = HEARTBEAT_TIMEOUT_S) -> None:
        if timeout_s <= 0:
            raise CheckpointError("heartbeat timeout must be positive")
        self.clock = clock
        self.timeout_s = timeout_s
        self._last: dict[str, float] = {}

    def register(self, subtask: str) -> None:
        self._last.setdefault(subtask, self.clock.now)

    def beat(self, subtask: str) -> None:
        self._last[subtask] = self.clock.now

    def dead(self) -> list[str]:
        """Subtasks whose last beat is older than the timeout."""
        now = self.clock.now
        return sorted(s for s, t in self._last.items()
                      if now - t > self.timeout_s)

    def reset(self, subtask: str) -> None:
        """A recovered subtask starts a fresh deadline."""
        self._last[subtask] = self.clock.now


class CheckpointCoordinator:
    """Paces checkpoints, finalizes them atomically, commits the sinks.

    Attach to a :class:`~repro.streaming.execution.ParallelExecutor`
    (whose sinks are all 2PC participants); the executor then calls
    :meth:`on_cycle_start` / :meth:`on_cycle_end` from its run loop.
    :meth:`trigger` has the executor open a cut, which the executor
    writes as its barriers pass; :meth:`maybe_finalize` commits it once
    complete.  One checkpoint is in progress at a time;
    ``interval_cycles`` paces triggers.
    """

    def __init__(self, executor: Any, *,
                 store: CheckpointStore | None = None,
                 clock: SimClock | None = None,
                 interval_cycles: int = 4,
                 injector: Any = None,
                 metrics: Any = None) -> None:
        if interval_cycles < 1:
            raise CheckpointError("interval_cycles must be >= 1")
        self.executor = executor
        self.store = store if store is not None else CheckpointStore()
        self.clock = clock if clock is not None else SimClock()
        self.interval_cycles = interval_cycles
        self.injector = injector
        self.metrics = metrics
        self.monitor = HeartbeatMonitor(self.clock)
        #: commit listeners: f(checkpoint_id, sink_name, sink) — the
        #: committed sink itself: ``len(sink)`` rows, ``rows_from(n)``
        #: the rows past ``n`` as one undecoded batch, ``elements`` the
        #: decoded list
        self.listeners: list[Callable[[int, str, Any], Any]] = []
        self._cycles_since_trigger = 0
        self.finalized = 0
        self.aborted = 0
        executor.attach_coordinator(self)
        for name in executor.graph.topo:
            for idx in range(executor.graph.nodes[name].parallelism):
                self.monitor.register(subtask_name(name, idx))

    # -- pacing (driven by the executor's run loop) --------------------------

    def on_cycle_start(self) -> None:
        """Called once per macro cycle, after sources pulled.  Triggers
        a new checkpoint when due and none is in progress."""
        self._cycles_since_trigger += 1
        if (self.in_progress is None
                and self._cycles_since_trigger >= self.interval_cycles):
            self.trigger()

    def on_cycle_end(self) -> None:
        """Advance simulated time, then try to finalize."""
        self.clock.advance(CYCLE_SECONDS)
        self.maybe_finalize()

    @property
    def in_progress(self) -> int | None:
        """Checkpoint id of the executor's open cut, or None (one
        checkpoint in progress at a time is a coordinator invariant)."""
        cut = self.executor.cut
        return cut.checkpoint_id if cut is not None else None

    # -- trigger -------------------------------------------------------------

    def trigger(self) -> int:
        """Start checkpoint N: the executor opens its cut and injects
        barriers at every source subtask (finished and empty splits
        included — every channel must carry the marker); a pending
        manifest records the cut's source positions."""
        if self.in_progress is not None:
            raise CheckpointError(
                f"checkpoint {self.in_progress} still in progress")
        cid = self.store.next_checkpoint_id()
        cut = self.executor.open_cut(cid)
        self.store.record(CheckpointManifest(
            checkpoint_id=cid, started_at=self.clock.now,
            source_positions=cut.source_positions))
        self._cycles_since_trigger = 0
        if self.metrics is not None:
            self.metrics.counter("coordinator.triggered").inc()
        return cid

    # -- finalize / abort ----------------------------------------------------

    def maybe_finalize(self) -> ParallelCheckpoint | None:
        executor = self.executor
        cut = executor.cut
        if cut is None or not cut.complete:
            return None
        cid = cut.checkpoint_id
        if self.injector is not None:
            # May raise CoordinatorDown: the crash-point *before* the
            # atomic commit — the checkpoint is lost, sinks must abort.
            self.injector.before_finalize(cid)
        checkpoint = cut.checkpoint({
            name: sink.projected_committed(cid)
            for name, sink in executor.sinks.items()})
        manifest = self.store.manifests[cid]
        manifest.finalized_at = self.clock.now
        manifest.acked_subtasks = sorted(subtask_name(n, i)
                                         for n, i in cut.acked)
        manifest.acked_sinks = sorted(cut.sink_acked)
        # Atomic commit point: manifest + snapshot become visible
        # together, then phase 2 runs.  A crash after this line loses
        # nothing — recovery restores checkpoint N and the sinks'
        # recorded (projected) output already includes transaction N.
        self.store.finalize(checkpoint, manifest)
        if self.injector is not None:
            # Storage-rot chaos site: the checkpoint committed cleanly,
            # then the stored bytes went bad.  Detection is restore's
            # job, so the hook fires after the atomic commit.
            after = getattr(self.injector, "after_finalize", None)
            if after is not None:
                after(self.store, cid)
        executor.cut = None
        self.finalized += 1
        for name, sink in executor.sinks.items():
            sink.commit(cid)
            for listener in self.listeners:
                listener(cid, name, sink)
        duration = self.clock.now - manifest.started_at
        if self.metrics is not None:
            self.metrics.counter("coordinator.finalized").inc()
            self.metrics.summary("checkpoint.duration_s").observe(duration)
            self.metrics.gauge("checkpoint.latest_id").set(cid)
        executor.on_checkpoint_finalized(cid, duration)
        return checkpoint

    def abandon_pending(self) -> None:
        """Abort the in-progress checkpoint, if any (2PC abort): sinks
        demote their pre-committed transactions, the manifest is marked
        aborted."""
        cut, self.executor.cut = self.executor.cut, None
        if cut is None:
            return
        cid = cut.checkpoint_id
        for sink in self.executor.sinks.values():
            sink.abort_pending(cid)
        self.store.abort(cid)
        self.aborted += 1
        if self.metrics is not None:
            self.metrics.counter("coordinator.aborted").inc()

    def on_executor_restored(self) -> None:
        """The executor rewound (full or regional): any in-progress
        checkpoint is meaningless now."""
        self.abandon_pending()
        self._cycles_since_trigger = 0

    # -- the one drive-to-finalize loop --------------------------------------

    def savepoint(self) -> ParallelCheckpoint:
        """Stop-with-savepoint, and the end-of-job commit: finish any
        checkpoint already in progress, then cut a fresh one and drain
        until it finalizes, so the transactional sinks' committed output
        is everything processed so far.  Drain cycles move in-flight
        data and barriers without pulling source input, so a running job
        does not stop.  Returns the newest verifiable checkpoint — the
        fresh cut unless storage rot quarantined it, then the fallback
        recovery would use."""
        cid = None
        for _ in range(SAVEPOINT_MAX_CYCLES):
            if self.in_progress is None:
                if cid is not None:
                    break
                cid = self.trigger()
            self.executor.drain_for_coordinator()
            self.on_cycle_end()
        if cid is None or self.in_progress is not None:
            raise CheckpointError(
                f"savepoint did not finalize within {SAVEPOINT_MAX_CYCLES} "
                "drain cycles: barriers are stuck (blocked channel or "
                "stalled subtask)")
        latest = self.store.latest()
        if latest is None:
            raise CheckpointError(
                f"no checkpoint verifies after savepoint {cid}")
        return latest


# -- failover regions --------------------------------------------------------


def failover_regions(graph: ExecutionGraph) -> list[set[str]]:
    """Partition the physical plan into restart units.

    Two nodes share a region when a physical edge connects them, in
    either direction: a failed subtask invalidates everything downstream
    of it (missing/partial output) and everything upstream feeding it
    (their emitted-but-unprocessed output is lost in the failed node's
    channels).  The regions are the connected components of the plan,
    sorted by their smallest member.
    """
    names = (set(graph.source_parallelism) | set(graph.nodes)
             | set(graph.job.sinks))
    parent = {n: n for n in names}

    def find(n: str) -> str:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for edge in graph.edges:
        union(edge.up, edge.down)
    regions: dict[str, set[str]] = {}
    for n in names:
        regions.setdefault(find(n), set()).add(n)
    return sorted(regions.values(), key=lambda r: min(r))


def failover_region_of(graph: ExecutionGraph, op_name: str) -> set[str]:
    """The region containing ``op_name`` — a logical operator, a
    physical subtask (``"window_sum[1]"``), a fused chain (logical
    ``"chain(a+b)"`` or a physical instance ``"chain(a[0]+b[0])"``), a
    source or a sink."""
    base = op_name
    if base.startswith("chain(") and base.endswith(")"):
        # all chain members share a region (they are directly wired),
        # so any one of them resolves it
        base = base[len("chain("):-1].split("+")[0]
    base = logical_name(base)
    node = graph.rename.get(base, base)
    for region in failover_regions(graph):
        if node in region:
            return region
    raise CheckpointError(
        f"{op_name!r} does not name a node in the plan")
