"""Barrier alignment: the per-subtask half of coordinated checkpoints.

A :class:`~repro.streaming.element.CheckpointBarrier` flows in-band
through every channel.  A multi-channel subtask must not snapshot until
the barrier has arrived on *all* of its inputs, and must not process
post-barrier items from channels that already delivered it — otherwise
the snapshot would mix pre- and post-barrier effects and replay would
double-count.  :class:`BarrierAligner` tracks that state machine for one
subtask:

- **aligned** (default): a channel that delivers barrier *n* is
  *blocked* — its queued items stay buffered in the channel — until the
  barrier arrives everywhere; then the subtask snapshots and the
  channels unblock.  Nothing in flight needs to be part of the snapshot
  (the classic Chandy–Lamport cut: pre-barrier items are in state,
  post-barrier items will be replayed from the sources).
- **unaligned escape hatch**: if alignment has been pending for more
  than ``unaligned_after`` drain cycles (slow/partitioned channel), the
  aligner gives up blocking: the snapshot is taken immediately, blocked
  channels unblock (their buffered items are post-barrier and process
  normally), and every item subsequently drained from a *lagging*
  channel — pre-barrier in-flight data the snapshot would otherwise
  lose — is **spilled** into the checkpoint's in-flight state as it is
  processed, until that channel's straggler barrier arrives and is
  swallowed.  A restore re-enqueues the spilled items (Flink's
  unaligned-checkpoint channel state).

Barrier duplication (an at-least-once channel re-delivering a marker —
see the chaos channel faults) is absorbed: a barrier id at or below the
last completed one is dropped.

:class:`Cut` is one checkpoint being cut — written by the executor as
barriers pass, or in one pass when it is quiescent — and the only code
that builds a :class:`ParallelCheckpoint`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Iterable

from ..util.errors import CheckpointError
from .plan import ExecutionGraph

__all__ = ["AlignmentResult", "BarrierAligner", "Cut", "ParallelCheckpoint"]

#: outcomes of feeding one barrier to the aligner
IGNORED = "ignored"        # duplicate / stale marker: drop it
BLOCKED = "blocked"        # channel now blocked, still waiting for others
COMPLETE = "complete"      # all channels aligned: snapshot now
SPILL = "spill"            # unaligned completion: snapshot + spill in-flight
STRAGGLER = "straggler"    # late barrier after an unaligned snapshot: the
                           # channel's spill is complete


@dataclass
class AlignmentResult:
    """What the subtask must do after one barrier arrival / cycle tick."""

    action: str
    checkpoint_id: int
    #: channels whose queued pre-barrier items must be spilled into the
    #: snapshot (unaligned completion only): the channels that had NOT
    #: yet delivered the barrier.
    spill_channels: tuple[Hashable, ...] = ()


@dataclass
class BarrierAligner:
    """Alignment state for one subtask across its input channels."""

    channels: tuple[Hashable, ...]
    #: give up blocking after this many drain cycles of partial
    #: alignment; ``None`` means align forever (pure aligned mode).
    unaligned_after: int | None = None

    current_id: int | None = None
    arrived: set = field(default_factory=set)
    pending_cycles: int = 0
    completed_id: int = -1
    #: how many cycles the most recent completed alignment waited
    last_alignment_cycles: int = 0
    #: set while an unaligned snapshot for ``current_id`` has been taken
    #: but stragglers' barriers are still due — they are swallowed.
    draining_unaligned: bool = False

    def __post_init__(self) -> None:
        self.channels = tuple(self.channels)
        if not self.channels:
            raise CheckpointError("aligner needs at least one channel")

    # -- queries -------------------------------------------------------------

    def is_blocked(self, channel: Hashable) -> bool:
        """Should the subtask leave this channel's queued items alone?"""
        return (self.current_id is not None
                and not self.draining_unaligned
                and channel in self.arrived)

    def is_spilling(self, channel: Hashable) -> bool:
        """After an unaligned snapshot, is this channel still delivering
        pre-barrier items that must be copied into the checkpoint's
        in-flight state as they are processed?"""
        return self.draining_unaligned and channel not in self.arrived

    @property
    def aligning(self) -> bool:
        return self.current_id is not None

    # -- events --------------------------------------------------------------

    def on_barrier(self, channel: Hashable,
                   checkpoint_id: int) -> AlignmentResult:
        """Barrier arrived on ``channel``.  Returns what to do."""
        if channel not in self.channels:
            raise CheckpointError(f"unknown channel {channel!r}")
        if checkpoint_id <= self.completed_id:
            return AlignmentResult(IGNORED, checkpoint_id)
        if self.current_id is None:
            self.current_id = checkpoint_id
            self.arrived = set()
            self.pending_cycles = 0
            self.draining_unaligned = False
        elif checkpoint_id < self.current_id:
            # A marker from a checkpoint the coordinator already
            # abandoned, surfacing late from a previously blocked
            # channel: drop it.
            return AlignmentResult(IGNORED, checkpoint_id)
        elif checkpoint_id > self.current_id:
            # A newer barrier overtaking an in-progress alignment means
            # the coordinator abandoned the old checkpoint; restart
            # alignment on the newer id.
            self.current_id = checkpoint_id
            self.arrived = set()
            self.pending_cycles = 0
            self.draining_unaligned = False
        if channel in self.arrived:
            return AlignmentResult(IGNORED, checkpoint_id)  # duplicated marker
        self.arrived.add(channel)
        if self.draining_unaligned:
            # Snapshot already taken unaligned; this straggler marker
            # closes the channel's spill (its pre-barrier items are all
            # in the checkpoint's in-flight state now).
            if len(self.arrived) == len(self.channels):
                self._finish()
            return AlignmentResult(STRAGGLER, checkpoint_id)
        if len(self.arrived) == len(self.channels):
            cid = self.current_id
            self._finish()
            return AlignmentResult(COMPLETE, cid)
        return AlignmentResult(BLOCKED, checkpoint_id)

    def on_cycle(self) -> AlignmentResult | None:
        """Called once per drain cycle while aligning; may trigger the
        unaligned escape hatch."""
        if self.current_id is None or self.draining_unaligned:
            return None
        self.pending_cycles += 1
        if (self.unaligned_after is not None
                and self.pending_cycles > self.unaligned_after):
            lagging = tuple(c for c in self.channels
                            if c not in self.arrived)
            self.draining_unaligned = True
            return AlignmentResult(SPILL, self.current_id,
                                   spill_channels=lagging)
        return None

    def reset(self) -> None:
        """Forget any in-progress alignment (restore path)."""
        self.current_id = None
        self.arrived = set()
        self.pending_cycles = 0
        self.draining_unaligned = False

    def _finish(self) -> None:
        self.completed_id = max(self.completed_id, self.current_id or -1)
        self.last_alignment_cycles = self.pending_cycles
        self.current_id = None
        self.arrived = set()
        self.pending_cycles = 0
        self.draining_unaligned = False


# -- the cut -----------------------------------------------------------------


@dataclass
class ParallelCheckpoint:
    """A consistent snapshot of a parallel job, portable across
    parallelism changes (keyed state by key group, sources by split)."""

    checkpoint_id: int
    num_key_groups: int
    parallelism: dict[str, int]  # logical operator/source -> width
    num_splits: dict[str, int]  # source -> split count
    source_positions: dict[str, dict[int, int]]  # source -> split -> pos
    keyed_state: dict[str, dict[int, Any]]  # op -> key group -> blob
    scalar_state: dict[str, list[Any]]  # op -> per-subtask snapshot
    #: sink -> its committed rows: the 2PC sink's sealed batches (one
    #: per committed epoch, no row copied)
    sink_elements: dict[str, list]
    #: transient routing state (channel watermarks, aligned watermarks,
    #: round-robin cursors); applied on restore only when the plan shape
    #: matches (same parallelism everywhere), dropped on a rescale.
    routing_state: dict[str, Any] = field(default_factory=dict)
    #: unaligned-checkpoint channel state: (down, idx, side, up, up_idx)
    #: -> pre-barrier items spilled from a lagging channel.  Re-enqueued
    #: on restore; non-empty in-flight state pins the plan shape (an
    #: unaligned checkpoint cannot be restored at another parallelism).
    in_flight: dict[tuple, list] = field(default_factory=dict)
    #: load-shedding tier state: active per-source shed plans plus the
    #: per-source shed counts *as of this checkpoint's cut*, so a
    #: restore rewinds shed accounting together with source positions
    #: (replayed input re-sheds the same elements, counted once).
    shed_state: dict[str, Any] = field(default_factory=dict)
    #: chaos data-fault counters at the cut (per physical operator
    #: clone; see FaultInjector.data_counts): data-fault windows name
    #: records, so a restore rewinds them and replay re-poisons the
    #: same records — keeping committed output identical to a
    #: crash-free run under the same data faults.
    data_counts: dict[str, int] = field(default_factory=dict)


class Cut:
    """One checkpoint being cut, and the one place a
    :class:`ParallelCheckpoint` is built.

    The executor opens it at its source reader's current positions,
    then writes into it as the barriers pass: each subtask's
    state and data-fault counts, each channel's watermark and spill,
    each forwarding subtask's aligned watermarks and round-robin
    cursors, each sink's pre-commit.  The coordinator finalizes it once
    :attr:`complete`.  A quiescent checkpoint is a cut filled in one
    pass, through the same state read.
    """

    def __init__(self, checkpoint_id: int, graph: ExecutionGraph,
                 sources: Any, sinks: Iterable[str]) -> None:
        self.checkpoint_id = checkpoint_id
        self.graph = graph
        #: the cut point: where the source reader stands, and its shed
        #: tier (rewound with the positions)
        self.source_positions = sources.positions()
        self.shed_state = sources.shed_state()
        self.expected_subtasks = {(name, idx) for name in graph.topo
                                  for idx in range(graph.width(name))}
        self.acked: set[tuple[str, int]] = set()
        self.expected_sinks = set(sinks)
        self.sink_acked: set[str] = set()
        #: logical operator -> key group -> blob
        self.keyed: dict[str, dict[int, Any]] = {}
        #: logical operator -> per-subtask scalar snapshot
        self.scalar: dict[str, list[Any]] = {
            m: [None] * graph.width(graph.rename[m])
            for m in graph.job.operators}
        #: unaligned in-flight state: channel key -> spilled items
        self.in_flight: dict[tuple, list] = {}
        self.open_spills: set[tuple] = set()
        #: routing cut: the values at each channel's / subtask's cut point
        self.channel_wm: dict[tuple, dict[tuple, float]] = {}
        self.aligned_wm: dict[tuple, float] = {}
        self.rr: dict[tuple[int, int], int] = {}
        #: physical operator clone name -> data-fault records seen
        self.data_counts: dict[str, int] = {}

    @property
    def complete(self) -> bool:
        return (self.acked == self.expected_subtasks
                and self.sink_acked == self.expected_sinks
                and not self.open_spills)

    @property
    def spilled_items(self) -> int:
        return sum(len(v) for v in self.in_flight.values())

    def checkpoint(self, sink_elements: dict[str, list]
                   ) -> ParallelCheckpoint:
        """The snapshot this cut records, with ``sink_elements`` (each
        sink's rows as of the cut) as its sink contents."""
        graph = self.graph
        parallelism = {m: len(states) for m, states in self.scalar.items()}
        parallelism.update(graph.source_parallelism)
        return ParallelCheckpoint(
            checkpoint_id=self.checkpoint_id,
            num_key_groups=graph.num_key_groups,
            parallelism=parallelism,
            num_splits=dict(graph.source_splits),
            source_positions={s: dict(p) for s, p
                              in self.source_positions.items()},
            keyed_state={m: dict(g) for m, g in self.keyed.items()},
            scalar_state={m: list(s) for m, s in self.scalar.items()},
            sink_elements=sink_elements,
            routing_state={
                "channel_wm": {k: dict(v)
                               for k, v in self.channel_wm.items()},
                "aligned_wm": dict(self.aligned_wm),
                "rr": dict(self.rr),
            },
            in_flight={k: list(v) for k, v in self.in_flight.items() if v},
            shed_state=dict(self.shed_state),
            data_counts=dict(self.data_counts),
        )
