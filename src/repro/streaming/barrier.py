"""Barrier alignment: the per-subtask half of coordinated checkpoints.

A :class:`~repro.streaming.element.CheckpointBarrier` flows in-band
through every channel.  A multi-channel subtask must not snapshot until
the barrier has arrived on *all* of its inputs, and must not process
post-barrier items from channels that already delivered it — otherwise
the snapshot would mix pre- and post-barrier effects and replay would
double-count.  :class:`BarrierAligner` tracks that state machine for one
subtask.  Every checkpoint is aligned: a channel that delivers barrier
*n* is *blocked* — its queued items stay buffered in the channel — until
the barrier arrives everywhere; then the subtask snapshots and the
channels unblock.  Nothing in flight is part of the snapshot (the
classic Chandy–Lamport cut: pre-barrier items are in state, post-barrier
items will be replayed from the sources).  A slow or partitioned
channel delays the checkpoint; it never changes what the checkpoint
holds.

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
from . import shuffle
from .plan import ExecutionGraph

__all__ = ["AlignmentResult", "BarrierAligner", "Cut", "ParallelCheckpoint"]

#: outcomes of feeding one barrier to the aligner
IGNORED = "ignored"        # duplicate / stale marker: drop it
BLOCKED = "blocked"        # channel now blocked, still waiting for others
COMPLETE = "complete"      # all channels aligned: snapshot now


@dataclass
class AlignmentResult:
    """What the subtask must do after one barrier arrival."""

    action: str
    checkpoint_id: int


@dataclass
class BarrierAligner:
    """Alignment state for one subtask across its input channels."""

    channels: tuple[Hashable, ...]

    current_id: int | None = None
    arrived: set = field(default_factory=set)
    pending_cycles: int = 0
    completed_id: int = -1
    #: how many cycles the most recent completed alignment waited
    last_alignment_cycles: int = 0

    def __post_init__(self) -> None:
        self.channels = tuple(self.channels)
        if not self.channels:
            raise CheckpointError("aligner needs at least one channel")

    # -- queries -------------------------------------------------------------

    def is_blocked(self, channel: Hashable) -> bool:
        """Should the subtask leave this channel's queued items alone?"""
        return self.current_id is not None and channel in self.arrived

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
        if channel in self.arrived:
            return AlignmentResult(IGNORED, checkpoint_id)  # duplicated marker
        self.arrived.add(channel)
        if len(self.arrived) == len(self.channels):
            cid = self.current_id
            self._finish()
            return AlignmentResult(COMPLETE, cid)
        return AlignmentResult(BLOCKED, checkpoint_id)

    def on_cycle(self) -> None:
        """Called once per drain cycle: an alignment in progress counts
        one more pending cycle (``checkpoint.alignment_cycles``)."""
        if self.current_id is not None:
            self.pending_cycles += 1

    def reset(self) -> None:
        """Forget any in-progress alignment (restore path)."""
        self.current_id = None
        self.arrived = set()
        self.pending_cycles = 0

    def _finish(self) -> None:
        self.completed_id = max(self.completed_id, self.current_id or -1)
        self.last_alignment_cycles = self.pending_cycles
        self.current_id = None
        self.arrived = set()
        self.pending_cycles = 0


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
    #: round-robin cursors) named by logical operator, so batched and
    #: per-item plans share it; applied on restore only when the plan
    #: shape matches (same parallelism everywhere), dropped on a rescale.
    routing_state: dict[str, Any] = field(default_factory=dict)
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
    state and data-fault counts, each channel's watermark,
    each forwarding subtask's aligned watermarks and round-robin
    cursors, each sink's pre-commit.  The coordinator finalizes it once
    :attr:`complete`.  A quiescent checkpoint is a cut filled in one
    pass, through the same state read.
    """

    def __init__(self, checkpoint_id: int, graph: ExecutionGraph,
                 sources: Any, sinks: Iterable[str]) -> None:
        self.checkpoint_id = checkpoint_id
        self.graph = graph
        #: the cut point: where the source reader stands
        self.source_positions = sources.positions()
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
        #: routing cut: the values at each channel's / subtask's cut point
        self.channel_wm: dict[tuple, dict[tuple, float]] = {}
        self.aligned_wm: dict[tuple, float] = {}
        self.rr: dict[tuple[int, int], int] = {}
        #: physical operator clone name -> data-fault records seen
        self.data_counts: dict[str, int] = {}

    @property
    def complete(self) -> bool:
        return (self.acked == self.expected_subtasks
                and self.sink_acked == self.expected_sinks)

    def checkpoint(self, sink_elements: dict[str, list]
                   ) -> ParallelCheckpoint:
        """The snapshot this cut records, with ``sink_elements`` (each
        sink's rows as of the cut) as its sink contents."""
        graph = self.graph
        parallelism = {m: len(states) for m, states in self.scalar.items()}
        parallelism.update(graph.source_parallelism)
        return ParallelCheckpoint(
            checkpoint_id=self.checkpoint_id,
            num_key_groups=shuffle.KEY_GROUPS,
            parallelism=parallelism,
            num_splits=dict(graph.source_splits),
            source_positions={s: dict(p) for s, p
                              in self.source_positions.items()},
            keyed_state={m: dict(g) for m, g in self.keyed.items()},
            scalar_state={m: list(s) for m, s in self.scalar.items()},
            sink_elements=sink_elements,
            routing_state=graph.routing_state(
                self.channel_wm, self.aligned_wm, self.rr),
            data_counts=dict(self.data_counts),
        )
