"""BarrierAligner: the per-subtask checkpoint-alignment state machine."""

import pytest

from repro.streaming.barrier import (
    BLOCKED,
    COMPLETE,
    IGNORED,
    BarrierAligner,
)
from repro.util.errors import CheckpointError

A, B = "chan-a", "chan-b"


class TestAlignedMode:
    def test_single_channel_completes_immediately(self):
        aligner = BarrierAligner((A,))
        result = aligner.on_barrier(A, 1)
        assert result.action == COMPLETE
        assert result.checkpoint_id == 1
        assert aligner.completed_id == 1
        assert aligner.current_id is None

    def test_two_channels_block_then_complete(self):
        aligner = BarrierAligner((A, B))
        first = aligner.on_barrier(A, 1)
        assert first.action == BLOCKED
        assert aligner.is_blocked(A)
        assert not aligner.is_blocked(B)
        second = aligner.on_barrier(B, 1)
        assert second.action == COMPLETE
        assert not aligner.is_blocked(A)

    def test_successive_checkpoints(self):
        aligner = BarrierAligner((A, B))
        aligner.on_barrier(A, 1)
        aligner.on_barrier(B, 1)
        assert aligner.on_barrier(B, 2).action == BLOCKED
        assert aligner.on_barrier(A, 2).action == COMPLETE
        assert aligner.completed_id == 2

    def test_unknown_channel_rejected(self):
        aligner = BarrierAligner((A,))
        with pytest.raises(CheckpointError):
            aligner.on_barrier(B, 1)

    def test_no_channels_rejected(self):
        with pytest.raises(CheckpointError):
            BarrierAligner(())


class TestMarkerDuplication:
    """An at-least-once channel may re-deliver markers; they must be
    absorbed, never double-counted."""

    def test_duplicate_during_alignment_ignored(self):
        aligner = BarrierAligner((A, B))
        aligner.on_barrier(A, 1)
        assert aligner.on_barrier(A, 1).action == IGNORED
        assert aligner.on_barrier(B, 1).action == COMPLETE

    def test_stale_marker_after_completion_ignored(self):
        aligner = BarrierAligner((A, B))
        aligner.on_barrier(A, 1)
        aligner.on_barrier(B, 1)
        assert aligner.on_barrier(A, 1).action == IGNORED
        assert aligner.on_barrier(B, 0).action == IGNORED

    def test_marker_below_current_alignment_ignored(self):
        aligner = BarrierAligner((A, B))
        aligner.on_barrier(A, 3)
        # a marker from checkpoint 2 surfacing late: the coordinator
        # already abandoned it, drop without disturbing alignment of 3
        assert aligner.on_barrier(B, 2).action == IGNORED
        assert aligner.on_barrier(B, 3).action == COMPLETE


class TestOvertakingBarrier:
    def test_newer_barrier_restarts_alignment(self):
        aligner = BarrierAligner((A, B))
        aligner.on_barrier(A, 1)
        # coordinator abandoned 1 and triggered 2; the new marker
        # restarts alignment rather than mixing epochs
        assert aligner.on_barrier(A, 2).action == BLOCKED
        assert aligner.on_barrier(B, 2).action == COMPLETE
        assert aligner.completed_id == 2


class TestUnalignedEscapeHatch:
    """There is none: a checkpoint is always aligned, and a cycle tick
    only counts how long an alignment has waited."""

    def test_no_timeout_in_pure_aligned_mode(self):
        aligner = BarrierAligner((A, B))
        aligner.on_barrier(A, 1)
        for _ in range(50):
            aligner.on_cycle()
        assert aligner.is_blocked(A)
        assert aligner.pending_cycles == 50
        assert aligner.on_barrier(B, 1).action == COMPLETE
        assert aligner.last_alignment_cycles == 50

    def test_on_cycle_idle_without_alignment(self):
        aligner = BarrierAligner((A, B))
        aligner.on_cycle()
        assert aligner.pending_cycles == 0


class TestReset:
    def test_reset_forgets_alignment(self):
        aligner = BarrierAligner((A, B))
        aligner.on_barrier(A, 5)
        aligner.reset()
        assert aligner.current_id is None
        assert not aligner.is_blocked(A)
        # restore rewinds below completed ids; a fresh barrier 5 must
        # still be ignored only if it was *completed*, not just seen
        assert aligner.on_barrier(A, 5).action == BLOCKED

    def test_alignment_cycles_recorded(self):
        aligner = BarrierAligner((A, B))
        aligner.on_barrier(A, 1)
        aligner.on_cycle()
        aligner.on_cycle()
        aligner.on_barrier(B, 1)
        assert aligner.last_alignment_cycles == 2
