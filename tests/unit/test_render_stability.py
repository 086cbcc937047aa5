"""Unit tests: temporally stable label layout (anti-bobbling)."""

import numpy as np

from repro.render import StableLayout, clutter_metrics, declutter_layout
from repro.util.geometry import Rect
from repro.util.rng import make_rng

SCREEN = Rect(0, 0, 640, 480)


def _cluster(rng, n=15, jitter=0.0, base=None):
    """n labels clustered near screen centre, optionally jittered."""
    if base is None:
        base = [(f"l{i:02d}",
                 320.0 + float(rng.uniform(-60, 60)),
                 240.0 + float(rng.uniform(-40, 40)),
                 70.0, 20.0, float(rng.uniform(1, 5)))
                for i in range(n)]
    if jitter == 0.0:
        return base
    return [(aid, x + float(rng.normal(0, jitter)),
             y + float(rng.normal(0, jitter)), w, h, p)
            for aid, x, y, w, h, p in base]


def _offsets(placed):
    """Label centre minus anchor, per placed (not dropped) label."""
    return {l.annotation_id: (l.rect.center[0] - l.anchor_x,
                              l.rect.center[1] - l.anchor_y)
            for l in placed if not l.dropped}


def _overlaps(a, b):
    """Whether two rects share area (a non-empty intersection)."""
    return (min(a.x2, b.x2) > max(a.x, b.x)
            and min(a.y2, b.y2) > max(a.y, b.y))


class TestStableLayout:
    def test_first_frame_matches_declutter_quality(self):
        rng = make_rng(0)
        items = _cluster(rng)
        stable = StableLayout(SCREEN)
        placed = stable.layout(items)
        metrics = clutter_metrics(placed, SCREEN)
        assert metrics.overlapping == 0

    def test_static_scene_zero_jitter(self):
        rng = make_rng(1)
        items = _cluster(rng)
        stable = StableLayout(SCREEN)
        placed = stable.layout(items)
        first = {l.annotation_id: l.rect for l in placed if not l.dropped}
        first_offsets = _offsets(placed)
        for _ in range(5):
            placed = stable.layout(items)
            again = {l.annotation_id: l.rect for l in placed
                     if not l.dropped}
            assert again == first
            assert _offsets(placed) == first_offsets

    def test_small_anchor_motion_labels_follow_without_reshuffle(self):
        rng = make_rng(2)
        base = _cluster(rng)
        stable = StableLayout(SCREEN)
        before = _offsets(stable.layout(base))
        moved = [(aid, x + 3.0, y, w, h, p)
                 for aid, x, y, w, h, p in base]
        placed = stable.layout(moved)
        # Offsets (anchor -> label) are unchanged: zero offset jitter.
        after = _offsets(placed)
        kept = before.keys() & after.keys()
        jitter = [np.hypot(after[a][0] - before[a][0],
                           after[a][1] - before[a][1]) for a in kept]
        assert kept and sum(jitter) / len(jitter) < 0.5
        metrics = clutter_metrics(placed, SCREEN)
        assert metrics.overlapping == 0

    def test_stable_layout_jitters_less_than_fresh_layout(self):
        rng = make_rng(3)
        base = _cluster(rng, n=18)
        stable = StableLayout(SCREEN)
        stable.layout(base)
        fresh_positions = []
        stable_positions = []
        for frame in range(8):
            frame_rng = make_rng(100 + frame)
            items = _cluster(frame_rng, jitter=2.0, base=base)
            stable_placed = {l.annotation_id: l.rect.center
                             for l in stable.layout(items)
                             if not l.dropped}
            fresh_placed = {l.annotation_id: l.rect.center
                            for l in declutter_layout(items, SCREEN)
                            if not l.dropped}
            stable_positions.append(stable_placed)
            fresh_positions.append(fresh_placed)

        def mean_frame_motion(seq):
            moves = []
            for a, b in zip(seq, seq[1:]):
                for aid in set(a) & set(b):
                    moves.append(np.hypot(b[aid][0] - a[aid][0],
                                          b[aid][1] - a[aid][1]))
            return float(np.mean(moves))

        # Anchor jitter is ~2 px; stable labels move with anchors only,
        # while fresh placement can reshuffle offsets entirely.
        stable_motion = mean_frame_motion(stable_positions)
        fresh_motion = mean_frame_motion(fresh_positions)
        assert stable_motion <= fresh_motion + 0.5

    def test_disappearing_label_frees_its_spot(self):
        rng = make_rng(4)
        base = _cluster(rng, n=6)
        stable = StableLayout(SCREEN)
        stable.layout(base)
        remaining = base[1:]
        placed = stable.layout(remaining)
        assert len(placed) == 5
        # Its offset record is pruned.
        assert base[0][0] not in stable._offsets

    def test_never_overlaps_across_hysteresis_and_fresh(self):
        rng = make_rng(5)
        stable = StableLayout(SCREEN)
        for frame in range(6):
            n = 10 + frame * 3  # growing label population
            items = _cluster(make_rng(200 + frame), n=n)
            placed = [l for l in stable.layout(items) if not l.dropped]
            for i, a in enumerate(placed):
                for b in placed[i + 1:]:
                    assert not _overlaps(a.rect, b.rect)
