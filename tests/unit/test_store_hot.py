"""Log-structured hot store: memtable/runs, compaction, TTL, latest-N.

Every structural path (pure memtable, flushed runs, compacted tiers,
expired rows) is pinned against a brute-force model: a plain dict of
``key -> [(ts, value), ...]`` sorted newest-first.  If `latest` ever
disagrees with the model the store lost or reordered a version.
"""

import math

import pytest

from repro.store import HotShard, HotStore, TieredStore, key_repr
from repro.store import hot as hot_module
from repro.streaming.element import Element
from repro.streaming.shuffle import key_group_for, subtask_for_key_group
from repro.util.clock import SimClock
from repro.util.errors import StoreError
from repro.util.rng import make_rng


def _order(ts):
    """NaN is older than every finite timestamp (it orders as -inf)."""
    return ts if ts == ts else -math.inf


def _model(applied, min_ts=None):
    """Brute force: key -> live versions newest-first (ties: later apply
    wins), every version of every key sorted from scratch."""
    by_key = {}
    for seq, (kr, ts, value) in enumerate(applied):
        if min_ts is None or _order(ts) >= min_ts:
            by_key.setdefault(kr, []).append((_order(ts), seq, ts, value))
    return {
        kr: [(ts, v) for _o, _s, ts, v in
             sorted(rows, key=lambda r: (-r[0], -r[1]))]
        for kr, rows in by_key.items()
    }


def _canon(versions):
    """NaN != NaN, so compare timestamps by repr."""
    return [(repr(ts), value) for ts, value in versions]


def _canon_contents(contents):
    return {kr: _canon(versions) for kr, versions in contents.items()}


def _random_rows(rng, n, keys):
    return [(key_repr(f"k-{rng.integers(keys)}"),
             float(rng.uniform(0, 1000)), int(rng.integers(10**6)))
            for _ in range(n)]


_SPECIAL_TS = (math.inf, -math.inf, math.nan)


def _adversarial_rows(rng, n, keys):
    """Event times out of order, equal (a 30-value grid), +-inf and NaN."""
    rows = []
    for _ in range(n):
        if rng.random() < 0.2:
            ts = _SPECIAL_TS[int(rng.integers(3))]
        else:
            ts = float(rng.integers(30)) * 4.0
        rows.append((key_repr(f"k-{rng.integers(keys)}"), ts,
                     int(rng.integers(10**6))))
    return rows


class TestHotShard:
    def test_latest_matches_model_across_structures(self):
        """Seeded property test: whatever the split between memtable and
        runs, and with TTL on or off, ``latest`` and ``contents`` are
        the brute-force model's."""
        for seed in range(24):
            rng = make_rng(seed)
            epochs = [_adversarial_rows(rng, int(rng.integers(1, 12)),
                                        keys=5) for _ in range(12)]
            ttl_s = 70.0 if seed % 2 else None
            applied = [row for rows in epochs for row in rows]
            # the clock ends at 120, so TTL keeps order_ts >= 50
            model = _model(applied, None if ttl_s is None else 50.0)
            expected = {kr: _canon(v) for kr, v in model.items()}
            for limit in (1, 3, 4096):
                clock = SimClock()
                shard = HotShard(0, clock=clock, ttl_s=ttl_s,
                                 memtable_limit=limit, tier_fanout=3)
                for epoch, rows in enumerate(epochs, 1):
                    shard.apply_epoch(epoch, rows)
                    shard.maintain()
                    clock.advance(10.0)
                where = f"seed {seed} memtable_limit {limit}"
                assert _canon_contents(shard.contents()) == expected, where
                for i in range(5):
                    versions = expected.get(key_repr(f"k-{i}"), [])
                    for n in (1, 3, len(applied)):
                        assert _canon(shard.latest(f"k-{i}", n)) \
                            == versions[:n], where

    def test_discarded_stage_leaves_no_trace(self):
        """stage -> discard -> re-stage -> install: no list of a token
        that is never installed is shared with the live memtable or
        with another token."""
        a, b, c = key_repr("a"), key_repr("b"), key_repr("c")
        first = [(a, 5.0, "a5"), (b, 5.0, "b5")]
        # a: in order after the resident tail; b: older than it; c: new
        second = [(a, 9.0, "a9"), (b, 1.0, "b1"), (c, 2.0, "c2"),
                  (a, 7.0, "a7")]
        shard = HotShard(0)
        shard.apply_epoch(1, first)
        before = shard.contents()

        def wreck(node):
            if isinstance(node, dict):
                for child in node.values():
                    wreck(child)
            elif isinstance(node, list):
                node.clear()
            elif isinstance(node, tuple):
                for child in node:
                    wreck(child)

        discarded = shard.stage_epoch(2, second)
        assert shard.contents() == before
        staged = shard.stage_epoch(2, second)
        wreck(discarded)
        assert shard.contents() == before
        assert shard.install_epoch(staged) == 4
        assert shard.contents() == _model(first + second)
        assert shard.latest("a", 2) == [(9.0, "a9"), (7.0, "a7")]
        assert shard.latest("b", 1) == [(5.0, "b5")]
        shard.apply_epoch(3, [(a, 8.0, "a8")])
        assert shard.contents() == _model(
            first + second + [(a, 8.0, "a8")])

    def test_stale_stage_is_refused_whole(self):
        """A token describes the memtable it was staged against; after a
        flush or another install it is rejected before any mutation."""
        rows = [(key_repr("a"), 1.0, "x")]
        shard = HotShard(0)
        shard.apply_epoch(1, rows)
        staged = shard.stage_epoch(3, [(key_repr("a"), 2.0, "y")])
        shard.flush()
        with pytest.raises(StoreError):
            shard.install_epoch(staged)
        staged = shard.stage_epoch(3, [(key_repr("a"), 2.0, "y")])
        shard.apply_epoch(2, [(key_repr("a"), 3.0, "z")])
        with pytest.raises(StoreError):
            shard.install_epoch(staged)
        assert shard.contents() == _model(
            rows + [(key_repr("a"), 3.0, "z")])
        assert shard.last_applied_epoch == 2

    def test_epoch_guard_makes_reapply_a_noop(self):
        shard = HotShard(0)
        rows = [(key_repr("a"), 1.0, "x"), (key_repr("b"), 2.0, "y")]
        assert shard.apply_epoch(1, rows) == 2
        assert shard.stage_epoch(1, rows) is None
        assert shard.apply_epoch(1, rows) == 0
        assert shard.rows == 2
        assert shard.last_applied_epoch == 1

    def test_stage_does_not_mutate(self):
        shard = HotShard(0)
        shard.apply_epoch(1, [(key_repr("a"), 1.0, "x")])
        before = shard.contents()
        staged = shard.stage_epoch(2, [(key_repr("a"), 9.0, "z")])
        assert staged is not None
        assert shard.contents() == before
        assert shard.last_applied_epoch == 1
        shard.install_epoch(staged)
        assert shard.latest("a", 1) == [(9.0, "z")]

    def test_compaction_bounds_runs_and_preserves_contents(self):
        rng = make_rng(11)
        shard = HotShard(0, memtable_limit=8, tier_fanout=2)
        applied = []
        for epoch in range(1, 40):
            rows = _random_rows(rng, 8, keys=5)
            shard.apply_epoch(epoch, rows)
            shard.maintain()
            applied.extend(rows)
        stats = shard.stats()
        # 39 flushes of ~8 rows with fanout-2 merging: far fewer live runs
        assert stats["runs"] < 10
        assert stats["compactions"] > 0
        assert shard.contents() == _model(applied)

    def test_maintain_without_a_flush_does_not_retier(self, monkeypatch):
        shard = HotShard(0, memtable_limit=4, tier_fanout=2)
        for epoch in range(1, 8):
            shard.apply_epoch(epoch, [(key_repr(k), float(epoch), epoch)
                                      for k in "abcd"])
            shard.maintain()
        calls = []
        tier_of = shard._tier_of
        monkeypatch.setattr(shard, "_tier_of",
                            lambda run: calls.append(run) or tier_of(run))
        shard.apply_epoch(8, [(key_repr("a"), 8.0, 8)])  # under the limit
        shard.maintain()
        assert calls == []
        shard.flush()
        shard.maintain()
        assert calls  # a new run is tiered again
        assert shard.latest("a", 1) == [(8.0, 8)]

    def test_ttl_filters_reads_and_expire_reclaims(self):
        clock = SimClock()
        shard = HotShard(0, clock=clock, ttl_s=10.0, memtable_limit=4)
        shard.apply_epoch(1, [(key_repr("a"), 0.0, "old"),
                              (key_repr("a"), 1.0, "older-ish"),
                              (key_repr("b"), 0.5, "b-old")])
        shard.maintain()
        shard.apply_epoch(2, [(key_repr("a"), 8.0, "fresh")])
        clock.advance(12.0)  # now=12: live window is ts >= 2
        assert shard.latest("a", 5) == [(8.0, "fresh")]
        assert shard.latest("b", 5) == []
        rows_before = shard.rows
        shard.expire()
        assert shard.rows < rows_before
        assert shard.latest("a", 5) == [(8.0, "fresh")]
        # determinism: same clock, same state -> expire is idempotent
        snapshot = shard.contents()
        shard.expire()
        assert shard.contents() == snapshot


class TestHotStore:
    def test_sharding_matches_engine_routing(self):
        store = HotStore(num_shards=4, num_key_groups=16)
        for i in range(50):
            key = f"user-{i}"
            shard = store.shard_for(key)
            group = key_group_for(key, 16)
            assert shard.shard_id == subtask_for_key_group(group, 16, 4)

    def test_cross_shard_latest_and_contents(self):
        rng = make_rng(3)
        store = HotStore(num_shards=4, memtable_limit=8)
        applied = []
        for epoch in range(1, 6):
            per_shard = {}
            for _ in range(30):
                key = f"k-{rng.integers(12)}"
                row = (key_repr(key), float(rng.uniform(0, 100)),
                       int(rng.integers(1000)))
                sid = store.shard_for(key).shard_id
                per_shard.setdefault(sid, []).append(row)
            for sid, rows in per_shard.items():
                store.shards[sid].apply_epoch(epoch, rows)
                applied.extend(rows)
            store.maintain()
        # per-key latest agrees with a global brute-force model
        model = _model(applied)
        assert store.contents() == model
        for kr, versions in model.items():
            assert store.latest(eval(kr), 2) == versions[:2]
            assert store.point(eval(kr)) == versions[0][1]
        assert store.point("never-seen") is None

    def test_equal_keys_that_print_differently_keep_their_row_keys(self):
        """``1 == 1.0 == True``, ``0.0 == -0.0`` and ``(1, "a") ==
        (1.0, "a")``, but each prints differently, and a key's row key
        is what it prints as: arriving in separate epochs, each keeps
        its own versions, on its own shard, whatever the route memo
        saw first."""
        store = TieredStore(num_shards=4)
        keys = [1, 1.0, True, (1, "a"), (1.0, "a"), 0.0, -0.0, "1"]
        expected = {}
        for epoch, key in enumerate(keys * 2, start=1):
            store.apply_epoch(epoch, [Element(value=epoch,
                                              timestamp=float(epoch),
                                              key=key)])
            expected.setdefault(repr(key), []).insert(
                0, (float(epoch), epoch))
        assert store.contents() == dict(sorted(expected.items()))
        for key in keys:
            assert store.latest(key, 3) == expected[repr(key)]
            assert store.hot.route(key)[1] == repr(key)
            assert store.hot.shard_for(key).shard_id == subtask_for_key_group(
                key_group_for(key, store.hot.num_key_groups),
                store.hot.num_key_groups, 4)

    def test_route_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(hot_module, "_ROUTE_MEMO_MAX", 4)
        store = HotStore(num_shards=4, num_key_groups=16)
        for _ in range(2):
            for i in range(10):
                key = f"user-{i}"
                group = key_group_for(key, 16)
                assert store.route(key) == (
                    subtask_for_key_group(group, 16, 4), repr(key))
                assert len(store._routes) <= 4

    def test_point_on_empty_store(self):
        store = HotStore(num_shards=2)
        assert store.point("nope") is None
        assert store.latest("nope", 3) == []
        assert store.rows == 0
