"""Log-structured hot store: memtable/runs, compaction, latest-N.

Every structural path (pure memtable, flushed runs, compacted tiers)
is pinned against a brute-force model: a plain dict of
``key -> [(ts, value), ...]`` sorted newest-first.  If `latest` ever
disagrees with the model the store lost or reordered a version.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.store import HotShard, HotStore, TieredStore, key_repr
from repro.store import hot as hot_module
from repro.streaming.element import Element
from repro.streaming import shuffle
from repro.streaming.shuffle import key_group_for, subtask_for_key_group
from repro.util.errors import StoreError
from repro.util.rng import make_rng


def _order(ts):
    """NaN is older than every finite timestamp (it orders as -inf)."""
    return ts if ts == ts else -math.inf


def _model(applied):
    """Brute force: key -> versions newest-first (ties: later apply
    wins), every version of every key sorted from scratch."""
    by_key = {}
    for seq, (kr, ts, value) in enumerate(applied):
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
    def test_latest_matches_model_across_structures(self, monkeypatch):
        """Seeded property test: whatever the split between memtable and
        runs, ``latest`` and ``contents`` are the brute-force model's."""
        monkeypatch.setattr(hot_module, "TIER_FANOUT", 3)
        for seed in range(24):
            rng = make_rng(seed)
            epochs = [_adversarial_rows(rng, int(rng.integers(1, 12)),
                                        keys=5) for _ in range(12)]
            applied = [row for rows in epochs for row in rows]
            expected = {kr: _canon(v) for kr, v in _model(applied).items()}
            for limit in (1, 3, 4096):
                shard = HotShard(0, memtable_limit=limit)
                for epoch, rows in enumerate(epochs, 1):
                    shard.apply_epoch(epoch, rows)
                    shard.maintain()
                where = f"seed {seed} memtable_limit {limit}"
                assert _canon_contents(shard.contents()) == expected, where
                for i in range(5):
                    versions = expected.get(key_repr(f"k-{i}"), [])
                    assert _canon(shard.latest(f"k-{i}")) \
                        == versions[:1], where

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
        assert shard.latest("a") == [(9.0, "a9")]
        assert shard.latest("b") == [(5.0, "b5")]
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
        assert shard.latest("a") == [(9.0, "z")]

    def test_compaction_bounds_runs_and_preserves_contents(self,
                                                           monkeypatch):
        monkeypatch.setattr(hot_module, "TIER_FANOUT", 2)
        rng = make_rng(11)
        shard = HotShard(0, memtable_limit=8)
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
        monkeypatch.setattr(hot_module, "TIER_FANOUT", 2)
        shard = HotShard(0, memtable_limit=4)
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
        assert shard.latest("a") == [(8.0, 8)]

    @pytest.mark.parametrize("ts", ["noon", 10**400],
                             ids=["str", "past-float-range"])
    def test_a_timestamp_float_refuses_is_a_store_error(self, ts):
        """A timestamp ``float()`` refuses (a ``str``) or cannot hold
        (an int past float range) is refused while staging, before the
        memtable changes, so a later flush never meets it."""
        a, b = key_repr("a"), key_repr("b")
        shard = HotShard(0)
        shard.apply_epoch(1, [(a, 1.0, "x")])
        resident = shard._mem[a]
        with pytest.raises(StoreError, match="not a float"):
            shard.apply_epoch(2, [(a, 2.0, "y"), (b, ts, "z")])
        assert shard._mem == {a: [hot_module.run_row(a, 1.0, 0, "x")]}
        assert shard._mem[a] is resident
        assert (shard._mem_rows, shard.last_applied_epoch) == (1, 1)
        shard.flush()
        assert shard.contents() == {a: [(1.0, "x")]}

    def test_int_and_numpy_timestamps_are_stored_as_floats(self):
        keys = [key_repr(k) for k in "abc"]
        stamps = [3, np.int64(7), np.float32(2.5)]
        shard = HotShard(0)
        shard.apply_epoch(1, [(kr, ts, kr) for kr, ts in zip(keys, stamps)])
        expected = {kr: [(float(ts), kr)] for kr, ts in zip(keys, stamps)}
        for flushed in (False, True):
            if flushed:
                shard.flush()
            contents = shard.contents()
            assert contents == expected
            assert all(type(ts) is float
                       for versions in contents.values()
                       for ts, _ in versions)
            for kr in keys:
                assert [type(ts) for ts, _ in shard.latest_rows(kr)] \
                    == [float]

    def test_a_stored_row_costs_few_traced_bytes(self):
        """A count, not a clock: 50 000 versions of 200 keys, flushed
        and compacted, all holding one value object, cost at most 40
        bytes a row of what tracemalloc traces (a float64 timestamp,
        an int64 sequence and a value slot; a row tuple with its
        ordering floats and int cost ~145)."""
        keys = [key_repr(f"k-{i}") for i in range(200)]
        value = object()
        epochs = [[(keys[i % 200], float(i), value)
                   for i in range(base, base + 500)]
                  for base in range(0, 50_000, 500)]
        tracemalloc.start()
        try:
            shard = HotShard(0)
            for epoch, rows in enumerate(epochs, 1):
                shard.apply_epoch(epoch, rows)
                shard.maintain()
            shard.flush()
            shard.compact()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (shard.rows, shard._mem_rows) == (50_000, 0)
        assert shard.compactions > 0
        assert held / 50_000 <= 40


class TestHotStore:
    def test_sharding_matches_engine_routing(self, monkeypatch):
        monkeypatch.setattr(shuffle, "KEY_GROUPS", 16)
        store = HotStore(num_shards=4)
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
            assert store.latest(eval(kr)) == versions[:1]
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
            assert store.latest(key) == expected[repr(key)][:1]
            assert store.hot.route(key)[1] == repr(key)
            assert store.hot.shard_for(key).shard_id == subtask_for_key_group(
                key_group_for(key, shuffle.KEY_GROUPS),
                shuffle.KEY_GROUPS, 4)

    def test_route_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(hot_module, "_ROUTE_MEMO_MAX", 4)
        monkeypatch.setattr(shuffle, "KEY_GROUPS", 16)
        store = HotStore(num_shards=4)
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
        assert store.latest("nope") == []
        assert store.rows == 0
