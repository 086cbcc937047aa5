"""Hot store: each key's newest version over a commit-order log.

Every path is pinned against a brute-force model: a plain dict of
``key -> [(ts, value), ...]`` sorted newest-first.  If `latest` ever
disagrees with the model the store lost or reordered a version.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.store import HotStore, TieredStore, key_repr
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
    """Brute force: key_repr -> versions newest-first (ties: later
    apply wins), every version of every key sorted from scratch."""
    by_key = {}
    for seq, (key, ts, value) in enumerate(applied):
        by_key.setdefault(key_repr(key), []).append(
            (_order(ts), seq, ts, value))
    return {
        kr: [(ts, v) for _o, _s, ts, v in
             sorted(rows, key=lambda r: (-r[0], -r[1]))]
        for kr, rows in sorted(by_key.items())
    }


def _columns(rows):
    """``(key, ts, value)`` rows as the columns an epoch comes in: the
    key dictionary, codes into it, timestamps and values."""
    index = {}
    keys = []
    for key, _ts, _value in rows:
        if key not in index:
            index[key] = len(keys)
            keys.append(key)
    return (keys, [index[key] for key, _ts, _value in rows],
            [ts for _key, ts, _value in rows],
            [value for _key, _ts, value in rows])


def _stage(store, epoch, rows):
    return store.stage_epoch(epoch, *_columns(rows))


def _apply(store, epoch, rows):
    return store.install_epoch(_stage(store, epoch, rows))


def _canon(versions):
    """NaN != NaN, so compare timestamps by repr."""
    return [(repr(ts), value) for ts, value in versions]


def _canon_contents(contents):
    return {kr: _canon(versions) for kr, versions in contents.items()}


_SPECIAL_TS = (math.inf, -math.inf, math.nan)


def _adversarial_rows(rng, n, keys):
    """Event times out of order, equal (a 30-value grid), +-inf and NaN."""
    rows = []
    for _ in range(n):
        if rng.random() < 0.2:
            ts = _SPECIAL_TS[int(rng.integers(3))]
        else:
            ts = float(rng.integers(30)) * 4.0
        rows.append((f"k-{rng.integers(keys)}", ts,
                     int(rng.integers(10**6))))
    return rows


class TestHotShard:
    """A shard's newest-version index and the log, through the epoch
    protocol."""

    def test_latest_matches_model_across_structures(self):
        """Seeded property test: whatever the shard count and however
        the rows fall into epochs, ``latest`` and ``contents`` are the
        brute-force model's."""
        for seed in range(24):
            rng = make_rng(seed)
            epochs = [_adversarial_rows(rng, int(rng.integers(0, 12)),
                                        keys=5) for _ in range(12)]
            applied = [row for rows in epochs for row in rows]
            expected = {kr: _canon(v) for kr, v in _model(applied).items()}
            for num_shards in (1, 3, 8):
                store = HotStore(num_shards=num_shards)
                for epoch, rows in enumerate(epochs, 1):
                    _apply(store, epoch, rows)
                where = f"seed {seed} num_shards {num_shards}"
                assert _canon_contents(store.contents()) == expected, where
                for i in range(5):
                    versions = expected.get(key_repr(f"k-{i}"), [])
                    assert _canon(store.latest(f"k-{i}")) \
                        == versions[:1], where
                assert store.rows == len(applied)

    def test_discarded_stage_leaves_no_trace(self):
        """stage -> discard -> re-stage -> install: no container of a
        token that is never installed is shared with the live store or
        with another token."""
        first = [("a", 5.0, "a5"), ("b", 5.0, "b5")]
        # a: newer than its resident entry; b: older; c: new
        second = [("a", 9.0, "a9"), ("b", 1.0, "b1"), ("c", 2.0, "c2"),
                  ("a", 7.0, "a7")]
        store = HotStore(num_shards=2)
        _apply(store, 1, first)
        before = store.contents()

        def wreck(node):
            if isinstance(node, dict):
                for child in node.values():
                    wreck(child)
                node.clear()
            elif isinstance(node, list):
                node.clear()
            elif isinstance(node, np.ndarray):
                node.fill(-1)
            elif isinstance(node, tuple):
                for child in node:
                    wreck(child)

        discarded = _stage(store, 2, second)
        assert store.contents() == before
        staged = _stage(store, 2, second)
        wreck(discarded)
        assert store.contents() == before
        assert store.install_epoch(staged) == 4
        assert store.contents() == _model(first + second)
        assert store.latest("a") == [(9.0, "a9")]
        assert store.latest("b") == [(5.0, "b5")]
        _apply(store, 3, [("a", 8.0, "a8")])
        assert store.contents() == _model(first + second + [("a", 8.0, "a8")])

    def test_stale_stage_is_refused_whole(self):
        """A token describes the store it was staged against; after
        another epoch's rows are installed it is rejected before any
        mutation."""
        rows = [("a", 1.0, "x")]
        store = HotStore(num_shards=2)
        _apply(store, 1, rows)
        staged = _stage(store, 3, [("a", 4.0, "y"), ("b", 1.0, "y")])
        _apply(store, 2, [("a", 3.0, "z")])
        log = list(store._log)
        with pytest.raises(StoreError, match="stale"):
            store.install_epoch(staged)
        assert store._log == log
        assert store.contents() == _model(rows + [("a", 3.0, "z")])
        assert store.latest("b") == []
        assert (store.rows, store.last_applied_epoch) == (2, 2)

    def test_epoch_guard_makes_reapply_a_noop(self):
        store = HotStore(num_shards=2)
        rows = [("a", 1.0, "x"), ("b", 2.0, "y")]
        assert _apply(store, 1, rows) == 2
        assert _stage(store, 1, rows) is None
        assert _apply(store, 1, rows) == 0
        assert store.rows == 2
        assert store.last_applied_epoch == 1

    def test_stage_does_not_mutate(self):
        store = HotStore(num_shards=2)
        _apply(store, 1, [("a", 1.0, "x")])
        before = store.contents()
        staged = _stage(store, 2, [("a", 9.0, "z")])
        assert staged is not None
        assert store.contents() == before
        assert store.last_applied_epoch == 1
        store.install_epoch(staged)
        assert store.latest("a") == [(9.0, "z")]

    @pytest.mark.parametrize("ts", ["noon", 10**400],
                             ids=["str", "past-float-range"])
    def test_a_timestamp_float_refuses_is_a_store_error(self, ts):
        """A timestamp ``float()`` refuses (a ``str``) or cannot hold
        (an int past float range) is refused while staging, before the
        store changes."""
        store = HotStore(num_shards=2)
        _apply(store, 1, [("a", 1.0, "x")])
        shards = [dict(newest) for newest in store.shards]
        log = list(store._log)
        with pytest.raises(StoreError, match="not a float"):
            _apply(store, 2, [("a", 2.0, "y"), ("b", ts, "z")])
        assert store.shards == shards and store._log == log
        assert (store.rows, store.last_applied_epoch) == (1, 1)
        assert store.contents() == {key_repr("a"): [(1.0, "x")]}

    def test_int_and_numpy_timestamps_are_stored_as_floats(self):
        stamps = [3, np.int64(7), np.float32(2.5)]
        store = HotStore(num_shards=2)
        _apply(store, 1, [(k, ts, k) for k, ts in zip("abc", stamps)])
        contents = store.contents()
        assert contents == {key_repr(k): [(float(ts), k)]
                            for k, ts in zip("abc", stamps)}
        assert all(type(ts) is float
                   for versions in contents.values() for ts, _ in versions)
        for k in "abc":
            assert [type(ts) for ts, _ in store.latest(k)] == [float]

    def test_a_stored_row_costs_few_traced_bytes(self):
        """A count, not a clock: 50 000 versions of 200 keys, all
        holding one value object, cost at most 40 bytes a row of what
        tracemalloc traces (a float64 timestamp, an int64 key code and
        a value slot in the log; a row tuple with its ordering floats
        and int cost ~145)."""
        keys = [f"k-{i}" for i in range(200)]
        value = object()
        tracemalloc.start()
        try:
            store = HotStore(num_shards=1)
            for epoch, base in enumerate(range(0, 50_000, 500), 1):
                _apply(store, epoch, [(keys[i % 200], float(i), value)
                                      for i in range(base, base + 500)])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert store.rows == 50_000
        assert held / 50_000 <= 40

    def test_unequal_keys_that_print_alike_share_one_row_key(self):
        """Two NaN keys are unequal, so one epoch's key dictionary holds
        both, but they print alike: one row key, whose newest version
        is the epoch's newest row of either."""
        nan_a, nan_b = float("nan"), float("nan")
        store = HotStore(num_shards=2)
        store.install_epoch(store.stage_epoch(
            1, [nan_a, nan_b], [0, 0, 1], [5.0, 2.0, 9.0], ["a5", "a2", "b9"]))
        assert store.contents() == {"nan": [(9.0, "b9"), (5.0, "a5"),
                                            (2.0, "a2")]}
        assert store.latest(nan_a) == [(9.0, "b9")]

    def test_a_key_no_row_carries_holds_nothing(self):
        store = HotStore(num_shards=2)
        store.install_epoch(store.stage_epoch(
            1, ["a", "ghost"], [0, 0], [1.0, 2.0], ["x", "y"]))
        assert store.contents() == {key_repr("a"): [(2.0, "y"), (1.0, "x")]}
        assert store.latest("ghost") == []
        assert sum(len(newest) for newest in store.shards) == 1


class TestHotStore:
    def test_sharding_matches_engine_routing(self, monkeypatch):
        monkeypatch.setattr(shuffle, "KEY_GROUPS", 16)
        store = HotStore(num_shards=4)
        for i in range(50):
            key = f"user-{i}"
            group = key_group_for(key, 16)
            assert store.route(key)[0] == subtask_for_key_group(group, 16, 4)

    def test_cross_shard_latest_and_contents(self):
        rng = make_rng(3)
        store = HotStore(num_shards=4)
        applied = []
        for epoch in range(1, 6):
            rows = [(f"k-{rng.integers(12)}", float(rng.uniform(0, 100)),
                     int(rng.integers(1000))) for _ in range(30)]
            _apply(store, epoch, rows)
            applied.extend(rows)
        assert len({store.route(key)[0] for key, _, _ in applied}) == 4
        # per-key latest agrees with a global brute-force model
        model = _model(applied)
        assert store.contents() == model
        for kr, versions in model.items():
            assert store.latest(eval(kr)) == versions[:1]
            assert store.point(eval(kr)) == versions[0][1]
            sid = store.route(eval(kr))[0]
            assert [sid for sid, newest in enumerate(store.shards)
                    if kr in newest] == [sid]
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
            store.install_epoch(store.stage_epoch(epoch, [Element(
                value=epoch, timestamp=float(epoch), key=key)]))
            expected.setdefault(repr(key), []).insert(
                0, (float(epoch), epoch))
        assert store.contents() == dict(sorted(expected.items()))
        for key in keys:
            assert store.latest(key) == expected[repr(key)][:1]
            assert store.hot.route(key) == (subtask_for_key_group(
                key_group_for(key, shuffle.KEY_GROUPS),
                shuffle.KEY_GROUPS, 4), repr(key))

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
        assert store.contents() == {}
