"""Hot tier: each key's newest row, indexed over the store's rows.

Every path is pinned against a brute-force model: a plain dict of
``key -> [(ts, value), ...]`` sorted newest-first.  If `latest` ever
disagrees with the model the store lost or reordered a version.  The
hot tier holds no timestamp or value of its own, so every store here
is a :class:`TieredStore`, whose analytical tier holds the rows the
hot tier indexes.
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from repro.store import TieredStore, key_repr
from repro.store import hot as hot_module
from repro.streaming.batch import RecordBatch
from repro.streaming.element import Element
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


def _batch(keys, codes, stamps, values):
    """An epoch as the columns a sealed batch holds: the key
    dictionary, codes into it, timestamps (taken as they come) and
    values."""
    return RecordBatch(stamps, values, key_codes=np.asarray(codes, np.int64),
                       key_dict=keys)


def _stage(store, epoch, rows):
    return store.stage_epoch(epoch, [Element(value, ts, key)
                                     for key, ts, value in rows])


def _apply(store, epoch, rows):
    return store.install_epoch(_stage(store, epoch, rows))


def _hot_state(store):
    """Everything the hot tier holds, as plain values."""
    hot = store.hot
    return (dict(hot.table), dict(hot._memo),
            hot.newest[:len(hot.table)].tolist(),
            hot._rank[:len(hot.table)].tolist(),
            hot.row_codes[:hot.rows].tolist(), hot.rows,
            hot.last_applied_epoch)


def _canon(versions):
    """NaN != NaN, so compare timestamps by repr."""
    return [(repr(ts), value) for ts, value in versions]


def _canon_contents(contents):
    return {kr: _canon(versions) for kr, versions in contents.items()}


_SPECIAL_TS = (math.inf, -math.inf, math.nan, -0.0)


def _adversarial_rows(rng, n, keys):
    """Event times out of order, equal (a 30-value grid), +-inf, NaN
    and -0.0."""
    rows = []
    for _ in range(n):
        if rng.random() < 0.2:
            ts = _SPECIAL_TS[int(rng.integers(len(_SPECIAL_TS)))]
        else:
            ts = float(rng.integers(30)) * 4.0
        rows.append((f"k-{rng.integers(keys)}", ts,
                     int(rng.integers(10**6))))
    return rows


class TestHotShard:
    """The newest-row index and the code column, through the epoch
    protocol."""

    def test_latest_matches_model_across_structures(self):
        """Seeded property test: however the rows fall into epochs,
        ``latest`` and ``contents`` are the brute-force model's."""
        for seed in range(24):
            rng = make_rng(seed)
            epochs = [_adversarial_rows(rng, int(rng.integers(0, 12)),
                                        keys=5) for _ in range(12)]
            applied = [row for rows in epochs for row in rows]
            expected = {kr: _canon(v) for kr, v in _model(applied).items()}
            store = TieredStore()
            for epoch, rows in enumerate(epochs, 1):
                _apply(store, epoch, rows)
            where = f"seed {seed}"
            assert _canon_contents(store.contents()) == expected, where
            for i in range(5):
                versions = expected.get(key_repr(f"k-{i}"), [])
                assert _canon(store.latest(f"k-{i}")) \
                    == versions[:1], where
            assert store.hot.rows == len(applied)

    def test_discarded_stage_leaves_no_trace(self):
        """stage -> discard -> re-stage -> install: no container of a
        token that is never installed is shared with the live store or
        with another token."""
        first = [("a", 5.0, "a5"), ("b", 5.0, "b5")]
        # a: newer than its resident row; b: older; c: new
        second = [("a", 9.0, "a9"), ("b", 1.0, "b1"), ("c", 2.0, "c2"),
                  ("a", 7.0, "a7")]
        store = TieredStore()
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
        store = TieredStore()
        _apply(store, 1, rows)
        staged = _stage(store, 3, [("a", 4.0, "y"), ("b", 1.0, "y")])
        _apply(store, 2, [("a", 3.0, "z")])
        state = _hot_state(store)
        with pytest.raises(StoreError, match="stale"):
            store.install_epoch(staged)
        assert _hot_state(store) == state
        assert store.analytical.rows == 2
        assert store.contents() == _model(rows + [("a", 3.0, "z")])
        assert store.latest("b") == []
        assert (store.hot.rows, store.hot.last_applied_epoch) == (2, 2)

    def test_epoch_guard_makes_reapply_a_noop(self):
        store = TieredStore()
        rows = [("a", 1.0, "x"), ("b", 2.0, "y")]
        assert _apply(store, 1, rows) == 2
        assert _stage(store, 1, rows)["hot"] is None
        assert _apply(store, 1, rows) == 0
        assert store.hot.rows == store.analytical.rows == 2
        assert store.hot.last_applied_epoch == 1

    def test_stage_does_not_mutate(self):
        store = TieredStore()
        _apply(store, 1, [("a", 1.0, "x")])
        before, state = store.contents(), _hot_state(store)
        staged = _stage(store, 2, [("a", 9.0, "z"), ("b", 1.0, "w")])
        assert staged["hot"] is not None
        assert store.contents() == before and _hot_state(store) == state
        store.install_epoch(staged)
        assert store.latest("a") == [(9.0, "z")]

    @pytest.mark.parametrize("ts", ["noon", 10**400],
                             ids=["str", "past-float-range"])
    def test_a_timestamp_float_refuses_is_a_store_error(self, ts):
        """A timestamp ``float()`` refuses (a ``str``) or cannot hold
        (an int past float range) is refused while staging, before the
        store changes."""
        store = TieredStore()
        _apply(store, 1, [("a", 1.0, "x")])
        state = _hot_state(store)
        with pytest.raises(StoreError, match="not a float"):
            store.stage_epoch(2, _batch(["a", "b"], [0, 1], [2.0, ts],
                                        ["y", "z"]))
        assert _hot_state(store) == state
        assert (store.hot.rows, store.hot.last_applied_epoch) == (1, 1)
        assert store.analytical.rows == 1
        assert store.contents() == {key_repr("a"): [(1.0, "x")]}

    def test_int_and_numpy_timestamps_are_stored_as_floats(self):
        stamps = [3, np.int64(7), np.float32(2.5)]
        store = TieredStore()
        store.install_epoch(store.stage_epoch(
            1, _batch(list("abc"), [0, 1, 2], stamps, list("abc"))))
        contents = store.contents()
        assert contents == {key_repr(k): [(float(ts), k)]
                            for k, ts in zip("abc", stamps)}
        assert all(type(ts) is float
                   for versions in contents.values() for ts, _ in versions)
        for k in "abc":
            assert [type(ts) for ts, _ in store.latest(k)] == [float]

    def test_a_stored_row_costs_few_traced_bytes(self):
        """A count, not a clock: 50 000 versions of 200 keys, all
        holding one value object, cost the hot tier at most 11 bytes a
        row of what tracemalloc traces to ``store/hot.py`` (an int64 code
        in a capacity-doubling column, 64 000 slots for 50 000 rows,
        plus 200 keys' table, memo, rank and newest row; measured 10.8).
        The timestamp and the value slot are the analytical tier's; a
        second copy of each in a log, with a row tuple of ordering
        numbers per newest version, cost ~31."""
        keys = [f"k-{i}" for i in range(200)]
        value = object()
        tracemalloc.start()
        try:
            store = TieredStore()
            for epoch, base in enumerate(range(0, 50_000, 500), 1):
                _apply(store, epoch, [(keys[i % 200], float(i), value)
                                      for i in range(base, base + 500)])
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, hot_module.__file__)])
        finally:
            tracemalloc.stop()
        held = sum(stat.size for stat in snapshot.statistics("filename"))
        assert store.hot.rows == 50_000
        assert held / 50_000 <= 11

    def test_unequal_keys_that_print_alike_share_one_row_key(self):
        """Two NaN keys are unequal, so one epoch's key dictionary holds
        both, but they print alike: one row key, whose newest version
        is the epoch's newest row of either."""
        nan_a, nan_b = float("nan"), float("nan")
        store = TieredStore()
        store.install_epoch(store.stage_epoch(1, _batch(
            [nan_a, nan_b], [0, 0, 1], [5.0, 2.0, 9.0], ["a5", "a2", "b9"])))
        assert store.contents() == {"nan": [(9.0, "b9"), (5.0, "a5"),
                                            (2.0, "a2")]}
        assert store.latest(nan_a) == [(9.0, "b9")]
        assert store.hot.table == {"nan": 0}

    def test_a_key_no_row_carries_holds_nothing(self):
        store = TieredStore()
        store.install_epoch(store.stage_epoch(1, _batch(
            ["a", "ghost"], [0, 0], [1.0, 2.0], ["x", "y"])))
        assert store.contents() == {key_repr("a"): [(2.0, "y"), (1.0, "x")]}
        assert store.latest("ghost") == []
        assert store.hot.table == {key_repr("a"): 0}
        assert store.hot._memo == {"a": 0}


class TestHotStore:
    def test_latest_and_contents_over_many_keys(self):
        rng = make_rng(3)
        store = TieredStore()
        applied = []
        for epoch in range(1, 6):
            rows = [(f"k-{rng.integers(12)}", float(rng.uniform(0, 100)),
                     int(rng.integers(1000))) for _ in range(30)]
            _apply(store, epoch, rows)
            applied.extend(rows)
        # per-key latest agrees with a global brute-force model
        model = _model(applied)
        assert store.contents() == model
        for kr, versions in model.items():
            assert store.latest(eval(kr)) == versions[:1]
            assert store.point(eval(kr)) == versions[0][1]
            # the newest row holds the newest version
            row = store.hot.newest[store.hot.table[kr]]
            assert applied[row][1:] == versions[0]
        assert store.point("never-seen") is None

    def test_equal_keys_that_print_differently_keep_their_row_keys(self):
        """``1 == 1.0 == True``, ``0.0 == -0.0`` and ``(1, "a") ==
        (1.0, "a")``, but each prints differently, and a key's row key
        is what it prints as: arriving in separate epochs, each keeps
        its own versions, whatever the ``str`` memo saw first."""
        store = TieredStore()
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

    def test_a_str_key_is_one_call_behind_70_000_others(self):
        """The ``str`` memo is the key table's, so it keeps every key:
        a store holding 70 000 distinct ``str`` keys (past the 65 536 at
        which a bounded memo started over) answers ``latest`` for the
        first of them in the one call ``test_lookup_budget`` counts."""
        keys = [f"user-{i}" for i in range(70_000)]
        store = TieredStore()
        for epoch, base in enumerate(range(0, 70_000, 10_000), 1):
            span = range(base, base + 10_000)
            store.install_epoch(store.stage_epoch(epoch, _batch(
                keys[base:base + 10_000], list(range(10_000)),
                [float(i) for i in span], list(span))))
        assert len(store.hot._memo) == len(store.hot.table) == 70_000
        calls = []

        def count(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(count)
        try:
            got = store.latest(keys[0])
        finally:
            sys.setprofile(None)
        assert got == [(0.0, 0)]
        assert calls == ["latest"]

    def test_point_on_empty_store(self):
        store = TieredStore()
        assert store.point("nope") is None
        assert store.latest("nope") == []
        assert store.hot.rows == 0
        assert store.contents() == {}
