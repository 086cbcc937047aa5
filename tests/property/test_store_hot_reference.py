"""Property test: the hot tier against a brute-force per-row model.

Epochs go through ``TieredStore.apply_epoch`` — the routing the
serving path uses — in any shape the commit stream can produce: a key
several times in one epoch, epochs whose event times run backwards
from one to the next (so a key's new rows merge into its memtable list
instead of extending it), NaN and +-inf event times, and ``maintain()``
calls between epochs.

After every step the model — every row ever applied, numbered per
shard in commit order, nothing ever sorted incrementally — is checked
against the store:

- ``contents()`` and ``latest(k)`` for every key;
- every memtable list runs oldest to newest within one key;
- every run's columns are well formed (float64 timestamps, int64
  sequences, one non-empty row range per key), and the rows rebuilt
  from them, ``(key_repr, -order_ts, -seq, timestamp, value)``, are
  strictly ascending;
- each shard's ``_run_newest`` holds exactly each key's newest row
  across all of its runs (compaction in between or not);
- memtable plus runs hold each applied row exactly once, in that row
  shape.
"""

import math
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import TieredStore, hot
from repro.streaming import shuffle
from repro.streaming.element import Element
from repro.streaming.shuffle import key_group_for, subtask_for_key_group

KEY_GROUPS = 16
KEYS = ["a", "b", "c", "d", 7, ("t", 1)]

stamps = st.one_of(st.integers(0, 12).map(float),
                   st.sampled_from((math.nan, math.inf, -math.inf)))
#: (base, rows): each epoch sits at its own base, so epochs run backwards
epochs = st.tuples(st.integers(-20, 40),
                   st.lists(st.tuples(st.sampled_from(KEYS), stamps),
                            max_size=8))
#: between epochs: a maintenance pass or nothing
steps = st.tuples(epochs, st.booleans())


def _order(ts):
    return -math.inf if ts != ts else ts


def _canon(row):
    """NaN != NaN, so a row's timestamp compares by its repr."""
    kr, rank, neg_seq, ts, value = row
    return (kr, rank, neg_seq, repr(ts), value)


class Model:
    def __init__(self, num_shards):
        self.num_shards = num_shards
        self.rows = {sid: [] for sid in range(num_shards)}
        self.seq = [0] * num_shards

    def shard(self, key):
        return subtask_for_key_group(key_group_for(key, KEY_GROUPS),
                                     KEY_GROUPS, self.num_shards)

    def apply(self, elements):
        for e in elements:
            sid = self.shard(e.key)
            seq = self.seq[sid]
            self.seq[sid] += 1
            self.rows[sid].append((repr(e.key), -_order(e.timestamp), -seq,
                                   e.timestamp, e.value))

    def contents(self):
        by_key = {}
        for rows in self.rows.values():
            for row in rows:
                by_key.setdefault(row[0], []).append(row)
        return {kr: [(repr(r[3]), r[4]) for r in sorted(by_key[kr])]
                for kr in sorted(by_key)}


def _run_rows(run):
    """A run's columns rebuilt as rows, checking their shape."""
    assert run.ts.dtype == np.float64 and run.seq.dtype == np.int64
    assert len(run.ts) == len(run.seq) == len(run.values)
    bounds = run.starts.tolist()
    assert len(bounds) == len(run.keys) + 1
    assert bounds[0] == 0 and bounds[-1] == len(run.values)
    assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
    stamps, seqs = run.ts.tolist(), run.seq.tolist()
    return [(kr, -_order(stamps[i]), -seqs[i], stamps[i], run.values[i])
            for kr, lo, hi in zip(run.keys, bounds, bounds[1:])
            for i in range(lo, hi)]


def _canon_versions(versions):
    return [(repr(ts), value) for ts, value in versions]


def _check(store, model):
    contents = store.contents()
    expected = model.contents()
    assert {kr: _canon_versions(v) for kr, v in contents.items()} \
        == expected
    for key in KEYS + ["never"]:
        assert _canon_versions(store.latest(key)) \
            == expected.get(repr(key), [])[:1]
    for shard in store.hot.shards:
        held = []
        for kr, versions in shard._mem.items():
            assert all(row[0] == kr for row in versions)
            assert all(a > b for a, b in zip(versions, versions[1:]))
            held.extend(versions)
        newest = {}
        for run in shard._runs:
            rows = _run_rows(run)
            assert all(a < b for a, b in zip(rows, rows[1:]))
            first = {}
            for i, row in enumerate(rows):
                first.setdefault(row[0], i)
            for kr, i in first.items():
                if kr not in newest or rows[i] < newest[kr]:
                    newest[kr] = rows[i]
            held.extend(rows)
        assert shard._run_newest.keys() == newest.keys()
        assert all(_canon(shard._run_newest[kr]) == _canon(row)
                   for kr, row in newest.items())
        held = [_canon(row) for row in held]
        assert len(set(held)) == len(held)
        assert set(held) == {_canon(row)
                             for row in model.rows[shard.shard_id]}


@settings(max_examples=60, deadline=None)
@given(st.lists(steps, min_size=1, max_size=14), st.sampled_from((1, 2, 3)),
       st.sampled_from((1, 2, 4, 8)), st.sampled_from((2, 3)))
def test_hot_tier_matches_brute_force(step_list, num_shards,
                                      memtable_limit, tier_fanout):
    with patch.object(shuffle, "KEY_GROUPS", KEY_GROUPS), \
            patch.object(hot, "TIER_FANOUT", tier_fanout):
        store = TieredStore(num_shards=num_shards,
                            memtable_limit=memtable_limit)
        model = Model(num_shards)
        value = 0
        for epoch, ((base, spec), maintain) in enumerate(step_list,
                                                         start=1):
            elements = []
            for key, ts in spec:
                elements.append(Element(value=value, timestamp=base + ts,
                                        key=key))
                value += 1
            store.apply_epoch(epoch, elements)
            model.apply(elements)
            if maintain:
                store.maintain()
            _check(store, model)
