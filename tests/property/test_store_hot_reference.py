"""Property test: the hot tier against a brute-force per-row model.

Epochs go through ``TieredStore.stage_epoch`` / ``install_epoch`` —
the routing the serving path uses — in any shape the commit stream can
produce: a key several times in one epoch, epochs whose event times
run backwards from one to the next (so a key's newest version is often
in an older epoch), empty epochs, and NaN and +-inf event times.

After every step the model — every row ever applied, numbered in
commit order, nothing ever sorted incrementally — is checked against
the store:

- ``contents()`` and ``latest(k)`` for every key;
- each shard's newest index holds exactly the model's newest row
  ``(rank, -seq, timestamp, value)`` of each key that routes to it;
- the log's segments are well formed (int64 codes and float64
  timestamps, one per value) and, read in order, hold each applied row
  exactly once, at its apply sequence.
"""

import math
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import TieredStore
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


def _rank(ts):
    return math.inf if ts != ts else -ts


def _canon(row):
    """NaN != NaN, so a row's timestamp compares by its repr."""
    return (*row[:-2], repr(row[-2]), row[-1])


class Model:
    def __init__(self, num_shards):
        self.num_shards = num_shards
        #: (key_repr, timestamp, value) of every row, in commit order
        self.rows = []

    def shard(self, key):
        return subtask_for_key_group(key_group_for(key, KEY_GROUPS),
                                     KEY_GROUPS, self.num_shards)

    def apply(self, elements):
        self.rows.extend((repr(e.key), e.timestamp, e.value)
                         for e in elements)

    def ordered(self):
        """key_repr -> rows ``(rank, -seq, timestamp, value)``, newest
        first."""
        by_key = {}
        for seq, (kr, ts, value) in enumerate(self.rows):
            by_key.setdefault(kr, []).append((_rank(ts), -seq, ts, value))
        return {kr: sorted(by_key[kr]) for kr in sorted(by_key)}


def _check(store, model):
    ordered = model.ordered()
    expected = {kr: [(repr(ts), value) for _r, _s, ts, value in rows]
                for kr, rows in ordered.items()}
    assert {kr: [(repr(ts), value) for ts, value in versions]
            for kr, versions in store.contents().items()} == expected
    for key in KEYS + ["never"]:
        assert [(repr(ts), value) for ts, value in store.latest(key)] \
            == expected.get(repr(key), [])[:1]
    hot = store.hot
    for sid, newest in enumerate(hot.shards):
        assert {kr: _canon(row) for kr, row in newest.items()} == {
            kr: _canon(rows[0]) for kr, rows in ordered.items()
            if model.shard(eval(kr)) == sid}
    logged = []
    for row_keys, codes, ts, values in hot._log:
        assert codes.dtype == np.int64 and ts.dtype == np.float64
        assert len(codes) == len(ts) == len(values) > 0
        logged.extend(zip(map(row_keys.__getitem__, codes.tolist()),
                          ts.tolist(), values))
    assert [_canon(row) for row in logged] \
        == [_canon(row) for row in model.rows]
    assert hot.rows == len(model.rows)


@settings(max_examples=60, deadline=None)
@given(st.lists(epochs, min_size=1, max_size=14),
       st.sampled_from((1, 2, 3)))
def test_hot_tier_matches_brute_force(epoch_list, num_shards):
    with patch.object(shuffle, "KEY_GROUPS", KEY_GROUPS):
        store = TieredStore(num_shards=num_shards)
        model = Model(num_shards)
        value = 0
        for epoch, (base, spec) in enumerate(epoch_list, start=1):
            elements = []
            for key, ts in spec:
                elements.append(Element(value=value, timestamp=base + ts,
                                        key=key))
                value += 1
            store.install_epoch(store.stage_epoch(epoch, elements))
            model.apply(elements)
            _check(store, model)
