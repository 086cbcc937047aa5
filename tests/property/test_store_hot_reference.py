"""Property test: the hot tier against a brute-force per-row model.

Epochs go through ``TieredStore.stage_epoch`` / ``install_epoch`` —
the path the serving store is fed by — in any shape the commit stream
can produce: a key several times in one epoch, epochs whose event
times run backwards from one to the next (so a key's newest version is
often in an older epoch), empty epochs, NaN, +-inf and -0.0 event
times, keys that are equal but print differently (``1``, ``1.0``,
``True``), two NaN keys that are unequal but print alike, and a key
dictionary naming a key that no row carries.

After every step the model — every row ever applied, numbered in
commit order, nothing ever sorted incrementally — is checked against
the store:

- ``contents()`` and ``latest(k)`` for every key;
- the key table holds exactly the row keys the model has, and each
  key's ``newest`` row and its rank are the model's newest version's;
- the code column is int64 and, read in order, holds each applied row
  exactly once, at its apply sequence, under its row key, and the
  analytical tier holds the same row's timestamp and value there.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import TieredStore
from repro.streaming.batch import RecordBatch

NAN_A, NAN_B = float("nan"), float("nan")
KEYS = ["a", "b", "c", 7, 7.0, True, 1, ("t", 1), NAN_A, NAN_B]
GHOST = ("ghost",)

stamps = st.one_of(st.integers(0, 12).map(float),
                   st.sampled_from((math.nan, math.inf, -math.inf, -0.0)))
#: (base, rows, ghost): each epoch sits at its own base, so epochs run
#: backwards; ``ghost`` adds a dictionary key no row carries
epochs = st.tuples(st.integers(-20, 40),
                   st.lists(st.tuples(st.sampled_from(range(len(KEYS))),
                                      stamps), max_size=8),
                   st.booleans())


def _rank(ts):
    return math.inf if ts != ts else -ts


class Model:
    def __init__(self):
        #: (key_repr, timestamp, value) of every row, in commit order
        self.rows = []

    def apply(self, keys, stamps, values):
        # a batch's dictionary keys an epoch by equality, first
        # appearance first: ``1.0`` after ``1`` in one epoch is filed
        # under ``1``
        first = {}
        self.rows.extend((repr(first.setdefault(key, key)), ts, value)
                         for key, ts, value in zip(keys, stamps, values))

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
    for key in KEYS + ["never", GHOST]:
        assert [(repr(ts), value) for ts, value in store.latest(key)] \
            == expected.get(repr(key), [])[:1]
    hot = store.hot
    assert sorted(hot.table) == sorted(ordered)
    for kr, rows in ordered.items():
        code = hot.table[kr]
        rank, neg_seq, _ts, _value = rows[0]
        assert hot.newest[code] == -neg_seq
        assert hot._rank[code] == rank
    n = len(model.rows)
    assert hot.row_codes.dtype == np.int64 and hot.newest.dtype == np.int64
    assert hot.rows == store.analytical.rows == n
    key_of = {code: kr for kr, code in hot.table.items()}
    analytical = store.analytical
    logged = list(zip(map(key_of.__getitem__, hot.row_codes[:n].tolist()),
                      map(repr, analytical._ts[:n].tolist()),
                      analytical._raw[:n]))
    assert logged == [(kr, repr(ts), value) for kr, ts, value in model.rows]


@settings(max_examples=60, deadline=None)
@given(st.lists(epochs, min_size=1, max_size=14))
def test_hot_tier_matches_brute_force(epoch_list):
    store = TieredStore()
    model = Model()
    value = 0
    for epoch, (base, spec, ghost) in enumerate(epoch_list, start=1):
        keys = [KEYS[k] for k, _ts in spec]
        # -0.0 kept as it is: ``base + -0.0`` would be a positive zero
        ts = [t if math.copysign(1.0, t) < 0 else base + t
              for _k, t in spec]
        values = list(range(value, value + len(spec)))
        value += len(spec)
        dictionary = list(dict.fromkeys(keys))
        index = {key: code for code, key in enumerate(dictionary)}
        if ghost:
            dictionary.append(GHOST)
        batch = RecordBatch(np.array(ts, np.float64), values,
                            key_codes=np.array(list(map(index.__getitem__,
                                                        keys)), np.int64),
                            key_dict=dictionary)
        store.install_epoch(store.stage_epoch(epoch, batch))
        model.apply(keys, ts, values)
        _check(store, model)
