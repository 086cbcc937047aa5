"""Property test: the hot tier against a brute-force per-row model.

Epochs go through ``TieredStore.apply_epoch`` — the routing the
serving path uses — in any shape the commit stream can produce: a key
several times in one epoch, epochs whose event times run backwards
from one to the next (so a key's new rows merge into its memtable list
instead of extending it), NaN and +-inf event times, and ``maintain()``
/ ``expire()`` calls and clock advances between epochs under a TTL.

After every step the model — every row ever applied, numbered per
shard in commit order, nothing ever sorted incrementally — is checked
against the store:

- ``contents()`` and ``latest(k, n)`` for n = 1..3 and every key;
- every memtable list runs oldest to newest within one key;
- every run's rows are strictly ascending and its ``first_row`` names
  exactly each key's first row;
- memtable plus runs hold each applied row once, in its run-row shape
  ``(key_repr, -order_ts, -seq, timestamp, value)``, and only expired
  rows may be missing.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import TieredStore
from repro.streaming.element import Element
from repro.streaming.shuffle import key_group_for, subtask_for_key_group
from repro.util.clock import SimClock

KEY_GROUPS = 16
KEYS = ["a", "b", "c", "d", 7, ("t", 1)]

stamps = st.one_of(st.integers(0, 12).map(float),
                   st.sampled_from((math.nan, math.inf, -math.inf)))
#: (base, rows): each epoch sits at its own base, so epochs run backwards
epochs = st.tuples(st.integers(-20, 40),
                   st.lists(st.tuples(st.sampled_from(KEYS), stamps),
                            max_size=8))
#: between epochs: nothing, a maintenance pass, a TTL sweep, or time
steps = st.tuples(epochs, st.sampled_from(("none", "maintain", "expire")),
                  st.sampled_from((0.0, 0.0, 3.0, 10.0)))


def _order(ts):
    return -math.inf if ts != ts else ts


def _canon(row):
    """NaN != NaN, so a row's timestamp compares by its repr."""
    kr, rank, neg_seq, ts, value = row
    return (kr, rank, neg_seq, repr(ts), value)


class Model:
    def __init__(self, num_shards, ttl_s, clock):
        self.num_shards = num_shards
        self.ttl_s = ttl_s
        self.clock = clock
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

    def live(self, row):
        if self.ttl_s is None:
            return True
        return -row[1] >= self.clock.now - self.ttl_s

    def contents(self):
        by_key = {}
        for rows in self.rows.values():
            for row in rows:
                if self.live(row):
                    by_key.setdefault(row[0], []).append(row)
        return {kr: [(repr(r[3]), r[4]) for r in sorted(by_key[kr])]
                for kr in sorted(by_key)}


def _canon_versions(versions):
    return [(repr(ts), value) for ts, value in versions]


def _check(store, model):
    contents = store.contents()
    expected = model.contents()
    assert {kr: _canon_versions(v) for kr, v in contents.items()} \
        == expected
    for key in KEYS + ["never"]:
        for n in (1, 2, 3):
            assert _canon_versions(store.latest(key, n)) \
                == expected.get(repr(key), [])[:n]
    for shard in store.hot.shards:
        held = []
        for kr, versions in shard._mem.items():
            assert all(row[0] == kr for row in versions)
            assert all(a > b for a, b in zip(versions, versions[1:]))
            held.extend(versions)
        for run in shard._runs:
            rows = run.rows
            assert all(a < b for a, b in zip(rows, rows[1:]))
            first = {}
            for i, row in enumerate(rows):
                first.setdefault(row[0], i)
            assert run.first_row == first
            held.extend(rows)
        held = [_canon(row) for row in held]
        assert len(set(held)) == len(held)
        applied = {_canon(row): row for row in model.rows[shard.shard_id]}
        assert set(held) <= set(applied)
        for missing in set(applied) - set(held):
            assert not model.live(applied[missing])


@settings(max_examples=60, deadline=None)
@given(st.lists(steps, min_size=1, max_size=14),
       st.sampled_from((None, 6.0, 20.0)), st.sampled_from((1, 2, 3)),
       st.sampled_from((1, 2, 4, 8)), st.sampled_from((2, 3)))
def test_hot_tier_matches_brute_force(step_list, ttl_s, num_shards,
                                      memtable_limit, tier_fanout):
    clock = SimClock()
    store = TieredStore(num_shards=num_shards, num_key_groups=KEY_GROUPS,
                        clock=clock, ttl_s=ttl_s,
                        memtable_limit=memtable_limit,
                        tier_fanout=tier_fanout)
    model = Model(num_shards, ttl_s, clock)
    value = 0
    for epoch, ((base, spec), action, advance) in enumerate(step_list,
                                                             start=1):
        elements = []
        for key, ts in spec:
            elements.append(Element(value=value, timestamp=base + ts,
                                    key=key))
            value += 1
        store.apply_epoch(epoch, elements)
        model.apply(elements)
        clock.advance(advance)
        if action == "maintain":
            store.maintain()
        elif action == "expire":
            store.expire()
        _check(store, model)
