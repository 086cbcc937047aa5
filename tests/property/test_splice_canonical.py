"""``RecordBatch.splice``: one canonical batch keeps its own columns.

A batch whose key dictionary already lists exactly the keys its rows
use, in order of first appearance, once each, is spliced into an empty
dictionary without the per-key remap: its codes array is reused and the
dictionary copied at C speed.  That shortcut must not show — for every
one-batch input the result equals the remap path's field for field
(``RecordBatch.__eq__``) and leaves the same ``key_index`` /
``key_dict`` behind.  Inputs: fresh ``from_columns`` batches, slices
that share a dictionary with dead entries, dictionaries out of first
appearance order or holding two equal keys, elided ``None`` keys,
opaque and numpy-scalar values, and a dictionary that is not empty.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import batch as batch_module
from repro.streaming.batch import RecordBatch

KEYS = st.one_of(st.none(), st.integers(0, 6), st.sampled_from(
    ["a", "b", ("t", 1), 1.0, True]))


def _general(rb, key_index, key_dict):
    """The remap path, whatever the input."""
    with patch.object(batch_module, "_adopt_canonical",
                      lambda *args: None):
        return RecordBatch.splice([rb], key_index, key_dict)


@st.composite
def one_batch(draw):
    n = draw(st.integers(1, 30))
    keys = draw(st.lists(KEYS, min_size=n, max_size=n))
    ts = [float(t) for t in draw(st.lists(st.integers(0, 50), min_size=n,
                                          max_size=n))]
    kind = draw(st.sampled_from(["float", "opaque", "vectorized"]))
    if kind == "opaque":
        values = [{"v": i} if i % 3 else i for i in range(n)]
    else:
        values = [float(i) / 4 for i in range(n)]
    shape = draw(st.sampled_from(
        ["fresh", "slice", "shuffled", "duplicated", "elided"]))
    if shape == "elided":
        rb = RecordBatch.from_columns(ts, values, [None] * n)
        assert rb.key_codes is None
    elif shape == "slice":
        parent = RecordBatch.from_columns(ts, values, keys)
        i = draw(st.just(0) | st.integers(0, n - 1))  # prefixes often
        rb = parent.slice(i, draw(st.integers(i + 1, n)))
    elif shape == "duplicated":
        # codes in canonical order over a dictionary that holds one key
        # twice (or 1 / 1.0 / True): the last row's key is a stand-in
        # whose entry is then overwritten with an earlier key
        stand_in = object()
        rb = RecordBatch.from_columns([*ts, 99.0], [*values, values[0]],
                                      [*keys, stand_in])
        twin = draw(st.sampled_from(rb.key_dict[:-1] or [None]))
        rb = rb.with_keys(rb.key_codes, [*rb.key_dict[:-1], twin])
    else:
        rb = RecordBatch.from_columns(ts, values, keys)
        if shape == "shuffled" and rb.key_codes is not None:
            local = rb.key_dict
            order = draw(st.permutations(range(len(local))))
            where = np.argsort(order)
            rb = rb.with_keys(where[rb.key_codes].astype(np.int64),
                              [local[c] for c in order])
    if kind == "vectorized":
        rb = rb.with_values(np.asarray(rb.values_list()) * 2.0)
    return rb


@settings(max_examples=400, deadline=None)
@given(one_batch(), st.lists(KEYS, max_size=3, unique_by=repr))
def test_one_batch_splice_equals_the_remap_path(rb, known):
    index_fast, dict_fast = {}, []
    index_ref, dict_ref = {}, []
    for k in known:  # half the cases arrive with a non-empty dictionary
        for index, kd in ((index_fast, dict_fast), (index_ref, dict_ref)):
            if k not in index:
                index[k] = len(kd)
                kd.append(k)
    fast = RecordBatch.splice([rb], index_fast, dict_fast)
    ref = _general(rb, index_ref, dict_ref)
    assert fast == ref
    assert fast.key_codes.dtype == np.int64
    assert repr(list(index_fast.items())) == repr(list(index_ref.items()))
    assert repr(dict_fast) == repr(dict_ref)
    assert fast.key_dict is dict_fast
    assert fast.to_elements() == rb.to_elements()


def test_a_canonical_batch_keeps_its_codes_array():
    rb = RecordBatch.from_columns([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0],
                                  ["x", "y", "x", "z"])
    key_index, key_dict = {}, []
    out = RecordBatch.splice([rb], key_index, key_dict)
    assert out.key_codes is rb.key_codes
    assert out.timestamps is rb.timestamps and out.values is rb.values
    assert key_dict == ["x", "y", "z"] and out.key_dict is key_dict
    assert key_index == {"x": 0, "y": 1, "z": 2}
    # not canonical: dictionary order is not first-appearance order
    turned = rb.with_keys(np.asarray([1, 0, 1, 2]), ["y", "x", "z"])
    out = RecordBatch.splice([turned], {}, [])
    assert out.key_codes is not turned.key_codes
    assert out == rb
    # not canonical: a prefix whose shared dictionary has a dead "z"
    prefix = rb.slice(0, 3)
    key_dict = []
    out = RecordBatch.splice([prefix], {}, key_dict)
    assert out.key_codes is not prefix.key_codes
    assert key_dict == ["x", "y"]
