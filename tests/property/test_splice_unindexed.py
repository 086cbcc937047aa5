"""``RecordBatch.splice`` into a fresh dictionary whose index the caller
does not keep (``key_index=None``, as ``RecordBatch.sealed`` and a
one-split source splice) gives field for field what it gives with a
kept, empty index — canonical batches, and dictionaries that hold one
key twice, which must still be refused the shortcut.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.batch import RecordBatch

KEYS = st.one_of(st.none(), st.integers(0, 6), st.sampled_from(
    ["a", "b", ("t", 1), 1.0, True]))


@settings(max_examples=300, deadline=None)
@given(st.lists(KEYS, min_size=1, max_size=30), st.booleans(),
       st.booleans())
def test_an_unkept_index_changes_nothing(keys, twin, opaque):
    n = len(keys)
    values = ([{"v": i} for i in range(n)] if opaque
              else [float(i) for i in range(n)])
    rb = RecordBatch.from_columns([float(i % 7) for i in range(n)], values,
                                  keys)
    if twin and rb.key_codes is not None and len(rb.key_dict) > 1:
        # the last entry made equal to the first: still canonical codes
        rb = rb.with_keys(rb.key_codes, [*rb.key_dict[:-1], rb.key_dict[0]])
    kept_dict, bare_dict = [], []
    kept = RecordBatch.splice([rb], {}, kept_dict)
    bare = RecordBatch.splice([rb], None, bare_dict)
    assert bare == kept
    assert bare.key_codes.dtype == np.int64
    assert repr(bare_dict) == repr(kept_dict)
    assert bare.key_dict is bare_dict
    assert bare.to_elements() == rb.to_elements()
