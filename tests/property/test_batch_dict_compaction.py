"""RecordBatch dictionary compaction: narrow filters drop dead keys.

Regression for the columnar hot path: ``compress`` used to carry the
*full* key table into every derived batch, so a heavily filtered stream
hauled thousands of dead dictionary entries through every downstream
operator (and every ``np.isin`` / remap over them).  Now a compressed
batch whose live codes cover less than half the table gets a compacted
dictionary — while preserving the **identity** of the surviving key
objects, which the engine's identity-keyed caches (hash memo, window
remap cache) rely on.  ``slice`` is a pure view: its cuts are transient
(prefixes, fragments, source pulls), and a fresh dictionary per cut
would make those same caches miss on every one.
"""

import numpy as np
import pytest

from repro.streaming.batch import RecordBatch
from repro.streaming.element import Element
from repro.util.rng import make_rng


def _batch(n=400, keys=100, seed=3):
    rng = make_rng(seed)
    elements = [Element(value=float(rng.uniform(0, 10)),
                        timestamp=float(i),
                        key=f"k-{int(rng.integers(keys))}")
                for i in range(n)]
    return elements, RecordBatch.from_elements(elements)


class TestCompaction:
    def test_narrow_compress_shrinks_the_dictionary(self):
        elements, batch = _batch()
        assert batch.key_dict is not None
        wanted = {"k-1", "k-2", "k-3"}
        mask = np.asarray([e.key in wanted for e in elements])
        narrow = batch.compress(mask)
        assert len(narrow.key_dict) <= len(wanted)
        assert len(narrow.key_dict) < len(batch.key_dict) // 2

    def test_narrow_slice_shares_the_dictionary(self):
        elements, batch = _batch(n=400, keys=100)
        narrow = batch.slice(0, 5)
        assert narrow.key_dict is batch.key_dict
        assert narrow.to_elements() == elements[:5]

    def test_wide_derivations_keep_the_table(self):
        # >= half the table live: compaction would churn for no win
        elements, batch = _batch(n=400, keys=10)
        wide = batch.slice(0, 300)
        assert wide.key_dict is batch.key_dict

    def test_key_objects_keep_identity(self):
        elements, batch = _batch()
        narrow = batch.compress(
            np.asarray([e.key in {"k-4", "k-7"} for e in elements]))
        originals = {id(k) for k in batch.key_dict}
        for key in narrow.key_dict:
            assert id(key) in originals

    def test_decoded_stream_is_unchanged(self):
        """Property: any slice/compress chain decodes to exactly the
        same elements as the plain-python path, compacted or not."""
        rng = make_rng(11)
        for trial in range(20):
            elements, batch = _batch(n=200, keys=int(rng.integers(2, 80)),
                                     seed=trial)
            mask = rng.uniform(size=len(elements)) < rng.uniform(0.02, 0.9)
            if not mask.any():
                mask[0] = True
            expected = [e for e, m in zip(elements, mask) if m]
            got = batch.compress(np.asarray(mask)).to_elements()
            assert got == expected
            i, j = sorted(rng.integers(0, len(elements) + 1, size=2))
            if i < j:
                assert batch.slice(int(i), int(j)).to_elements() \
                    == elements[i:j]

    def test_compaction_composes_with_further_derivations(self):
        elements, batch = _batch()
        wanted = {"k-1", "k-2", "k-3", "k-4"}
        mask = np.asarray([e.key in wanted for e in elements])
        narrow = batch.compress(mask)
        kept = [e for e, m in zip(elements, mask) if m]
        # compress-of-compress and slice-of-compress stay correct
        sub = narrow.compress(np.arange(len(narrow)) % 2 == 0)
        assert sub.to_elements() == kept[::2]
        assert narrow.slice(1, 4).to_elements() == kept[1:4]

    def test_keyless_batches_are_untouched(self):
        elements = [Element(value=1.0, timestamp=float(i))
                    for i in range(10)]
        batch = RecordBatch.from_elements(elements)
        assert batch.slice(0, 3).to_elements() == elements[:3]
