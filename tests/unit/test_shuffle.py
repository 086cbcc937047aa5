"""Key-group math: stable hashing, ranges, routing consistency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.shuffle import (
    key_group_for,
    key_group_range,
    subtask_for_key_group,
)
from repro.streaming.state import KeyedState
from repro.util.errors import StreamError
from repro.util.ids import split_ranges, stable_hash


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("gps-42") == stable_hash("gps-42")

    def test_spreads(self):
        groups = {stable_hash(f"k{i}") % 128 for i in range(500)}
        assert len(groups) > 100  # near-uniform over 128 buckets

    def test_known_value_pinned(self):
        # Pins the hash so a refactor that silently changes it (breaking
        # every checkpoint's key groups) fails loudly.
        assert stable_hash("a") == 4953267810257967366

    def test_memo_is_bounded_and_hashes_identically(self):
        # producer partitioning and key groups share this memo; the
        # loop it skips stays the reference
        cached = stable_hash.__wrapped__
        for key in ("", "a", "patient-17:hr", "kä", "键" * 40):
            assert stable_hash(key) == stable_hash(key) == cached(key)
        assert stable_hash.cache_info().maxsize == 1 << 16

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.characters(min_codepoint=0,
                                          max_codepoint=0x10FFFF,
                                          blacklist_categories=("Cs",)),
                   max_size=40)
           | st.text(alphabet=st.characters(min_codepoint=0x10000,
                                            max_codepoint=0x10FFFF,
                                            blacklist_categories=("Cs",)),
                     min_size=1, max_size=10))
    def test_masked_step_is_the_modulo_step(self, key):
        # the FNV-1a loop as written before the step became one masked
        # expression: every key, non-BMP characters included, keeps its
        # hash, so no checkpoint's key groups move
        h = 1469598103934665603
        for byte in key.encode("utf-8"):
            h ^= byte
            h = (h * 1099511628211) % (1 << 64)
        assert stable_hash.__wrapped__(key) == h


class TestSplitRanges:
    def test_partitions_exactly(self):
        for n, w in [(0, 1), (1, 1), (4, 4), (5, 2), (10, 4), (128, 3)]:
            ranges = split_ranges(n, w)
            assert len(ranges) == w
            flat = [i for r in ranges for i in r]
            assert flat == list(range(n))

    def test_balanced(self):
        for n, w in [(10, 3), (128, 5), (7, 7)]:
            sizes = [len(r) for r in split_ranges(n, w)]
            assert max(sizes) - min(sizes) <= 1

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            split_ranges(4, 0)


class TestKeyGroups:
    def test_none_key_rejected(self):
        with pytest.raises(StreamError):
            key_group_for(None, 128)

    def test_in_range(self):
        for key in ("a", 7, (1, 2), "user-99"):
            assert 0 <= key_group_for(key, 128) < 128

    def test_range_and_inverse_agree(self):
        # The forward map (key group -> subtask) must be the inverse of
        # the ownership ranges (subtask -> key groups) for every G, P —
        # otherwise restored state lands on a subtask that never sees
        # the key.
        for num_groups in (8, 128, 100):
            for parallelism in (1, 2, 3, 4, 7):
                if parallelism > num_groups:
                    continue
                for subtask in range(parallelism):
                    for kg in key_group_range(num_groups, parallelism,
                                              subtask):
                        assert subtask_for_key_group(
                            kg, num_groups, parallelism) == subtask

    def test_group_and_merge_round_trip(self):
        state = KeyedState()
        for i in range(40):
            state.put(f"k{i}", [i * 10])
        groups = state.snapshot_by_group(16)
        assert set(groups) <= set(range(16))
        restored = KeyedState()
        restored.restore_groups(groups.values())
        assert restored.snapshot() == state.snapshot()
        # blobs and tables share nothing mutable, both ways
        restored.get("k0").append(1)
        state.get("k1").append(1)
        merged = {k: v for blob in groups.values() for k, v in blob.items()}
        assert merged == {f"k{i}": [i * 10] for i in range(40)}

    def test_grouping_respects_key_group_for(self):
        state = KeyedState()
        state.put("a", 1)
        state.put("b", 2)
        groups = state.snapshot_by_group(8)
        for kg, blob in groups.items():
            for key in blob:
                assert key_group_for(key, 8) == kg
