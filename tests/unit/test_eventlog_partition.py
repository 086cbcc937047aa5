"""Unit tests: partition offsets, retention, compaction; record sizing."""

import pytest

from repro.eventlog import Partition, Record, estimate_size
from repro.util.errors import OffsetOutOfRange


def _record(i, key=None, ts=0.0):
    return Record(value={"i": i}, key=key, timestamp=ts)


class TestRecordSize:
    def test_primitives(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(7) == 8
        assert estimate_size(3.14) == 8
        assert estimate_size("abc") == 3
        assert estimate_size(b"abcd") == 4

    def test_containers(self):
        assert estimate_size([1, 2]) == 18
        assert estimate_size({"a": 1}) == 11

    def test_record_size_includes_key_and_headers(self):
        bare = Record(value="v").size_bytes
        keyed = Record(value="v", key="kk").size_bytes
        headered = Record(value="v", headers={"h": "x"}).size_bytes
        assert keyed == bare + 2
        assert headered == bare + 2

    def test_record_size_is_computed_once(self, monkeypatch):
        from repro.eventlog import record as record_module
        calls = []
        real = record_module.estimate_size
        monkeypatch.setattr(
            record_module, "estimate_size",
            lambda value: calls.append(value) or real(value))
        r = Record(value={"a": 1.0}, key="k", headers={"h": "x"})
        assert r.size_bytes == r.size_bytes == real({"a": 1.0}) + 8 + 1 + 2
        assert sum(1 for value in calls if value is r.value) == 1
        # the cache is not a field: equality ignores it
        assert r == Record(value={"a": 1.0}, key="k", headers={"h": "x"})

    @pytest.mark.parametrize("value", (1.5, float("nan"), 7, True, None,
                                       "v", {"a": 1.0}, [1.0]))
    @pytest.mark.parametrize("key", (None, "", "patient:hr", "kä", "键"))
    @pytest.mark.parametrize("headers", ({}, {"h": "x", "seq": "12"}))
    def test_fast_paths_price_the_same_bytes(self, value, key, headers):
        generic = estimate_size(value) + 8
        if key is not None:
            generic += len(key.encode("utf-8"))
        generic += sum(len(k) + len(v) for k, v in headers.items())
        record = Record(value=value, key=key, headers=headers)
        assert record.size_bytes == generic


class TestPartitionAppendRead:
    def test_append_returns_sequential_offsets(self):
        p = Partition("t", 0)
        assert [p.append(_record(i)) for i in range(3)] == [0, 1, 2]
        assert p.end_offset == 3
        assert p.base_offset == 0

    def test_read_from_offset(self):
        p = Partition("t", 0)
        for i in range(5):
            p.append(_record(i))
        rows = p.read(2)
        assert [offset for offset, _r in rows] == [2, 3, 4]

    def test_read_at_end_is_empty(self):
        p = Partition("t", 0)
        p.append(_record(0))
        assert p.read(1) == []

    def test_read_past_end_raises(self):
        p = Partition("t", 0)
        with pytest.raises(OffsetOutOfRange):
            p.read(1)

    def test_read_respects_max_records(self):
        p = Partition("t", 0)
        for i in range(10):
            p.append(_record(i))
        assert len(p.read(0, max_records=4)) == 4

    def test_get_single(self):
        p = Partition("t", 0)
        p.append(_record(0))
        p.append(_record(1))
        assert p.get(1).value == {"i": 1}

    def test_size_bytes_tracks_appends(self):
        p = Partition("t", 0)
        r = _record(0)
        p.append(r)
        assert p.size_bytes == r.size_bytes


class TestRetention:
    def test_truncate_before(self):
        p = Partition("t", 0)
        for i in range(5):
            p.append(_record(i))
        dropped = p.truncate_before(3)
        assert dropped == 3
        assert p.base_offset == 3
        assert [o for o, _r in p.read(3)] == [3, 4]

    def test_truncate_noop_when_before_base(self):
        p = Partition("t", 0)
        p.append(_record(0))
        assert p.truncate_before(0) == 0

    def test_read_before_base_raises(self):
        p = Partition("t", 0)
        for i in range(5):
            p.append(_record(i))
        p.truncate_before(3)
        with pytest.raises(OffsetOutOfRange):
            p.read(1)

    def test_time_retention(self):
        p = Partition("t", 0)
        for i in range(5):
            p.append(_record(i, ts=float(i)))
        dropped = p.enforce_retention(min_timestamp=3.0)
        assert dropped == 3
        assert p.base_offset == 3

    def test_size_retention(self):
        p = Partition("t", 0)
        for i in range(10):
            p.append(_record(i))
        per_record = _record(0).size_bytes
        p.enforce_retention(max_bytes=3 * per_record)
        assert len(p) <= 3
        assert p.size_bytes <= 3 * per_record

    def test_offsets_preserved_after_retention(self):
        p = Partition("t", 0)
        for i in range(5):
            p.append(_record(i))
        p.truncate_before(2)
        assert p.append(_record(5)) == 5


class TestCompaction:
    def test_keeps_latest_per_key(self):
        p = Partition("t", 0)
        p.append(_record(0, key="a"))
        p.append(_record(1, key="b"))
        p.append(_record(2, key="a"))
        removed = p.compact()
        assert removed == 1
        values = [r.value["i"] for _o, r in p.read(0)]
        assert values == [1, 2]

    def test_keyless_records_survive(self):
        p = Partition("t", 0)
        p.append(_record(0))
        p.append(_record(1, key="a"))
        p.append(_record(2, key="a"))
        p.compact()
        assert [r.value["i"] for _o, r in p.read(0)] == [0, 2]

    def test_offsets_stable_across_compaction(self):
        p = Partition("t", 0)
        p.append(_record(0, key="a"))
        p.append(_record(1, key="a"))
        p.compact()
        assert [o for o, _r in p.read(0)] == [1]
        assert p.end_offset == 2

    def test_clone_is_independent(self):
        p = Partition("t", 0)
        p.append(_record(0))
        twin = p.clone()
        p.append(_record(1))
        assert twin.end_offset == 1
        assert p.end_offset == 2


class TestColumnRead:
    def _partition(self, n=6, compact=False, truncate=0):
        p = Partition("t", 0)
        for i in range(n):
            p.append(_record(i, key=f"k{i % 2}" if compact else None,
                             ts=i * 0.5))
        if compact:
            p.compact()
        if truncate:
            p.truncate_before(truncate)
        return p

    @pytest.mark.parametrize("compact", (False, True))
    @pytest.mark.parametrize("truncate", (0, 2))
    def test_read_columns_is_read_transposed(self, compact, truncate):
        p = self._partition(compact=compact, truncate=truncate)
        for offset in range(p.base_offset, p.end_offset + 1):
            for max_records in (1, 2, 100):
                rows = p.read(offset, max_records)
                offsets, timestamps, values, keys = p.read_columns(
                    offset, max_records)
                assert offsets == [o for o, _ in rows]
                assert timestamps == [r.timestamp for _, r in rows]
                assert values == [r.value for _, r in rows]
                assert keys == [r.key for _, r in rows]

    def test_same_range_errors_as_read(self):
        p = self._partition(truncate=2)
        assert p.read_columns(p.end_offset) == ([], [], [], [])
        for offset in (0, 1, p.end_offset + 1):
            with pytest.raises(OffsetOutOfRange):
                p.read_columns(offset)
            with pytest.raises(OffsetOutOfRange):
                p.read(offset)

    def test_hole_count_follows_compaction_and_truncation(self):
        p = self._partition(n=6, compact=True)    # survivors: offsets 4, 5
        assert len(p) == 2 and p._holes == 4
        assert [o for o, _ in p.read(0)] == [4, 5]
        assert p.clone()._holes == 4
        p.truncate_before(3)
        assert len(p) == 2 and p._holes == 1
        p.truncate_before(4)                      # no hole left: slice path
        assert p._holes == 0
        assert p.read_columns(4)[0] == [4, 5]
        assert p.read(5, max_records=1)[0][0] == 5
