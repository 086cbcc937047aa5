"""A single append-only partition with retention and compaction.

Offsets are absolute and never reused: after retention truncates the
head, ``base_offset`` records where the retained range starts, exactly
like Kafka's log start offset.  Compaction keeps the latest record per
key (plus all keyless records), preserving offsets.

The partition stores columns, not records: one slot per offset in
parallel lists (value, key, timestamp, size) plus a sparse
``offset -> headers`` map.  ``append_row`` writes a row's fields;
``read_columns`` hands slices of the lists out; a :class:`Record` exists
only where a caller passes one in (``append``) or asks for one
(``read``, ``get``).
"""

from __future__ import annotations

from typing import Any, Mapping

from ..util.errors import OffsetOutOfRange
from .record import Record

__all__ = ["Partition"]


class Partition:
    """Append-only row sequence with absolute offsets, read as records
    (``read``) or as columns (``read_columns``)."""

    def __init__(self, topic: str, index: int) -> None:
        self.topic = topic
        self.index = index
        # Slot i of every list is offset base_offset + i.
        self._values: list[Any] = []
        self._keys: list[str | None] = []
        self._timestamps: list[float] = []
        #: priced size per slot; 0 = compacted away (a live row prices
        #: at least its timestamp's 8 bytes)
        self._sizes: list[int] = []
        #: absolute offset -> headers, for the rows that have any
        self._headers: dict[int, Mapping[str, str]] = {}
        self._base_offset = 0
        self._size_bytes = 0
        self._holes = 0  # retained compacted slots; 0 = every read is a slice

    # -- write path --------------------------------------------------------

    def append_row(self, value: Any, key: str | None, timestamp: float,
                   headers: Mapping[str, str] | None, size: int) -> int:
        """Append one row and return its absolute offset.  ``size`` is
        ``record_size(value, key, headers)``, priced by the caller; a
        non-empty ``headers`` mapping is stored as given."""
        offset = self._base_offset + len(self._sizes)
        self._values.append(value)
        self._keys.append(key)
        self._timestamps.append(timestamp)
        self._sizes.append(size)
        if headers:
            self._headers[offset] = headers
        self._size_bytes += size
        return offset

    def append(self, record: Record) -> int:
        """Append and return the record's absolute offset."""
        return self.append_row(record.value, record.key, record.timestamp,
                               record.headers, record.size_bytes)

    # -- read path ---------------------------------------------------------

    @property
    def base_offset(self) -> int:
        """First retained absolute offset."""
        return self._base_offset

    @property
    def end_offset(self) -> int:
        """Offset the *next* append will receive (= high watermark)."""
        return self._base_offset + len(self._sizes)

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    def __len__(self) -> int:
        """Number of retained (non-compacted) records."""
        return len(self._sizes) - self._holes

    def _span(self, offset: int, max_records: int) -> range | list[int]:
        """Slots of up to ``max_records`` retained rows from absolute
        ``offset`` on — the one range check and hole walk behind every
        read.  A partition without compaction holes answers with a
        ``range``."""
        end = self.end_offset
        if offset < self._base_offset or offset > end:
            raise OffsetOutOfRange(
                f"{self.topic}[{self.index}]: offset {offset} outside "
                f"[{self._base_offset}, {end}]"
            )
        i = offset - self._base_offset
        sizes = self._sizes
        if not self._holes:
            return range(i, max(i, min(i + max_records, len(sizes))))
        slots: list[int] = []
        while i < len(sizes) and len(slots) < max_records:
            if sizes[i]:
                slots.append(i)
            i += 1
        return slots

    def read_columns(self, offset: int, max_records: int = 512,
                     headers: bool = False) -> tuple[list, ...]:
        """Up to ``max_records`` rows from absolute ``offset`` on, as
        parallel lists ``(offsets, timestamps, values, keys)`` — and a
        fifth, each row's own headers dict, with ``headers=True``.

        Reading at ``end_offset`` returns empty columns (caught up).
        Reading before ``base_offset`` or past the end raises
        :class:`OffsetOutOfRange` — consumers must seek explicitly.
        """
        slots = self._span(offset, max_records)
        base = self._base_offset
        if type(slots) is range:
            i, j = slots.start, slots.stop
            offsets = list(range(base + i, base + j))
            columns = (offsets, self._timestamps[i:j], self._values[i:j],
                       self._keys[i:j])
        else:
            timestamps, values, keys = (self._timestamps, self._values,
                                        self._keys)
            offsets = [base + i for i in slots]
            columns = (offsets, [timestamps[i] for i in slots],
                       [values[i] for i in slots], [keys[i] for i in slots])
        if not headers:
            return columns
        stored = self._headers
        if not stored:
            return (*columns, [{} for _ in offsets])
        return (*columns, [dict(stored[o]) if o in stored else {}
                           for o in offsets])

    def read(self, offset: int, max_records: int = 512) -> list[tuple[int, Record]]:
        """:meth:`read_columns` as ``(offset, record)`` rows.  The
        records are built here, equal to what was appended."""
        offsets, timestamps, values, keys, headers = self.read_columns(
            offset, max_records, headers=True)
        return list(zip(offsets, map(Record, values, keys, timestamps,
                                     headers)))

    def get(self, offset: int) -> Record:
        """Fetch a single record by absolute offset."""
        rows = self.read(offset, max_records=1)
        if not rows or rows[0][0] != offset:
            raise OffsetOutOfRange(
                f"{self.topic}[{self.index}]: no record at offset {offset}"
            )
        return rows[0][1]

    # -- retention ----------------------------------------------------------

    def truncate_before(self, offset: int) -> int:
        """Drop records with offsets < ``offset``; returns count dropped."""
        if offset <= self._base_offset:
            return 0
        cut = min(offset, self.end_offset) - self._base_offset
        dropped = self._sizes[:cut]
        holes = dropped.count(0)
        for column in (self._values, self._keys, self._timestamps,
                       self._sizes):
            del column[:cut]
        self._base_offset += cut
        self._size_bytes -= sum(dropped)
        self._holes -= holes
        if self._headers:
            base = self._base_offset
            self._headers = {o: h for o, h in self._headers.items()
                             if o >= base}
        return cut - holes

    def enforce_retention(self, max_bytes: int | None = None,
                          min_timestamp: float | None = None) -> int:
        """Apply size and/or time retention; returns records dropped."""
        dropped = 0
        if min_timestamp is not None:
            # Find first index with timestamp >= min_timestamp; records are
            # appended in time order by convention, so a scan suffices.
            sizes, timestamps = self._sizes, self._timestamps
            i = 0
            while i < len(sizes) and not (
                    sizes[i] and timestamps[i] >= min_timestamp):
                i += 1
            dropped += self.truncate_before(self._base_offset + i)
        if max_bytes is not None:
            # Oldest slots go until the rest fits: one pass over the
            # sizes for the cut, one truncation.
            excess = self._size_bytes - max_bytes
            cut = 0
            for size in self._sizes:
                if excess <= 0:
                    break
                excess -= size
                cut += 1
            dropped += self.truncate_before(self._base_offset + cut)
        return dropped

    def clone(self) -> "Partition":
        """Exact, independent copy of retained state (the stored values
        and header mappings themselves are shared, never mutated)."""
        twin = Partition(self.topic, self.index)
        twin._values = list(self._values)
        twin._keys = list(self._keys)
        twin._timestamps = list(self._timestamps)
        twin._sizes = list(self._sizes)
        twin._headers = dict(self._headers)
        twin._base_offset = self._base_offset
        twin._size_bytes = self._size_bytes
        twin._holes = self._holes
        return twin

    def compact(self) -> int:
        """Keep only the newest record per key; returns records removed.

        Keyless records are always retained.  Offsets of survivors are
        unchanged (a removed row's slot stays, emptied, with size 0).
        """
        keys = self._keys
        latest_index: dict[str, int] = {}
        for i, key in enumerate(keys):
            if key is not None:  # keyless, or already compacted away
                latest_index[key] = i
        removed = 0
        for i, key in enumerate(keys):
            if key is None or latest_index[key] == i:
                continue
            self._size_bytes -= self._sizes[i]
            self._sizes[i] = 0
            self._values[i] = keys[i] = self._timestamps[i] = None
            self._headers.pop(self._base_offset + i, None)
            removed += 1
        self._holes += removed
        return removed
