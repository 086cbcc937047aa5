"""A single append-only partition.

Offsets are absolute and never reused; nothing truncates or compacts a
partition, so offset ``i`` is slot ``i`` and every read is one slice.

The partition stores columns, not records: one slot per offset in
parallel lists (value, key, timestamp) plus a sparse
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
        # Slot i of every list is offset i.
        self._values: list[Any] = []
        self._keys: list[str | None] = []
        self._timestamps: list[float] = []
        #: absolute offset -> headers, for the rows that have any
        self._headers: dict[int, Mapping[str, str]] = {}
        #: priced size of every row appended
        self._size_bytes = 0

    # -- write path --------------------------------------------------------

    def append_row(self, value: Any, key: str | None, timestamp: float,
                   headers: Mapping[str, str] | None, size: int) -> int:
        """Append one row and return its absolute offset.  ``size`` is
        ``record_size(value, key, headers)``, priced by the caller; a
        non-empty ``headers`` mapping is stored as given."""
        offset = len(self._timestamps)
        self._values.append(value)
        self._keys.append(key)
        self._timestamps.append(timestamp)
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
    def end_offset(self) -> int:
        """Offset the *next* append will receive (= high watermark)."""
        return len(self._timestamps)

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    def __len__(self) -> int:
        return len(self._timestamps)

    def read_columns(self, offset: int, max_records: int = 512,
                     headers: bool = False) -> tuple[list, ...]:
        """Up to ``max_records`` rows from absolute ``offset`` on, as
        parallel lists ``(offsets, timestamps, values, keys)`` — and a
        fifth, each row's own headers dict, with ``headers=True``.

        Reading at ``end_offset`` returns empty columns (caught up).
        Reading before 0 or past the end raises
        :class:`OffsetOutOfRange` — consumers must seek explicitly.
        """
        end = len(self._timestamps)
        if not 0 <= offset <= end:
            raise OffsetOutOfRange(
                f"{self.topic}[{self.index}]: offset {offset} outside "
                f"[0, {end}]"
            )
        stop = min(offset + max(max_records, 0), end)
        offsets = list(range(offset, stop))
        columns = (offsets, self._timestamps[offset:stop],
                   self._values[offset:stop], self._keys[offset:stop])
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
        if not rows:
            raise OffsetOutOfRange(
                f"{self.topic}[{self.index}]: no record at offset {offset}"
            )
        return rows[0][1]

    def clone(self) -> "Partition":
        """Exact, independent copy (the stored values and header
        mappings themselves are shared, never mutated)."""
        twin = Partition(self.topic, self.index)
        twin._values = list(self._values)
        twin._keys = list(self._keys)
        twin._timestamps = list(self._timestamps)
        twin._headers = dict(self._headers)
        twin._size_bytes = self._size_bytes
        return twin
