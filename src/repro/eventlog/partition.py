"""A single append-only partition with retention and compaction.

Offsets are absolute and never reused: after retention truncates the
head, ``base_offset`` records where the retained range starts, exactly
like Kafka's log start offset.  Compaction keeps the latest record per
key (plus all keyless records), preserving offsets.
"""

from __future__ import annotations

from ..util.errors import OffsetOutOfRange
from .record import Record

__all__ = ["Partition"]


class Partition:
    """Append-only record sequence with absolute offsets, read as rows
    (``read``) or as columns (``read_columns``)."""

    def __init__(self, topic: str, index: int) -> None:
        self.topic = topic
        self.index = index
        self._records: list[Record | None] = []  # None = compacted away
        self._base_offset = 0
        self._size_bytes = 0
        self._holes = 0  # retained None slots; 0 = every read is a slice

    # -- write path --------------------------------------------------------

    def append(self, record: Record) -> int:
        """Append and return the record's absolute offset."""
        self._records.append(record)
        self._size_bytes += record.size_bytes
        return self._base_offset + len(self._records) - 1

    # -- read path ---------------------------------------------------------

    @property
    def base_offset(self) -> int:
        """First retained absolute offset."""
        return self._base_offset

    @property
    def end_offset(self) -> int:
        """Offset the *next* append will receive (= high watermark)."""
        return self._base_offset + len(self._records)

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    def __len__(self) -> int:
        """Number of retained (non-compacted) records."""
        return len(self._records) - self._holes

    def _fetch(self, offset: int,
               max_records: int) -> tuple[list[int] | range, list[Record]]:
        """Offsets and records of up to ``max_records`` retained records
        from absolute ``offset`` on — the one range check and hole walk
        behind :meth:`read` and :meth:`read_columns`.  A partition
        without compaction holes answers with a list slice."""
        end = self.end_offset
        if offset == end:
            return (), []
        if offset < self._base_offset or offset > end:
            raise OffsetOutOfRange(
                f"{self.topic}[{self.index}]: offset {offset} outside "
                f"[{self._base_offset}, {end}]"
            )
        i = offset - self._base_offset
        if not self._holes:
            records = self._records[i:i + max_records]
            return range(offset, offset + len(records)), records
        offsets: list[int] = []
        records = []
        slots = self._records
        while i < len(slots) and len(records) < max_records:
            record = slots[i]
            if record is not None:
                offsets.append(self._base_offset + i)
                records.append(record)
            i += 1
        return offsets, records

    def read(self, offset: int, max_records: int = 512) -> list[tuple[int, Record]]:
        """Read up to ``max_records`` starting at absolute ``offset``.

        Reading at ``end_offset`` returns an empty list (caught up).
        Reading before ``base_offset`` or past the end raises
        :class:`OffsetOutOfRange` — consumers must seek explicitly.
        """
        return list(zip(*self._fetch(offset, max_records)))

    def read_columns(self, offset: int, max_records: int = 512,
                     ) -> tuple[list[int], list[float], list, list]:
        """:meth:`read` as columns — ``(offsets, timestamps, values,
        keys)`` of the same records, without a tuple per row."""
        offsets, records = self._fetch(offset, max_records)
        return (list(offsets), [r.timestamp for r in records],
                [r.value for r in records], [r.key for r in records])

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
        dropped = self._records[:cut]
        self._records = self._records[cut:]
        self._base_offset += cut
        self._size_bytes -= sum(r.size_bytes for r in dropped if r is not None)
        live = sum(1 for r in dropped if r is not None)
        self._holes -= cut - live
        return live

    def enforce_retention(self, max_bytes: int | None = None,
                          min_timestamp: float | None = None) -> int:
        """Apply size and/or time retention; returns records dropped."""
        dropped = 0
        if min_timestamp is not None:
            # Find first index with timestamp >= min_timestamp; records are
            # appended in time order by convention, so a scan suffices.
            i = 0
            while i < len(self._records):
                record = self._records[i]
                if record is not None and record.timestamp >= min_timestamp:
                    break
                i += 1
            dropped += self.truncate_before(self._base_offset + i)
        if max_bytes is not None:
            while self._size_bytes > max_bytes and self._records:
                dropped += self.truncate_before(self._base_offset + 1)
        return dropped

    def clone(self) -> "Partition":
        """Exact copy of retained state (records are immutable, shared)."""
        twin = Partition(self.topic, self.index)
        twin._records = list(self._records)
        twin._base_offset = self._base_offset
        twin._size_bytes = self._size_bytes
        twin._holes = self._holes
        return twin

    def compact(self) -> int:
        """Keep only the newest record per key; returns records removed.

        Keyless records are always retained.  Offsets of survivors are
        unchanged (tombstoned slots stay as ``None`` placeholders).
        """
        latest_index: dict[str, int] = {}
        for i, record in enumerate(self._records):
            if record is not None and record.key is not None:
                latest_index[record.key] = i
        removed = 0
        for i, record in enumerate(self._records):
            if record is None or record.key is None:
                continue
            if latest_index[record.key] != i:
                self._size_bytes -= record.size_bytes
                self._records[i] = None
                removed += 1
        self._holes += removed
        return removed
