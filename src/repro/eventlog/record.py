"""Records: the unit of data in the event log.

A :class:`Record` mirrors a Kafka record: optional key (drives
partitioning), arbitrary value, event timestamp, and headers.
``size_bytes`` gives the serialized-size estimate used by the network
model and a partition's byte count — values are plain Python objects,
so we price them structurally instead of actually serializing.

A partition stores a row's fields in columns, not a ``Record``: records
are built where a caller asks for one (``read``, ``get``,
``ConsumedRecord.record``) and are copies — nothing done to one reaches
the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Record", "ConsumedRecord", "estimate_size", "record_size"]


def estimate_size(value: Any) -> int:
    """Rough serialized size in bytes of a Python value.

    Deterministic and cheap; used for a partition's byte count and transfer
    pricing, not for actual wire formats.
    """
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, Mapping):
        return sum(estimate_size(k) + estimate_size(v) for k, v in value.items()) + 2
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(estimate_size(v) for v in value) + 2
    # Fallback: objects with __dict__ priced by their attributes.
    attrs = getattr(value, "__dict__", None)
    if attrs is not None:
        return estimate_size(attrs)
    return 16


def record_size(value: Any, key: str | None = None,
                headers: Mapping[str, str] | None = None) -> int:
    """Serialized-size estimate of one log row: value + timestamp, key,
    headers.  The common row (a float, an ASCII key, no headers) is
    priced without the generic calls; the sizes are the same bytes
    either way.  A float is priced whatever its value, so
    ``record_size(0.0, key)`` prices every float row with that key and
    no headers: what the producer's key memo keeps."""
    size = 16 if type(value) is float else estimate_size(value) + 8
    if key is not None:
        size += len(key) if key.isascii() else len(key.encode("utf-8"))
    if headers:
        size += sum(len(k) + len(v) for k, v in headers.items())
    return size


@dataclass(slots=True)
class Record:
    """One log record, as a value: equality and repr are over ``value``,
    ``key``, ``timestamp`` and ``headers``."""

    value: Any
    key: str | None = None
    timestamp: float = 0.0
    headers: Mapping[str, str] = field(default_factory=dict)
    _size: int | None = field(default=None, init=False, compare=False,
                              repr=False)

    @property
    def size_bytes(self) -> int:
        """:func:`record_size` of the fields, priced on first read."""
        size = self._size
        if size is None:
            size = self._size = record_size(self.value, self.key,
                                            self.headers)
        return size


@dataclass(slots=True)
class ConsumedRecord:
    """A log row as seen by a consumer: its coordinates and its fields,
    flat.  ``record`` builds the :class:`Record` on demand."""

    topic: str
    partition: int
    offset: int
    value: Any
    key: str | None
    timestamp: float
    headers: Mapping[str, str]

    @property
    def record(self) -> Record:
        return Record(self.value, self.key, self.timestamp, self.headers)
