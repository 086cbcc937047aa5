"""Records: the unit of data in the event log.

A :class:`Record` mirrors a Kafka record: optional key (drives
partitioning and compaction), arbitrary value, event timestamp, and
headers.  ``size_bytes`` gives the serialized-size estimate used by the
network and retention models — values are plain Python objects, so we
price them structurally instead of actually serializing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Record", "estimate_size"]


def estimate_size(value: Any) -> int:
    """Rough serialized size in bytes of a Python value.

    Deterministic and cheap; used for retention accounting and transfer
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


@dataclass(frozen=True)
class Record:
    """One immutable log record."""

    value: Any
    key: str | None = None
    timestamp: float = 0.0
    headers: Mapping[str, str] = field(default_factory=dict)
    #: serialized-size estimate, priced once at construction: a record
    #: is immutable, and every send reads this twice (producer
    #: accounting, partition append) before retention reads it again
    size_bytes: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # value + timestamp.  The common record (a float, an ASCII key,
        # no headers) is priced without the generic calls; the sizes are
        # the same bytes either way, retention arithmetic reads them.
        value = self.value
        size = 16 if type(value) is float else estimate_size(value) + 8
        key = self.key
        if key is not None:
            size += (len(key) if key.isascii()
                     else len(key.encode("utf-8")))
        headers = self.headers
        if headers:
            size += sum(len(k) + len(v) for k, v in headers.items())
        object.__setattr__(self, "size_bytes", size)


@dataclass(frozen=True)
class ConsumedRecord:
    """A record as seen by a consumer: includes its coordinates."""

    topic: str
    partition: int
    offset: int
    record: Record

    @property
    def value(self) -> Any:
        return self.record.value

    @property
    def key(self) -> str | None:
        return self.record.key

    @property
    def timestamp(self) -> float:
        return self.record.timestamp

    @property
    def headers(self) -> Mapping[str, str]:
        return self.record.headers
