"""Stream elements: data records, watermarks and checkpoint barriers.

Everything flowing through the dataflow graph is either an
:class:`Element` (a value with an event timestamp and optional key), a
:class:`Watermark` asserting "no element with timestamp <= t will arrive
after me", or a :class:`CheckpointBarrier` — the in-band marker the
checkpoint coordinator injects at sources (Chandy–Lamport style, see
:mod:`repro.streaming.barrier`).  Watermarks drive event-time windowing
— the mechanism that lets the timeliness experiments (T2, A3) trade
latency against completeness exactly the way the paper's Section 4.1
discusses.  Barriers never reach operator ``process`` paths: the
executor consumes them at the channel layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Element", "Watermark", "CheckpointBarrier", "StreamItem"]


@dataclass(frozen=True, slots=True)
class Element:
    """A data record in flight."""

    value: Any
    timestamp: float
    key: Any = None

    def __reduce__(self) -> tuple:
        # A slotted frozen dataclass otherwise pickles through
        # dataclasses._dataclass_getstate, which calls fields() per
        # object; every staged row is pickled several times (checkpoint
        # digest, payload, verify).
        return Element, (self.value, self.timestamp, self.key)

    def with_value(self, value: Any) -> "Element":
        return Element(value=value, timestamp=self.timestamp, key=self.key)

    def with_key(self, key: Any) -> "Element":
        return Element(value=self.value, timestamp=self.timestamp, key=key)


@dataclass(frozen=True, slots=True)
class Watermark:
    """Event-time progress marker."""

    timestamp: float


@dataclass(frozen=True, slots=True)
class CheckpointBarrier:
    """In-band checkpoint marker, numbered by the coordinator.

    A subtask that has seen barrier *n* on **all** of its input channels
    snapshots its state and forwards the barrier; everything before the
    barrier is inside checkpoint *n*, everything after will be replayed
    from the sources on a restore to *n*.
    """

    checkpoint_id: int


StreamItem = Element | Watermark | CheckpointBarrier
