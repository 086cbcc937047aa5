"""Keyed interval join of two streams.

Joins elements of a left and right stream that share a key and whose
event timestamps are within ``[lower, upper]`` of each other
(Flink's interval join).  Buffers are pruned by the watermark, bounding
state; each key's entry in the operator's table holds both sides'
buffers.  The two inputs are distinguished by tagging elements with a
side; the executor delivers items from each upstream edge with its tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..util.errors import StreamError
from .element import Element, StreamItem, Watermark
from .operators import Operator
from .state import KeyedState

__all__ = ["Joined", "IntervalJoinOperator"]


@dataclass(frozen=True)
class Joined:
    """One join match."""

    key: Any
    left: Any
    right: Any
    left_ts: float
    right_ts: float


class IntervalJoinOperator(Operator):
    """Two-input keyed interval join.

    ``lower <= right_ts - left_ts <= upper`` pairs match.  The executor
    calls :meth:`process_side` with side "left"/"right"; plain
    :meth:`process` raises, so mis-wiring fails loudly.
    """

    SIDES = ("left", "right")

    def __init__(self, name: str, lower: float, upper: float) -> None:
        super().__init__(name)
        if lower > upper:
            raise StreamError(f"empty join interval [{lower}, {upper}]")
        self.lower = lower
        self.upper = upper
        # key -> ([(ts, value)] on the left, [(ts, value)] on the right)
        self.state = KeyedState(default_factory=lambda: ([], []))
        self._wm: dict[str, float] = {"left": float("-inf"),
                                      "right": float("-inf")}
        self.matches = 0

    def process(self, element: Element) -> list[StreamItem]:
        raise StreamError(
            f"join {self.name!r} needs side-tagged input; wire it as a "
            "two-input operator"
        )

    def process_side(self, side: str, element: Element) -> list[StreamItem]:
        if side not in self.SIDES:
            raise StreamError(f"unknown join side {side!r}")
        if element.key is None:
            raise StreamError(f"join {self.name!r} requires keyed input")
        self.processed += 1
        mine = self.SIDES.index(side)
        rows = self.state.get_or_create(element.key)
        rows[mine].append((element.timestamp, element.value))
        out: list[StreamItem] = []
        for other_ts, other_value in rows[1 - mine]:
            if side == "left":
                delta = other_ts - element.timestamp
                left_ts, right_ts = element.timestamp, other_ts
                left_v, right_v = element.value, other_value
            else:
                delta = element.timestamp - other_ts
                left_ts, right_ts = other_ts, element.timestamp
                left_v, right_v = other_value, element.value
            if self.lower <= delta <= self.upper:
                self.matches += 1
                payload = Joined(key=element.key, left=left_v,
                                 right=right_v, left_ts=left_ts,
                                 right_ts=right_ts)
                out.append(Element(value=payload,
                                   timestamp=max(left_ts, right_ts),
                                   key=element.key))
        self.emitted += len(out)
        return out

    def process_side_batch(self, side: str,
                           items: "Iterable[StreamItem]") -> list[StreamItem]:
        """Batch dispatch for one side's channel: same per-item order and
        counters as the executor's per-item loop."""
        out: list[StreamItem] = []
        process_side = self.process_side
        on_watermark_side = self.on_watermark_side
        for item in items:
            if isinstance(item, Watermark):
                out.extend(on_watermark_side(side, item))
            else:
                out.extend(process_side(side, item))
        return out

    def on_watermark_side(self, side: str, watermark: Watermark) -> list[StreamItem]:
        """Advance one side's watermark; prune; forward the min watermark."""
        self._wm[side] = max(self._wm[side], watermark.timestamp)
        combined = min(self._wm.values())
        self._prune(combined)
        return [Watermark(combined)] if combined > float("-inf") else []

    def on_watermark(self, watermark: Watermark) -> list[StreamItem]:
        raise StreamError(
            f"join {self.name!r} needs side-tagged watermarks"
        )

    def _prune(self, watermark: float) -> None:
        """Drop buffered entries that can no longer match anything.

        A left element at ts can match right elements in
        [ts+lower, ts+upper]; once the watermark passes ts+upper it is
        dead.  Symmetrically for the right side with -lower.
        """
        horizons = (self.upper, -self.lower)
        dead = []
        for key, rows in self.state.items():
            for side, horizon in zip(rows, horizons):
                side[:] = [(ts, v) for ts, v in side
                           if ts + horizon >= watermark]
            if not any(rows):
                dead.append(key)
        for key in dead:
            self.state.remove(key)

    def buffered(self) -> int:
        return sum(len(left) + len(right)
                   for _, (left, right) in self.state.items())

    def snapshot(self) -> Any:
        return {"wm": dict(self._wm), "matches": self.matches}

    def restore(self, scalars: list[Any], primary: bool = True,
                exact: bool = True) -> None:
        """Per-side watermarks regress to the minimum over ``scalars``
        (prune later, never earlier); the match total rides the
        primary subtask."""
        self._wm = {side: min(s["wm"][side] for s in scalars)
                    for side in self.SIDES}
        self.matches = sum(s["matches"] for s in scalars) if primary else 0
