"""Complex event processing: keyed sequence patterns.

Single-signal thresholds miss compound conditions ("tachycardia AND
falling blood pressure within five minutes" means something very
different from either alone).  :class:`PatternOperator` matches an
ordered sequence of predicates per key within a time window, Flink-CEP
style with skip-till-next-match semantics: intervening non-matching
elements are ignored, each element advances at most one active partial
match, and a completed match emits a :class:`PatternMatch` and resets
that key's state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..util.errors import StreamError
from .element import Element, StreamItem, Watermark
from .operators import Operator
from .state import KeyedState

__all__ = ["PatternStep", "PatternMatch", "PatternOperator"]


@dataclass(frozen=True)
class PatternStep:
    """One stage of the sequence."""

    name: str
    predicate: Callable[[Any], bool]


@dataclass(frozen=True)
class PatternMatch:
    """A completed sequence for one key."""

    key: Any
    events: tuple[Any, ...]
    timestamps: tuple[float, ...]


def _copy_partials(partials: dict) -> dict:
    """Copy of the partial-match table: fresh lists, shared events."""
    return {key: (list(events), list(timestamps))
            for key, (events, timestamps) in partials.items()}


class PatternOperator(Operator):
    """Keyed sequence matching within a time window."""

    def __init__(self, name: str, steps: Sequence[PatternStep],
                 within_s: float) -> None:
        super().__init__(name)
        if len(steps) < 2:
            raise StreamError("a pattern needs at least two steps")
        if within_s <= 0:
            raise StreamError("within_s must be positive")
        names = [s.name for s in steps]
        if len(set(names)) != len(names):
            raise StreamError("pattern step names must be unique")
        self.steps = list(steps)
        self.within_s = within_s
        # key -> the partial match: (events, timestamps)
        self.state = KeyedState(default_factory=lambda: ([], []),
                                copy=_copy_partials)
        self.matches = 0

    def process(self, element: Element) -> list[StreamItem]:
        if element.key is None:
            raise StreamError(
                f"pattern {self.name!r} requires keyed input")
        events, timestamps = self.state.get_or_create(element.key)
        # Expire a stale partial before extending it.
        if timestamps and element.timestamp - timestamps[0] > self.within_s:
            # Restart: the head of the window slid past; try to re-seed
            # with this element as a fresh first step.
            events.clear()
            timestamps.clear()
        step = self.steps[len(events)]
        if not step.predicate(element.value):
            return []  # skip-till-next-match: ignore non-matching events
        events.append(element.value)
        timestamps.append(element.timestamp)
        if len(events) < len(self.steps):
            return []
        match = PatternMatch(key=element.key, events=tuple(events),
                             timestamps=tuple(timestamps))
        self.state.remove(element.key)
        self.matches += 1
        return [Element(value=match, timestamp=element.timestamp,
                        key=element.key)]

    def on_watermark(self, watermark: Watermark) -> list[StreamItem]:
        # Garbage-collect partials that can no longer complete.
        dead = [key for key, (_, timestamps) in self.state.items()
                if timestamps
                and watermark.timestamp - timestamps[0] > self.within_s]
        for key in dead:
            self.state.remove(key)
        return [watermark]

    def snapshot(self) -> Any:
        return {"matches": self.matches}

    def restore(self, scalars: list[Any], primary: bool = True,
                exact: bool = True) -> None:
        """The match total rides the primary subtask."""
        self.matches = sum(s["matches"] for s in scalars) if primary else 0
