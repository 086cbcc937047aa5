"""Window assigners: tumbling.

A :class:`Window` is a half-open event-time interval [start, end).
Assigners map an element timestamp to the window(s) it belongs to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..util.errors import ConfigError

__all__ = [
    "Window",
    "WindowAssigner",
    "TumblingWindows",
]


@dataclass(frozen=True, order=True)
class Window:
    """Half-open event-time interval [start, end)."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigError(f"empty window [{self.start}, {self.end})")

    def contains(self, timestamp: float) -> bool:
        return self.start <= timestamp < self.end


class WindowAssigner:
    """Maps a timestamp to the windows containing it."""

    def assign(self, timestamp: float) -> list[Window]:
        raise NotImplementedError


class TumblingWindows(WindowAssigner):
    """Fixed, non-overlapping windows of ``size`` seconds, aligned on
    multiples of ``size``."""

    def __init__(self, size: float) -> None:
        # The chained comparison refuses NaN and inf too: either would put
        # every row in ``Window(nan, nan)``, a window that never fires.
        if not 0 < size < math.inf:
            raise ConfigError(
                f"window size must be positive and finite, got {size!r}")
        self.size = size
        self._last: tuple[float, list[Window]] | None = None

    def assign(self, timestamp: float) -> list[Window]:
        # ``+ 0.0`` makes the start of ``-0.0``'s window ``+0.0``.
        start = (timestamp // self.size) * self.size + 0.0
        if timestamp >= start + self.size:
            # ``start + size`` rounded onto the timestamp (a boundary
            # timestamp whose exact quotient sits just below the next
            # index), so the half-open window would exclude its own
            # element: step into the next window, which starts exactly
            # there.  A no-op whenever the window already contains it.
            start += self.size
        # Consecutive timestamps overwhelmingly land in the same bucket;
        # reuse the last Window instead of re-constructing it (callers
        # never mutate the returned list).
        last = self._last
        if last is not None and last[0] == start:
            return last[1]
        windows = [Window(start, start + self.size)]
        self._last = (start, windows)
        return windows

    def assign_starts(self, timestamps):
        """Vectorized window starts for a float64 timestamp array.

        IEEE-754 float64 arithmetic is identical element-wise to the
        scalar expression in :meth:`assign` — the one-step boundary
        correction included — so grouped (columnar) window assignment
        lands every element in the same bucket as per-item assignment.
        """
        starts = (timestamps // self.size) * self.size + 0.0
        ends = starts + self.size
        over = timestamps >= ends
        if over.any():
            starts[over] = ends[over]
        return starts
