"""Streaming heavy hitters: count-min sketch + candidate heap.

Exact per-key counting (one counter per key) needs memory linear in the
key cardinality — fine for product catalogs, fatal for open-ended keys
(hashtags, visited cells).  :class:`HeavyHitters` keeps the classic
bounded-memory alternative: frequencies estimated by a count-min sketch,
with only the current top-k candidates materialized.
"""

from __future__ import annotations

import heapq

from ..util.errors import ConfigError
from .sketches import CountMinSketch

__all__ = ["HeavyHitters"]


class HeavyHitters:
    """Approximate top-k over an unbounded key domain."""

    def __init__(self, k: int, epsilon: float = 0.001) -> None:
        if k < 1:
            raise ConfigError("k must be >= 1")
        self.k = k
        self._sketch = CountMinSketch(epsilon=epsilon)
        # Min-heap of (estimate, key); _members mirrors heap membership.
        self._heap: list[tuple[int, str]] = []
        self._members: set[str] = set()

    def add(self, key: str, count: int = 1) -> None:
        self._sketch.add(key, count)
        estimate = self._sketch.estimate(key)
        if key in self._members:
            # Lazy update: stale entries are refreshed when popped.
            heapq.heappush(self._heap, (estimate, key))
            return
        if len(self._members) < self.k:
            self._members.add(key)
            heapq.heappush(self._heap, (estimate, key))
            return
        # Evict the current minimum if this key now exceeds it.
        self._compact()
        if self._heap and estimate > self._heap[0][0]:
            _old_est, evicted = heapq.heappop(self._heap)
            self._members.discard(evicted)
            self._members.add(key)
            heapq.heappush(self._heap, (estimate, key))

    def _compact(self) -> None:
        """Drop stale heap entries (evicted keys, outdated estimates)."""
        fresh: dict[str, int] = {}
        for _est, key in self._heap:
            if key in self._members:
                fresh[key] = self._sketch.estimate(key)
        self._heap = [(est, key) for key, est in fresh.items()]
        heapq.heapify(self._heap)

    def top(self) -> list[tuple[str, int]]:
        """Current top-k candidates, highest estimate first."""
        self._compact()
        ranked = sorted(((key, est) for est, key in self._heap),
                        key=lambda kv: (-kv[1], kv[0]))
        return ranked[: self.k]

    def estimate(self, key: str) -> int:
        return self._sketch.estimate(key)
