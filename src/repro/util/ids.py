"""Deterministic stable hashing and range assignment.

:func:`stable_hash` (FNV-1a, process-stable — unlike built-in ``hash``)
and :func:`split_ranges` (contiguous range assignment of N items to P
workers) live here because both the eventlog layer (producer
partitioning, consumer-group rebalance) and the streaming layer (key
groups, source-split assignment) need the *same* deterministic
primitives without importing each other.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["stable_hash", "split_ranges"]


#: distinct keys whose hash stays memoised (a few MB of short strings)
_HASH_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=_HASH_CACHE_SIZE)
def stable_hash(key: str) -> int:
    """FNV-1a 64-bit — stable across processes, unlike built-in hash().

    Memoised: the loop below runs per key *byte*, and both callers (a
    producer partitioning every send, a shuffle routing every row) see
    the same keys over and over.
    """
    h = 1469598103934665603
    for byte in key.encode("utf-8"):
        h ^= byte
        h = (h * 1099511628211) % (1 << 64)
    return h


def split_ranges(n_items: int, n_workers: int) -> list[range]:
    """Contiguous range assignment of ``n_items`` slots to ``n_workers``.

    Worker ``i`` owns ``range(ceil(i*n/w), ceil((i+1)*n/w))`` — the
    Flink key-group formula, which the consumer group's range assignment
    and the streaming layer's key-group/split mapping both use, so a
    topic partitioned P-ways and an operator at parallelism P line up
    slot for slot.  Sizes differ by at most one; early workers get the
    extra slots.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    out = []
    for i in range(n_workers):
        start = -(-(i * n_items) // n_workers)        # ceil division
        stop = -(-((i + 1) * n_items) // n_workers)
        out.append(range(start, stop))
    return out
