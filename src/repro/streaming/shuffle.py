"""Keyed shuffles: stable key -> key-group -> subtask mapping.

The physical plan (see :mod:`repro.streaming.plan`) splits every
keyed operator into N subtasks.  Elements are routed to subtasks not by
hashing the key modulo N — which would make checkpoints unportable
across parallelism changes — but through a fixed intermediate space of
**key groups** (Flink's design): a key hashes to one of
:data:`KEY_GROUPS` groups for the lifetime of the job, and each subtask
owns a contiguous *range* of groups that depends on the current
parallelism.  Keyed state is snapshotted *per key group* — the
grouping is :class:`~repro.streaming.state.KeyedState`'s, the one
table every keyed operator keeps — so a checkpoint taken at
parallelism N can be restored at parallelism M by reassigning group
ranges: no state is ever split or rehashed.

Hashing uses FNV-1a over ``repr(key)`` (:func:`repro.util.ids.stable_hash`),
the same process-stable hash the eventlog producer partitions by, so a
topic keyed the same way and an operator at equal parallelism line up.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..util.errors import StreamError
from ..util.ids import split_ranges, stable_hash

__all__ = [
    "KEY_GROUPS",
    "key_group_for",
    "key_group_range",
    "subtask_for_key_group",
    "subtasks_for_keys",
]

#: Size of the key-group space — the *maximum parallelism* a keyed
#: operator can ever be rescaled to.  128 keeps snapshots small while
#: leaving generous headroom over realistic subtask counts.  Read at
#: call time (``shuffle.KEY_GROUPS``), so a test can rebind it.
KEY_GROUPS = 128


def key_group_for(key: Any, groups: int) -> int:
    """The key group a key belongs to — fixed for the job's lifetime.

    Keys may be any value with a deterministic ``repr`` (strings, ints,
    floats, tuples of those); ``repr`` keeps distinct types distinct
    (``1`` vs ``"1"``) where ``str`` would collide them.
    """
    if key is None:
        raise StreamError("cannot hash-partition an unkeyed element; "
                          "add key_by() upstream of the shuffle")
    return stable_hash(repr(key)) % groups


def key_group_range(groups: int, parallelism: int,
                    subtask: int) -> range:
    """The contiguous key-group range owned by one subtask."""
    if not 0 <= subtask < parallelism:
        raise StreamError(f"subtask {subtask} outside parallelism "
                          f"{parallelism}")
    return split_ranges(groups, parallelism)[subtask]


def subtask_for_key_group(key_group: int, groups: int,
                          parallelism: int) -> int:
    """Which subtask owns a key group at the given parallelism.

    Closed form of the inverse of :func:`key_group_range`:
    ``subtask = key_group * parallelism // groups``.
    """
    if not 0 <= key_group < groups:
        raise StreamError(f"key group {key_group} outside "
                          f"[0, {groups})")
    return key_group * parallelism // groups


def subtasks_for_keys(keys: Iterable[Any], groups: int,
                      parallelism: int) -> list[int]:
    """Subtask index per key — the dictionary-routing helper behind the
    columnar hash shuffle: hash each *distinct* key-dictionary entry
    once, then gather per row through the batch's codes column instead
    of hashing every element."""
    return [subtask_for_key_group(key_group_for(k, groups),
                                  groups, parallelism)
            for k in keys]
