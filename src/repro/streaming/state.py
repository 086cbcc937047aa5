"""Keyed state: the one table every keyed operator keeps per-key values in.

The window and CEP operators each hold their per-key values in
one :class:`KeyedState`, exposed as ``op.state``.  The executor
snapshots and restores that table *by key group*
(:meth:`KeyedState.snapshot_by_group` / :meth:`KeyedState.restore_groups`)
— the unit of redistribution when a job is rescaled; see
:mod:`repro.streaming.shuffle` for the key -> key group -> subtask map.
An operator checkpoints only its scalar part (watermarks, counters)
itself; see :class:`~repro.streaming.operators.Operator`.

A table is built with the copy its values need: a function returning an
independent duplicate of a ``{key: value}`` dict, :func:`~copy.deepcopy`
by default.  Every snapshot and every restore goes through it, so a
checkpoint and the live table never share anything mutable.  An
operator that defers writes (the window's parked rows) also passes a
``settle`` hook, which every snapshot calls first: nothing copies the
table before it is up to date.
"""

from __future__ import annotations

from copy import deepcopy
from typing import Any, Callable, ItemsView, Iterable

from .shuffle import key_group_for

__all__ = ["KeyedState"]


class KeyedState:
    """Per-key mutable state, snapshotted whole or by key group."""

    def __init__(self, default_factory: Callable[[], Any] | None = None,
                 copy: Callable[[dict], dict] = deepcopy,
                 settle: Callable[[], None] | None = None) -> None:
        self._data: dict[Any, Any] = {}
        self._default_factory = default_factory
        self._copy = copy
        self._settle = settle

    def get(self, key: Any) -> Any:
        """Read-only lookup: a missing key returns the factory's default
        (or ``None``) **without** materializing an entry, so probing
        never changes ``snapshot()``/``len()``.  Use
        :meth:`get_or_create` when the entry should persist.
        """
        try:
            return self._data[key]
        except KeyError:
            if self._default_factory is not None:
                return self._default_factory()
            return None

    def get_or_create(self, key: Any) -> Any:
        """Lookup that materializes (and returns) the factory default for
        a missing key — the explicitly-mutating twin of :meth:`get`."""
        if key not in self._data and self._default_factory is not None:
            self._data[key] = self._default_factory()
        return self._data.get(key)

    def put(self, key: Any, value: Any) -> None:
        self._data[key] = value

    # -- bulk access (columnar kernels) --------------------------------------

    def get_existing(self, key: Any) -> Any:
        """Raw lookup without the default factory (None when absent) —
        what a grouped reduction wants: distinguish "no accumulator yet"
        from a factory-made empty one without materializing anything."""
        return self._data.get(key)

    def remove(self, key: Any) -> None:
        self._data.pop(key, None)

    def keys(self) -> list[Any]:
        return list(self._data)

    def items(self) -> ItemsView[Any, Any]:
        """Live ``(key, value)`` view, in insertion order: do not add or
        remove keys while iterating it."""
        return self._data.items()

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def snapshot(self) -> dict[Any, Any]:
        """An independent copy of the whole table."""
        if self._settle is not None:
            self._settle()
        return self._copy(self._data)

    def restore(self, snapshot: dict[Any, Any]) -> None:
        self._data = self._copy(snapshot)

    def clear(self) -> None:
        self._data.clear()

    # -- key-group snapshots (checkpoints) ------------------------------------

    def snapshot_by_group(self, key_groups: int) -> dict[int, dict]:
        """An independent copy of the table split into key-group blobs —
        what a checkpoint records, and the unit a rescale reassigns."""
        groups: dict[int, dict] = {}
        for key, value in self.snapshot().items():
            group = key_group_for(key, key_groups)
            groups.setdefault(group, {})[key] = value
        return groups

    def restore_groups(self, groups: Iterable[dict[Any, Any]]) -> None:
        """Replace the table with the union of key-group blobs (disjoint
        by construction), copied so the blobs stay untouched."""
        merged: dict[Any, Any] = {}
        for blob in groups:
            merged.update(blob)
        self._data = self._copy(merged)
