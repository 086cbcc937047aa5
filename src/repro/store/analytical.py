"""Columnar historical store: the analytics-facing scan tier.

The read-optimized half of the tiered store.  Committed epochs append
as immutable **segments** — numpy timestamp/metric columns plus a
dictionary-encoded key column sharing one store-wide key table, the
same representation :class:`~repro.streaming.batch.RecordBatch` moves
through the engine.  A small query layer (filter / group-by /
tumbling-window aggregate) runs directly over the consolidated columns,
so dashboard queries are a handful of numpy reductions rather than
per-row Python.

Values may be opaque objects (app payloads are usually dicts); a
``metric_fn`` extracts the numeric column at append time, and the raw
objects stay available for callable-keyed regrouping (``by=``).

Appends go **only** through :meth:`append_epoch`, guarded by
``last_applied_epoch`` exactly like the hot shards: staging takes the
epoch's batch column by column (timestamps as they are, the metric
column, key codes through one remap array) and resolves new keys
against a *staged extension* of the key table; the install extends the
table, appends one segment and flips the epoch — so a discarded stage
leaves no trace and a crash-and-replay of the commit stream never
double-appends a row.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

import numpy as np

from ..streaming.batch import RecordBatch, as_batch
from ..streaming.element import Element
from ..util.errors import StoreError

__all__ = ["AnalyticalStore"]

_AGGS = ("sum", "mean", "count", "min", "max")


def _default_metric(value: Any) -> float:
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    return math.nan


class AnalyticalStore:
    """Append-only columnar history with a numpy query layer."""

    def __init__(self, metric_fn: Callable[[Any], float] | None = None
                 ) -> None:
        self.metric_fn = metric_fn if metric_fn is not None \
            else _default_metric
        self._segments: list[dict[str, Any]] = []
        self._key_index: dict[Any, int] = {}
        self._key_dict: list[Any] = []
        self._consolidated: dict[str, Any] | None = None
        self.last_applied_epoch = 0
        self.rows = 0
        self.appends = 0

    # -- epoch append (the only mutation path) -------------------------------

    def stage_epoch(self, epoch: int,
                    rows: RecordBatch | Iterable[Element],
                    raw: list | None = None) -> dict[str, Any] | None:
        """Take one epoch's rows (a batch, or Elements encoded here) as
        columns, off to the side: nothing of the store changes, whether
        the token is installed, dropped, or ``metric_fn`` raises half
        way.  ``raw`` is the batch's decoded value list when the caller
        already has it.  Returns ``None`` when the epoch is already
        applied."""
        if epoch <= self.last_applied_epoch:
            return None
        batch = as_batch(rows)
        if raw is None:
            raw = batch.values_list()
        values = batch.values
        if self.metric_fn is _default_metric \
                and isinstance(values, np.ndarray) \
                and values.dtype == np.float64:
            metric = values
        else:
            metric = np.asarray(list(map(self.metric_fn, raw)),
                                dtype=np.float64)
        # Codes of the batch's own dictionary -> store-wide codes; keys
        # the table lacks get the codes an install will give them.
        codes, keys = batch.key_column()
        base = len(self._key_dict)
        remap = list(map(self._key_index.get, keys))
        new_keys: dict[Any, int] = {}
        if None in remap:
            for i, code in enumerate(remap):
                if code is None:
                    remap[i] = new_keys.setdefault(keys[i],
                                                   base + len(new_keys))
        remap = np.asarray(remap, dtype=np.int64)
        return {"epoch": epoch, "ts": batch.timestamps, "metric": metric,
                "codes": remap[codes], "raw": raw,
                "key_base": base, "new_keys": list(new_keys)}

    def install_epoch(self, staged: dict[str, Any] | None) -> int:
        """Install a staged epoch: key-table extension, one segment,
        the epoch flip.  A token staged against another key table (an
        epoch that brought new keys was installed since) is refused
        before anything changes."""
        if staged is None:
            return 0
        epoch = staged["epoch"]
        if epoch <= self.last_applied_epoch:
            return 0
        if staged["key_base"] != len(self._key_dict):
            raise StoreError(
                f"staged epoch {epoch} is stale: the analytical key "
                "table grew since it was staged")
        for key in staged["new_keys"]:
            self._key_index[key] = len(self._key_dict)
            self._key_dict.append(key)
        self._segments.append(staged)
        self._consolidated = None
        self.rows += len(staged["ts"])
        self.last_applied_epoch = epoch
        self.appends += 1
        return len(staged["ts"])

    def append_epoch(self, epoch: int,
                     rows: RecordBatch | Iterable[Element]) -> int:
        return self.install_epoch(self.stage_epoch(epoch, rows))

    # -- consolidated columns ------------------------------------------------

    def columns(self) -> dict[str, Any]:
        """All segments as one set of columns (cached until the next
        append): ``ts``/``metric``/``codes`` arrays plus ``raw`` list
        and the shared ``key_dict``."""
        if self._consolidated is None:
            if self._segments:
                self._consolidated = {
                    "ts": np.concatenate(
                        [s["ts"] for s in self._segments]),
                    "metric": np.concatenate(
                        [s["metric"] for s in self._segments]),
                    "codes": np.concatenate(
                        [s["codes"] for s in self._segments]),
                    "raw": [v for s in self._segments for v in s["raw"]],
                }
            else:
                self._consolidated = {
                    "ts": np.empty(0, dtype=np.float64),
                    "metric": np.empty(0, dtype=np.float64),
                    "codes": np.empty(0, dtype=np.int64),
                    "raw": [],
                }
        cols = dict(self._consolidated)
        cols["key_dict"] = self._key_dict
        return cols

    def _mask(self, cols: dict[str, Any], keys: Iterable[Any] | None,
              start: float | None, end: float | None) -> np.ndarray:
        mask = np.ones(len(cols["ts"]), dtype=bool)
        if keys is not None:
            wanted = {self._key_index[k] for k in keys
                      if k in self._key_index}
            if wanted:
                mask &= np.isin(cols["codes"],
                                np.fromiter(wanted, dtype=np.int64))
            else:
                mask &= False
        if start is not None:
            mask &= cols["ts"] >= start
        if end is not None:
            mask &= cols["ts"] < end
        return mask

    # -- query layer ---------------------------------------------------------

    def _select(self, keys: Iterable[Any] | None, start: float | None,
                end: float | None) -> tuple[dict[str, Any], np.ndarray]:
        """The consolidated columns and the indices of the rows in a
        key set and/or half-open time range.  Callers gather only the
        columns they read: ``raw`` is a Python list, and gathering it
        costs more than the numpy reductions of a dashboard query."""
        cols = self.columns()
        return cols, np.flatnonzero(self._mask(cols, keys, start, end))

    def filter(self, keys: Iterable[Any] | None = None,
               start: float | None = None,
               end: float | None = None) -> dict[str, Any]:
        """Row subset by key set and/or half-open time range, as
        columns (plus the raw value list, same order)."""
        cols, idx = self._select(keys, start, end)
        raw = cols["raw"]
        return {"ts": cols["ts"][idx], "metric": cols["metric"][idx],
                "codes": cols["codes"][idx],
                "raw": [raw[i] for i in idx.tolist()],
                "key_dict": self._key_dict}

    def count(self, keys: Iterable[Any] | None = None,
              start: float | None = None, end: float | None = None) -> int:
        cols = self.columns()
        return int(self._mask(cols, keys, start, end).sum())

    @staticmethod
    def _reduce(agg: str, codes: np.ndarray, metric: np.ndarray,
                size: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-code aggregate over dense code space [0, size); returns
        (touched codes, aggregated values)."""
        counts = np.bincount(codes, minlength=size)
        touched = np.flatnonzero(counts)
        if agg == "count":
            return touched, counts[touched].astype(np.float64)
        if agg in ("sum", "mean"):
            sums = np.bincount(codes, weights=metric, minlength=size)
            if agg == "sum":
                return touched, sums[touched]
            return touched, sums[touched] / counts[touched]
        fill = math.inf if agg == "min" else -math.inf
        extrema = np.full(size, fill, dtype=np.float64)
        op = np.minimum if agg == "min" else np.maximum
        op.at(extrema, codes, metric)
        return touched, extrema[touched]

    def group_by(self, agg: str = "sum",
                 keys: Iterable[Any] | None = None,
                 start: float | None = None, end: float | None = None,
                 by: Callable[[Any], Any] | None = None) -> dict[Any, float]:
        """Aggregate the metric per key.

        ``by`` regroups by a callable over the *raw* values (e.g.
        ``lambda v: v["item"]``) — a per-row Python path for dashboard
        pivots the key column does not carry; omit it for the numpy
        fast path over dictionary codes.
        """
        if agg not in _AGGS:
            raise StoreError(f"unknown aggregate {agg!r} "
                             f"(expected one of {_AGGS})")
        cols, idx = self._select(keys, start, end)
        metric = cols["metric"][idx]
        if by is not None:
            raw = cols["raw"]
            groups: dict[Any, list[float]] = {}
            for i, m in zip(idx.tolist(), metric.tolist()):
                groups.setdefault(by(raw[i]), []).append(m)
            return {g: self._scalar(agg, vals)
                    for g, vals in groups.items()}
        touched, values = self._reduce(agg, cols["codes"][idx], metric,
                                       len(self._key_dict))
        kd = self._key_dict
        return {kd[c]: float(v)
                for c, v in zip(touched.tolist(), values.tolist())}

    @staticmethod
    def _scalar(agg: str, vals: list[float]) -> float:
        if agg == "count":
            return float(len(vals))
        if agg == "sum":
            return float(sum(vals))
        if agg == "mean":
            return float(sum(vals) / len(vals))
        return float(min(vals) if agg == "min" else max(vals))

    def tumbling(self, window_s: float, agg: str = "sum",
                 keys: Iterable[Any] | None = None,
                 start: float | None = None, end: float | None = None,
                 ) -> dict[tuple[Any, float], float]:
        """Per-key tumbling-window aggregate:
        ``(key, window_start) -> value``, computed as one composite
        bincount over ``code * n_windows + window_index``."""
        if window_s <= 0:
            raise StoreError("window_s must be positive")
        if agg not in _AGGS:
            raise StoreError(f"unknown aggregate {agg!r} "
                             f"(expected one of {_AGGS})")
        cols, idx = self._select(keys, start, end)
        if not len(idx):
            return {}
        widx = np.floor_divide(cols["ts"][idx], window_s).astype(np.int64)
        base = int(widx.min())
        widx -= base
        n_windows = int(widx.max()) + 1
        composite = cols["codes"][idx] * n_windows + widx
        touched, values = self._reduce(
            agg, composite, cols["metric"][idx],
            len(self._key_dict) * n_windows)
        kd = self._key_dict
        out: dict[tuple[Any, float], float] = {}
        for comp, v in zip(touched.tolist(), values.tolist()):
            code, w = divmod(comp, n_windows)
            out[(kd[code], (w + base) * window_s)] = float(v)
        return out

    def stats(self) -> dict[str, Any]:
        return {"rows": self.rows, "segments": len(self._segments),
                "keys": len(self._key_dict), "appends": self.appends,
                "last_applied_epoch": self.last_applied_epoch}
