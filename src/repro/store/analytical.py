"""Columnar historical store: the analytics-facing scan tier.

Committed epochs append onto **one set of columns**: capacity-doubling
numpy buffers for timestamps, metric and codes of one store-wide key
table, plus one raw-value list.  Each epoch adds a **zone map** entry
(min ts, max ts, first row), so a time-bounded query masks only the
epochs that can match.  A ``metric_fn`` extracts the numeric column at
append time; the raw values stay for callable-keyed regrouping (``by=``).

Appends go **only** through a staged epoch, guarded by
``last_applied_epoch`` like the hot tier: staging resolves new keys
against a *staged extension* of the key table; the install copies the
columns onto the buffer tails and publishes the row count last, so a
discarded stage leaves no trace and a replay never double-appends.
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
#: the per-row Python path of ``group_by(by=...)``
_SCALAR = {"count": len, "sum": sum, "min": min, "max": max,
           "mean": lambda vals: sum(vals) / len(vals)}
#: dense tumbling cells per selected row past which an ``np.unique``
#: compaction beats the dense bincount (measured crossover: 1-4)
_DENSE_PER_ROW = 4


def _default_metric(value: Any) -> float:
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    return math.nan


def _put(buf: np.ndarray, at: int, values: Any) -> np.ndarray:
    """``buf`` with ``values`` written from row ``at``, at least doubled
    when full; rows below ``at`` are never written (views keep them)."""
    end = at + len(values)
    if end > len(buf):
        buf = np.concatenate(
            (buf[:at], np.empty(max(end, 2 * len(buf)) - at, buf.dtype)))
    buf[at:end] = values
    return buf


def _in_range(lo: np.ndarray, hi: np.ndarray, start: float | None,
              end: float | None) -> np.ndarray:
    """Which ``[lo, hi]`` meet ``[start, end)`` (at least one bound set)."""
    if start is None:
        return lo < end
    if end is None:
        return hi >= start
    return (hi >= start) & (lo < end)


def _window_index(ts: np.ndarray, window_s: float) -> tuple[Any, np.ndarray]:
    """``(finite, index)``: the window index of the rows ``finite`` picks
    (a NaN or infinite ts has none), ``np.floor_divide`` bit for bit.  A
    rounded quotient that is not whole floors as the exact one, as does
    floor_divide below 2**50; whole ones, and all past it, divide again."""
    with np.errstate(over="ignore"):
        quotient = ts / window_s
    index = np.floor(quotient)
    if -2.0**50 < index.min(initial=0) <= index.max(initial=0) < 2.0**50:
        whole = np.flatnonzero(index == quotient)
        index[whole] = np.floor_divide(ts[whole], window_s)
        return slice(None), index
    finite = np.isfinite(ts)
    ts, quotient = ts[finite], quotient[finite]
    if not np.isfinite(quotient).all():
        raise StoreError(f"ts {float(ts[~np.isfinite(quotient)][0])!r} has "
                         f"no finite window index at window_s {window_s!r}")
    return finite, np.floor_divide(ts, window_s)


class AnalyticalStore:
    """Append-only columnar history with a numpy query layer."""

    def __init__(self, metric_fn: Callable[[Any], float] | None = None
                 ) -> None:
        self.metric_fn = metric_fn or _default_metric
        self._ts = np.empty(0, dtype=np.float64)
        self._metric = np.empty(0, dtype=np.float64)
        self._codes = np.empty(0, dtype=np.int64)
        self._raw: list[Any] = []
        self._key_index: dict[Any, int] = {}
        self._key_dict: list[Any] = []
        # zone map, one entry per installed epoch: min/max ts, first row
        self._zone_lo = np.empty(0, dtype=np.float64)
        self._zone_hi = np.empty(0, dtype=np.float64)
        self._zone_at = np.empty(0, dtype=np.int64)
        self.last_applied_epoch = 0
        self.rows = 0
        self.appends = 0

    # -- epoch append (the only mutation path) -------------------------------

    def stage_epoch(self, epoch: int, rows: RecordBatch | Iterable[Element]
                    ) -> dict[str, Any] | None:
        """Take one epoch's rows (a batch, or Elements encoded here) as
        columns, off to the side: nothing changes, whether the token is
        installed, dropped, or ``metric_fn`` or a timestamp that is not
        a float raises.  None if the epoch is applied."""
        if epoch <= self.last_applied_epoch:
            return None
        batch = as_batch(rows)
        try:
            ts = np.asarray(batch.timestamps, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise StoreError(f"epoch {epoch}: a timestamp is not a float "
                             f"({exc})") from None
        raw = batch.values_list()
        metric = batch.values
        if self.metric_fn is not _default_metric \
                or getattr(metric, "dtype", None) != np.float64:
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
        return {"epoch": epoch, "ts": ts, "metric": metric,
                "codes": remap[codes], "raw": raw,
                "key_base": base, "new_keys": list(new_keys)}

    def install_epoch(self, staged: dict[str, Any] | None) -> int:
        """Install a staged epoch, publishing the row count last; a token
        staged against an older key table is refused, changing nothing."""
        if staged is None:
            return 0
        epoch = staged["epoch"]
        if epoch <= self.last_applied_epoch:
            return 0
        if staged["key_base"] != len(self._key_dict):
            raise StoreError(
                f"staged epoch {epoch} is stale: the analytical key "
                "table grew since it was staged")
        ts, at, zone = staged["ts"], self.rows, self.appends
        # fmin/fmax skip NaN timestamps, which no time range matches
        lo = float(np.fmin.reduce(ts, initial=math.inf))
        hi = float(np.fmax.reduce(ts, initial=-math.inf))
        self._ts = _put(self._ts, at, ts)
        self._metric = _put(self._metric, at, staged["metric"])
        self._codes = _put(self._codes, at, staged["codes"])
        self._zone_lo = _put(self._zone_lo, zone, (lo,))
        self._zone_hi = _put(self._zone_hi, zone, (hi,))
        self._zone_at = _put(self._zone_at, zone, (at,))
        self._raw.extend(staged["raw"])
        for key in staged["new_keys"]:
            self._key_index[key] = len(self._key_dict)
            self._key_dict.append(key)
        self.last_applied_epoch = epoch
        self.appends += 1
        self.rows = at + len(ts)
        return len(ts)

    def append_epoch(self, epoch: int,
                     rows: RecordBatch | Iterable[Element]) -> int:
        return self.install_epoch(self.stage_epoch(epoch, rows))

    # -- query layer ---------------------------------------------------------

    def _select(self, keys: Iterable[Any] | None, start: float | None,
                end: float | None) -> np.ndarray:
        """Indices of the rows in a key set and/or half-open time range,
        masking only the first to last epoch whose zone meets the range
        (right for any ts order: no row outside holds a match)."""
        lo, hi, mask = 0, self.rows, None
        if start is not None or end is not None:
            zones = self.appends
            hit = np.flatnonzero(_in_range(self._zone_lo[:zones],
                                           self._zone_hi[:zones], start, end))
            if not len(hit):
                return np.empty(0, dtype=np.int64)
            lo, last = int(self._zone_at[hit[0]]), int(hit[-1]) + 1
            hi = int(self._zone_at[last]) if last < zones else self.rows
            mask = _in_range(self._ts[lo:hi], self._ts[lo:hi], start, end)
        if keys is not None:
            lut = np.zeros(len(self._key_dict), dtype=bool)
            lut[[self._key_index[k] for k in keys
                 if k in self._key_index]] = True
            in_keys = lut[self._codes[lo:hi]]
            mask = in_keys if mask is None else mask & in_keys
        return np.arange(lo, hi) if mask is None else lo + np.flatnonzero(mask)

    def filter(self, keys: Iterable[Any] | None = None,
               start: float | None = None,
               end: float | None = None) -> dict[str, Any]:
        """Rows in a key set and/or half-open time range, as columns."""
        idx = self._select(keys, start, end)
        return {"ts": self._ts[idx], "metric": self._metric[idx],
                "codes": self._codes[idx],
                "raw": [self._raw[i] for i in idx.tolist()],
                "key_dict": self._key_dict}

    def count(self, keys: Iterable[Any] | None = None,
              start: float | None = None, end: float | None = None) -> int:
        return len(self._select(keys, start, end))

    @staticmethod
    def _reduce(agg: str, codes: np.ndarray,
                metric: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-code aggregate: (touched codes, aggregated values)."""
        counts = np.bincount(codes)
        touched = np.flatnonzero(counts)
        if agg == "count":
            return touched, counts[touched].astype(np.float64)
        if agg in ("sum", "mean"):
            sums = np.bincount(codes, weights=metric)[touched]
            return touched, sums if agg == "sum" else sums / counts[touched]
        extrema = np.full(len(counts), math.inf if agg == "min" else -math.inf)
        (np.minimum if agg == "min" else np.maximum).at(extrema, codes, metric)
        return touched, extrema[touched]

    def group_by(self, agg: str = "sum",
                 keys: Iterable[Any] | None = None,
                 start: float | None = None, end: float | None = None,
                 by: Callable[[Any], Any] | None = None) -> dict[Any, float]:
        """Aggregate the metric per key, or per ``by(raw value)``: a
        per-row Python path for pivots the key column does not carry."""
        if agg not in _AGGS:
            raise StoreError(f"unknown aggregate {agg!r}, not in {_AGGS}")
        idx = self._select(keys, start, end)
        metric = self._metric[idx]
        if by is not None:
            groups: dict[Any, list[float]] = {}
            for i, m in zip(idx.tolist(), metric.tolist()):
                groups.setdefault(by(self._raw[i]), []).append(m)
            return {g: float(_SCALAR[agg](vals))
                    for g, vals in groups.items()}
        touched, values = self._reduce(agg, self._codes[idx], metric)
        return dict(zip(map(self._key_dict.__getitem__, touched.tolist()),
                        values.tolist()))

    def tumbling(self, window_s: float, agg: str = "sum",
                 keys: Iterable[Any] | None = None,
                 start: float | None = None, end: float | None = None,
                 ) -> dict[tuple[Any, float], float]:
        """``(key, (ts // window_s) * window_s) -> value`` over the finite
        ts: one bincount over ``code * n_windows + window`` (its occupied
        cells when the dense space outsizes the rows), or over the unique
        (key, window) pairs when that composite is not exact in int64."""
        if not 0 < window_s < math.inf:
            raise StoreError("window_s must be positive and finite")
        if agg not in _AGGS:
            raise StoreError(f"unknown aggregate {agg!r}, not in {_AGGS}")
        idx = self._select(keys, start, end)
        finite, wf = _window_index(self._ts[idx], window_s)
        idx = idx[finite]
        if not len(idx):
            return {}
        base = float(wf.min())
        n_windows = float(wf.max()) - base + 1
        codes, metric, kd = self._codes[idx], self._metric[idx], self._key_dict
        if len(kd) * n_windows < 2 ** 53:  # an exact int64 composite
            n_windows = int(n_windows)
            composite = codes * n_windows + (wf - base).astype(np.int64)
            sparse = len(kd) * n_windows > _DENSE_PER_ROW * len(idx)
            if sparse:
                occupied, composite = np.unique(composite, return_inverse=True)
            touched, values = self._reduce(agg, composite, metric)
            touched = occupied[touched] if sparse else touched
            # (c % n + base) * window_s per cell: a scalar loop's floats
            cell_codes = touched // n_windows
            starts = (touched % n_windows + base) * window_s
        else:
            cells, inverse = np.unique(np.column_stack((codes, wf)), axis=0,
                                       return_inverse=True)
            touched, values = self._reduce(agg, inverse.ravel(), metric)
            cell_codes = cells[touched, 0].astype(np.int64)
            starts = cells[touched, 1] * window_s
        return dict(zip(zip(map(kd.__getitem__, cell_codes.tolist()),
                            starts.tolist()), values.tolist()))

    def stats(self) -> dict[str, Any]:
        return {"rows": self.rows, "segments": self.appends,
                "keys": len(self._key_dict), "appends": self.appends,
                "last_applied_epoch": self.last_applied_epoch}
