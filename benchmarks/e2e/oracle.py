"""Brute-force numpy reference for everything the benchmark checks.

The oracle is told what was *sent* and works out, with the plainest
numpy it can, what the store must then hold: per-(key, window) means
for a windowed job, the rows themselves for a pass-through job, the
latest value per key, and the dashboard aggregates.  It never imports
``repro`` — a bug shared with the program would be no check at all.

Keys are small integer codes into ``self.keys``; the store's row key is
``repr(key)``, reproduced here rather than imported.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = ["Oracle", "RTOL"]

#: window means are re-summed in another order than the engine's
RTOL = 1e-9


def _close(a, b) -> np.ndarray:
    return np.isclose(a, b, rtol=RTOL, atol=1e-12)


def _close_scalar(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


class Oracle:
    """What the store must contain, and what queries over it return."""

    def __init__(self, keys: list[str]) -> None:
        self.keys = list(keys)
        self._code_of_repr = {repr(k): c for c, k in enumerate(self.keys)}
        self._codes: list[np.ndarray] = []
        self._ts: list[np.ndarray] = []
        self._values: list[np.ndarray] = []
        n = len(self.keys)
        self._latest_ts = np.full(n, -np.inf)
        self._latest_val = np.full(n, np.nan)

    # -- what was sent -> what the store must hold ---------------------------

    def expect_rows(self, codes, ts, values) -> int:
        """A pass-through job: every sent row is a store row."""
        codes = np.asarray(codes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        self._codes.append(codes)
        self._ts.append(ts)
        self._values.append(values)
        # ascending by time, so for a repeated key the newest write wins
        order = np.argsort(ts, kind="stable")
        c, t, v = codes[order], ts[order], values[order]
        newer = t >= self._latest_ts[c]
        self._latest_ts[c[newer]] = t[newer]
        self._latest_val[c[newer]] = v[newer]
        return len(codes)

    def expect_window_means(self, codes, ts, values, window_s: float) -> int:
        """A tumbling-mean job: one store row per (key, window), stamped
        with the window's end."""
        codes = np.asarray(codes, dtype=np.int64)
        ts = np.asarray(ts, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        widx = np.floor(ts / window_s).astype(np.int64)
        pairs, means = self._grouped_mean(
            np.stack([codes, widx], axis=1), values)
        return self.expect_rows(pairs[:, 0], (pairs[:, 1] + 1) * window_s,
                                means)

    def _all(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if len(self._codes) > 1:
            self._codes = [np.concatenate(self._codes)]
            self._ts = [np.concatenate(self._ts)]
            self._values = [np.concatenate(self._values)]
        if not self._codes:
            return (np.empty(0, np.int64), np.empty(0), np.empty(0))
        return self._codes[0], self._ts[0], self._values[0]

    @property
    def rows(self) -> int:
        return sum(len(c) for c in self._codes)

    # -- checks ---------------------------------------------------------------

    def missing_rows(self, contents: dict[str, list[tuple[float, float]]]
                     ) -> int:
        """Expected rows absent from (or wrong in) a hot-store dump
        ``{repr(key): [(ts, value), ...]}``, plus rows the dump holds
        that were never sent."""
        codes, ts, values = self._all()
        got_c, got_t, got_v = [], [], []
        unknown = 0
        for kr, versions in contents.items():
            code = self._code_of_repr.get(kr)
            if code is None:
                unknown += len(versions)
                continue
            for t, v in versions:
                got_c.append(code)
                got_t.append(t)
                got_v.append(v)
        got_c = np.asarray(got_c, dtype=np.int64)
        got_t = np.asarray(got_t, dtype=np.float64)
        got_v = np.asarray(got_v, dtype=np.float64)
        e = np.lexsort((ts, codes))
        g = np.lexsort((got_t, got_c))
        if len(e) == len(g) and not unknown:
            ok = ((codes[e] == got_c[g]) & (ts[e] == got_t[g])
                  & _close(values[e], got_v[g]))
            if ok.all():
                return 0
        # slow path, only ever taken on a failure: count row by row
        held: dict[tuple[int, float], list[float]] = {}
        for c, t, v in zip(got_c.tolist(), got_t.tolist(), got_v.tolist()):
            held.setdefault((c, t), []).append(v)
        missing = 0
        for c, t, v in zip(codes.tolist(), ts.tolist(), values.tolist()):
            bucket = held.get((c, t))
            hit = next((i for i, h in enumerate(bucket or ())
                        if _close_scalar(h, v)), None)
            if hit is None:
                missing += 1
            else:
                bucket.pop(hit)
        extra = unknown + sum(len(b) for b in held.values())
        return missing + extra

    def lookup_ok(self, code: int, got: list[tuple[float, float]]) -> bool:
        """Is ``got`` exactly the newest ``(ts, value)`` of the key?  The
        table is maintained incrementally; :meth:`latest_brute_force`
        re-derives it whole."""
        if len(got) != 1:
            return False
        ts, value = got[0]
        return ts == self._latest_ts[code] and _close_scalar(
            value, self._latest_val[code])

    def latest_brute_force(self) -> tuple[np.ndarray, np.ndarray]:
        """Latest ``(ts, value)`` per key from all rows at once."""
        codes, ts, values = self._all()
        out_ts = np.full(len(self.keys), -np.inf)
        out_val = np.full(len(self.keys), np.nan)
        order = np.lexsort((np.arange(len(ts)), ts, codes))
        c = codes[order]
        last = np.flatnonzero(np.r_[c[1:] != c[:-1], True]) if len(c) else []
        out_ts[c[last]] = ts[order][last]
        out_val[c[last]] = values[order][last]
        return out_ts, out_val

    def latest_table_consistent(self) -> bool:
        ts, val = self.latest_brute_force()
        return bool(np.array_equal(ts, self._latest_ts)
                    and np.array_equal(val, self._latest_val,
                                       equal_nan=True))

    # -- dashboard aggregates -------------------------------------------------

    def _select(self, start, end, codes_in):
        codes, ts, values = self._all()
        mask = np.ones(len(ts), dtype=bool)
        if start is not None:
            mask &= ts >= start
        if end is not None:
            mask &= ts < end
        if codes_in is not None:
            mask &= np.isin(codes, np.asarray(list(codes_in), np.int64))
        return codes[mask], ts[mask], values[mask]

    @staticmethod
    def _grouped_mean(groups: np.ndarray, values: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Mean per distinct row of ``groups`` (an (n, k) int array):
        sort the rows together, then sum each run."""
        if not len(values):
            return groups[:0], values[:0]
        order = np.lexsort(groups.T[::-1])
        g, v = groups[order], values[order]
        starts = np.flatnonzero(
            np.r_[True, (g[1:] != g[:-1]).any(axis=1)])
        sums = np.add.reduceat(v, starts)
        counts = np.diff(np.r_[starts, len(v)])
        return g[starts], sums / counts

    def group_mean(self, start=None, end=None, codes_in=None
                   ) -> dict[str, float]:
        """Mean per key over a half-open time range."""
        codes, _ts, values = self._select(start, end, codes_in)
        groups, means = self._grouped_mean(codes[:, None], values)
        return {self.keys[code]: mean for (code,), mean
                in zip(groups.tolist(), means.tolist())}

    def tumbling_mean(self, window_s: float, start=None, end=None,
                      codes_in=None) -> dict[tuple[str, float], float]:
        """Mean per (key, tumbling window start)."""
        codes, ts, values = self._select(start, end, codes_in)
        widx = np.floor(ts / window_s).astype(np.int64)
        groups, means = self._grouped_mean(
            np.stack([codes, widx], axis=1), values)
        return {(self.keys[code], w * window_s): mean for (code, w), mean
                in zip(groups.tolist(), means.tolist())}

    @staticmethod
    def same_aggregate(expected: dict, got: dict) -> bool:
        if expected.keys() != got.keys():
            return False
        return all(_close_scalar(expected[k], got[k]) for k in expected)

    # -- reproducibility ------------------------------------------------------

    def digest(self) -> str:
        """Content hash of every expected row — same seed, same digest."""
        codes, ts, values = self._all()
        order = np.lexsort((values, ts, codes))
        h = hashlib.sha256()
        for column in (codes, ts, values):
            h.update(np.ascontiguousarray(column[order]).tobytes())
        return h.hexdigest()
