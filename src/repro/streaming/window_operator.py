"""Event-time window aggregation operator.

Keyed elements are assigned to windows; when the watermark passes a
window's end, the window fires and an aggregate is emitted as
``WindowResult``.  Elements at or behind the watermark are counted as
*dropped late* — the quantity the A3 watermark experiment sweeps.
"""

from __future__ import annotations

import math
from copy import deepcopy
from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable

import numpy as np

from ..util.errors import StreamError
from .batch import RecordBatch
from .element import Element, StreamItem, Watermark
from .operators import Operator
from .state import KeyedState
from .windows import TumblingWindows, Window, WindowAssigner

__all__ = ["WindowResult", "WindowAggregateOperator", "aggregators"]


@dataclass(frozen=True)
class WindowResult:
    """Output of a fired window."""

    key: Any
    window: Window
    value: Any
    count: int


class _Agg:
    """An incremental aggregator: (init, add, result), plus
    ``copy`` — an independent duplicate of one accumulator, what a
    snapshot stores.  Aggregators that know their accumulator's shape
    pass a structural copy; the default is ``deepcopy``."""

    def __init__(self, init: Callable[[], Any],
                 add: Callable[[Any, Any], Any],
                 result: Callable[[Any], Any],
                 copy: Callable[[Any], Any] = deepcopy) -> None:
        self.init = init
        self.add = add
        self.result = result
        self.copy = copy

    def __deepcopy__(self, memo: dict) -> "_Agg":
        # Stateless: an operator clone shares its aggregator, so the bulk
        # kernel's ``agg is aggregators[...]`` tests hold in every clone.
        return self


def _exact_add(partials: list, x: float) -> list:
    """Shewchuk's grow-partials step: fold ``x`` into a list of
    non-overlapping partial sums that exactly represent the true sum."""
    x = float(x)
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]
    return partials


#: accumulator length at which _sum_add collapses to exact partials
_COMPACT_AT = 64

#: parked rows at which a bulk call folds at once: bounds what parking
#: holds for a job that neither fires nor checkpoints for a long time
_PARK_ROWS = 1 << 16


def _exact_partials(values: list) -> list:
    """Compact a float list to a short list with the same *exact* sum.

    Iterated-fsum expansion: each round appends the correctly rounded
    sum of the residual and subtracts it back out, so the invariant
    ``exact_sum(out) + exact_sum(work) == exact_sum(values)`` holds at
    every step; the residual shrinks below one ulp per round and almost
    always hits exactly zero within a few rounds.  Runs at ``math.fsum``
    (C) speed — the reason the windowed-sum hot path can afford exact
    arithmetic.  Non-finite inputs (or a stubborn residual) fall back to
    the Shewchuk grow-partials fold, which is also exact-sum-preserving.
    """
    out: list = []
    work = list(values)
    for _ in range(8):
        try:
            s = math.fsum(work)
        except (OverflowError, ValueError):
            break
        if s == 0.0:
            return out if out else [0.0]
        if not math.isfinite(s):
            break
        out.append(s)
        work.append(-s)
    partials: list = []
    for y in work:
        _exact_add(partials, y)
    out.extend(partials)
    return out


def _sum_add(acc: list, v) -> list:
    """Accumulate for an *order-independent* float sum.

    The accumulator is a list whose exact (infinite-precision) sum is
    the window's true sum: the hot path is a C-speed ``append``, and
    when the list grows it is compacted with :func:`_exact_partials` —
    an exact-sum-preserving rewrite, so where the compaction boundary
    falls cannot affect the result.  ``math.fsum`` at finalize is then
    the correctly rounded true sum whatever the arrival interleaving
    across parallel channels (or its perturbation by injected network
    delays) was.
    """
    acc.append(float(v))
    if len(acc) >= _COMPACT_AT:
        acc[:] = _exact_partials(acc)
    return acc


def _sum_extend(acc: list, values: list, pure: bool = False) -> list:
    """Bulk-append floats into a sum accumulator, compacting at exactly
    the boundaries the per-item :func:`_sum_add` loop would hit — the
    accumulator list stays bit-identical across execution modes.

    ``pure`` declares every value is already a Python ``float`` (e.g.
    from ``ndarray.tolist()``), where ``float(v)`` is an identity and
    the slice can extend directly.
    """
    i = 0
    n = len(values)
    while i < n:
        room = _COMPACT_AT - len(acc)
        if room <= 0:
            acc.append(float(values[i]))
            i += 1
            acc[:] = _exact_partials(acc)
            continue
        take = min(room, n - i)
        if pure:
            acc.extend(values[i:i + take])
        else:
            acc.extend(float(v) for v in values[i:i + take])
        i += take
        if len(acc) >= _COMPACT_AT:
            acc[:] = _exact_partials(acc)
    return acc


def _mean_init():
    return [[], 0]


def _mean_add(acc, v):
    _sum_add(acc[0], v)
    acc[1] += 1
    return acc


aggregators: dict[str, _Agg] = {
    "count": _Agg(lambda: 0, lambda a, _v: a + 1, lambda a: a,
                  copy=lambda a: a),
    "sum": _Agg(list, _sum_add, lambda a: math.fsum(a), copy=list),
    "min": _Agg(lambda: float("inf"), min, lambda a: a),
    "max": _Agg(lambda: float("-inf"), max, lambda a: a),
    "mean": _Agg(_mean_init, _mean_add,
                 lambda a: math.fsum(a[0]) / a[1] if a[1] else float("nan"),
                 copy=lambda a: [list(a[0]), a[1]]),
    "list": _Agg(list, lambda a, v: a + [v], lambda a: a),
}


class WindowAggregateOperator(Operator):
    """Keyed event-time windowing with incremental aggregation."""


    def __init__(self, name: str, assigner: WindowAssigner,
                 aggregate: str | _Agg = "count",
                 value_fn: Callable[[Any], Any] | None = None) -> None:
        super().__init__(name)
        self.assigner = assigner
        if isinstance(aggregate, str):
            try:
                aggregate = aggregators[aggregate]
            except KeyError:
                raise StreamError(
                    f"unknown aggregate {aggregate!r}; choose from "
                    f"{sorted(aggregators)}"
                ) from None
        self.agg = aggregate
        self._identity_value = value_fn is None
        #: transient cache: last key dictionary verified None-free by
        #: the bulk-eligibility check (slices of one macro batch share
        #: their dictionary, so the scan runs once per batch, not per
        #: slice).  Never snapshotted.
        self._kd_clean: list | None = None
        self.value_fn = value_fn if value_fn is not None else (lambda v: v)
        #: key -> {window -> [acc, count]}; its snapshots fold first
        self.state = KeyedState(copy=self._copy_windows, settle=self._fold)
        #: transient: rows bulk calls accepted but nothing has read yet,
        #: as ``(key_dict, key_codes, window_starts, values)`` chunks in
        #: arrival order (values None for count).  ``_fold`` moves them
        #: into the table, restores drop them; never snapshotted.
        self._parked: list[tuple] = []
        self._parked_rows = 0
        #: transient window -> {key: None} reverse index: the firing
        #: scan visits distinct windows (usually a handful) instead of
        #: every (key, window) pair.  ``None`` means "rebuild on next
        #: firing" (after restores); never
        #: snapshotted.
        self._win_index: dict[Window, dict[Any, None]] | None = {}
        self._current_wm = float("-inf")
        # Lower bound on min(window.end) over all open windows: lets on_watermark skip the full ripeness scan when no
        # window can possibly fire (the overwhelmingly common case with
        # per-element watermarks).
        self._min_deadline = float("inf")
        self.dropped_late = 0
        self.fired = 0

    # -- element path --------------------------------------------------------

    def process(self, element: Element) -> list[StreamItem]:
        if element.key is None:
            raise StreamError(
                f"window {self.name!r} requires keyed input; add key_by()"
            )
        if self._parked:
            self._fold()
        if element.timestamp <= self._current_wm:
            self.dropped_late += 1
            return []
        per_key = self.state.get_existing(element.key)
        if per_key is None:
            per_key = {}
            self.state.put(element.key, per_key)
        value = self.value_fn(element.value)
        for window in self.assigner.assign(element.timestamp):
            slot = per_key.get(window)
            if slot is None:
                slot = [self.agg.init(), 0]
                per_key[window] = slot
                if window.end < self._min_deadline:
                    self._min_deadline = window.end
                index = self._win_index
                if index is not None:
                    index.setdefault(window, {})[element.key] = None
            slot[0] = self.agg.add(slot[0], value)
            slot[1] += 1
        return []

    def process_batch(self, items) -> list[StreamItem]:
        items = list(items)
        if self._bulk_eligible(items):
            return self._process_bulk(items)
        return super().process_batch(items)

    # -- columnar bulk path --------------------------------------------------

    def _bulk_eligible(self, items: list) -> bool:
        """The grouped-reduction kernel covers the common shape: keyed
        columnar batches into tumbling windows.  Everything else (loose
        elements, unkeyed batches, other assigners) takes the per-item
        fallback of the base ``process_batch``."""
        if type(self.assigner) is not TumblingWindows:
            return False
        saw_batch = False
        clean = self._kd_clean  # last key dictionary known None-free
        for item in items:
            if type(item) is RecordBatch:
                saw_batch = True
                if not len(item):
                    continue  # pure punctuation: no key to vet
                if item.key_codes is None:
                    return False
                kd = item.key_dict
                if kd is not clean:
                    if any(k is None for k in kd):
                        return False
                    clean = kd
            elif not isinstance(item, Watermark):
                return False
        self._kd_clean = clean
        return saw_batch

    def _process_bulk(self, items: list) -> list[StreamItem]:
        """Accumulate every accepted element of the batch, then replay
        the watermarks in order.

        Equivalence with the per-item interleaving: an element accepted
        at position *q* has ``ts > wm(q)`` and its tumbling
        window ends after ``ts``, so no watermark at ``p <= q`` can have
        fired that window — accumulate-then-fire emits byte-identical
        results.  Late drops still use the running watermark at each
        segment, so the drop set is unchanged too.
        """
        wm = self._current_wm
        batches: list[RecordBatch] = []
        # Arrival watermark per row, run-length encoded: rows_under[i]
        # consecutive rows arrived under running watermark wm_under[i].
        wm_under: list[float] = []
        rows_under: list[int] = []
        wm_seq: list[float] = []  # every watermark, in stream order
        n_processed = 0
        for item in items:
            if type(item) is not RecordBatch:
                wm_seq.append(item.timestamp)
                if item.timestamp > wm:
                    wm = item.timestamp
                continue
            n = len(item)
            wm_under.append(wm)
            offsets = item.wm_offsets
            if offsets is None:
                rows_under.append(n)
            else:
                values = item.wm_values
                wm_seq.extend(values.tolist())
                running = np.maximum.accumulate(values)
                if wm > running[0]:
                    running = np.maximum(running, wm)
                wm_under.extend(running.tolist())
                rows_under.extend(
                    np.diff(offsets, prepend=0, append=n).tolist())
                wm = wm_under[-1]
            if n:
                n_processed += n
                batches.append(item)
        dropped = 0
        if batches:
            row_wms = None
            if wm != float("-inf"):  # running wm nondecreasing: max is last
                row_wms = np.repeat(np.asarray(wm_under, dtype=np.float64),
                                    rows_under)
            dropped = self._bulk_accumulate(batches, row_wms)
        out = self._replay_watermarks(np.asarray(wm_seq, dtype=np.float64))
        self.dropped_late += dropped
        self.processed += n_processed
        return out

    def _replay_watermarks(self, wms: np.ndarray) -> list[StreamItem]:
        """Apply the call's watermarks in order.  A watermark below
        ``_min_deadline`` can fire nothing and is forwarded as it came
        (``on_watermark``'s fast path, its exact state transition), so
        the loop jumps from one watermark that reaches the deadline to
        the next; the runs in between leave as one punctuation-only
        batch each instead of an object per watermark."""
        out: list[StreamItem] = []
        if not len(wms):
            return out
        running = np.maximum.accumulate(wms)
        if self._current_wm > running[0]:
            running = np.maximum(running, self._current_wm)
        emitted = 0
        start = 0
        end = len(wms)
        while start < end:
            ripe = start + int(np.searchsorted(running[start:],
                                               self._min_deadline))
            if ripe > start:
                out.append(Watermark(float(wms[start]))
                           if ripe == start + 1
                           else RecordBatch.punctuation(wms[start:ripe]))
                self._current_wm = float(running[ripe - 1])
            if ripe == end:
                break
            wm_out = self.on_watermark(Watermark(float(wms[ripe])))
            emitted += len(wm_out) - 1  # all Elements plus the watermark
            out.extend(wm_out)
            start = ripe + 1
        self.emitted += emitted
        return out

    def _bulk_accumulate(self, batches: list[RecordBatch],
                         row_wms: np.ndarray | None) -> int:
        """Accept the rows of one bulk call; returns the late-drop count.

        Late rows go with one vectorized mask (``row_wms`` carries the
        running watermark each row arrived under; None before the first
        watermark) — the per-item path's ``ts <= wm`` test —
        and tumbling starts are assigned vectorized.  A call of a
        built-in aggregate over float64 columns (any column for count)
        with no late row only *parks* its columns: the accumulators are
        brought up to date once for many calls, by :meth:`_fold` when
        something reads them (a firing included).  Any other call folds
        what is parked, then accumulates its own rows at once.
        """
        agg = self.agg
        count = agg is aggregators["count"]
        ts = (batches[0].timestamps if len(batches) == 1
              else np.concatenate([b.timestamps for b in batches]))
        starts = self.assigner.assign_starts(ts)
        late = None
        dropped = 0
        if row_wms is not None:
            late = ts <= row_wms
            dropped = int(np.count_nonzero(late))
        values: list[Any]
        if not self._identity_value:
            value_fn = self.value_fn
            values = [[value_fn(v) for v in b.values_list()]
                      for b in batches]
        elif count:
            values = [None] * len(batches)
        elif (agg is aggregators["sum"] or agg is aggregators["mean"]) \
                and all(isinstance(b.values, np.ndarray) for b in batches):
            values = [b.values for b in batches]
        else:
            values = [b.values_list() for b in batches]
        chunks = []
        at = 0
        for b, vals in zip(batches, values):
            chunks.append((b.key_dict, b.key_codes,
                           starts[at:at + len(b)], vals))
            at += len(b)
        if not dropped and self._identity_value and (count or all(
                isinstance(v, np.ndarray) and v.dtype == np.float64
                for v in values)):
            lo = float(starts.min())
            # a non-finite start (NaN/inf timestamp) names a window no
            # later call can find again: such rows are not parked
            if math.isfinite(lo) and math.isfinite(float(starts.max())):
                self._parked.extend(chunks)
                self._parked_rows += at
                # the earliest parked window's deadline: every open
                # window's is already at or above the bound, so this is
                # the value accumulating now would have left
                deadline = lo + self.assigner.size
                if deadline < self._min_deadline:
                    self._min_deadline = deadline
                if self._parked_rows >= _PARK_ROWS:
                    self._fold()
                return 0
        self._fold()
        keys, codes, starts, vals = self._columns(chunks)
        if dropped:
            keep = ~late
            codes = codes[keep]
            starts = starts[keep]
            if isinstance(vals, np.ndarray):
                vals = vals[keep]
            elif vals is not None:
                vals = list(compress(vals, keep.tolist()))
            if not len(starts):
                return dropped
        self._fold_rows(keys, codes, starts, vals)
        return dropped

    @staticmethod
    def _columns(chunks: list[tuple]) -> tuple:
        """Concatenate ``(key_dict, key_codes, starts, values)`` chunks
        under one key dictionary: ``(keys, codes, starts, values)``.
        Consecutive chunks usually share a dictionary (zero-copy slices
        of one macro batch), so each distinct one is remapped once.
        Values concatenate to an array or a list, or stay None."""
        gindex: dict[Any, int] = {}
        gkeys: list[Any] = []
        remap_cache: dict[int, np.ndarray] = {}
        code_parts: list[np.ndarray] = []
        run_codes: list[np.ndarray] = []
        run_remap: np.ndarray | None = None

        def _flush_codes() -> None:
            if not run_codes:
                return
            raw = (run_codes[0] if len(run_codes) == 1
                   else np.concatenate(run_codes))
            code_parts.append(run_remap[raw])
            run_codes.clear()

        for kd, key_codes, _starts, _values in chunks:
            remap = remap_cache.get(id(kd))
            if remap is None:
                remap = np.empty(len(kd), dtype=np.int64)
                for i, k in enumerate(kd):
                    g = gindex.get(k)
                    if g is None:
                        g = len(gkeys)
                        gindex[k] = g
                        gkeys.append(k)
                    remap[i] = g
                remap_cache[id(kd)] = remap
            if remap is not run_remap:
                _flush_codes()
                run_remap = remap
            run_codes.append(key_codes)
        _flush_codes()
        codes = (code_parts[0] if len(code_parts) == 1
                 else np.concatenate(code_parts))
        if len(chunks) == 1:
            return gkeys, codes, chunks[0][2], chunks[0][3]
        starts = np.concatenate([c[2] for c in chunks])
        first = chunks[0][3]
        if first is None:
            values = None
        elif isinstance(first, np.ndarray):
            values = np.concatenate([c[3] for c in chunks])
        else:
            values = [v for c in chunks for v in c[3]]
        return gkeys, codes, starts, values

    @staticmethod
    def _groups(codes: np.ndarray, starts: np.ndarray) -> tuple:
        """Order rows by (key code, window start), stably, so each
        group's rows stay in arrival order.  Returns that order, each
        group's end offset into it, its key code and its window index,
        and the distinct window starts (the last four as lists)."""
        if len(starts) > 1 and bool(np.all(starts[1:] >= starts[:-1])):
            # Monotone timestamps (the common replay shape): unique
            # starts are run boundaries — no sort needed.
            new_run = np.empty(len(starts), dtype=bool)
            new_run[0] = True
            np.not_equal(starts[1:], starts[:-1], out=new_run[1:])
            uniq_starts = starts[new_run]
            start_inv = np.cumsum(new_run) - 1
        else:
            uniq_starts, start_inv = np.unique(starts, return_inverse=True)
        gid = codes * np.int64(len(uniq_starts)) + start_inv
        order = np.argsort(gid, kind="stable")
        bounds = np.flatnonzero(np.diff(gid[order])) + 1
        # Group membership is constant within a run after the stable
        # sort, so key code and window index are read from each group's
        # first row only.
        first_rows = np.empty(len(bounds) + 1, dtype=np.int64)
        first_rows[0] = 0
        first_rows[1:] = bounds
        leaders = order[first_rows]
        edges = bounds.tolist()
        edges.append(len(order))
        return (order, edges, codes[leaders].tolist(),
                start_inv[leaders].tolist(), uniq_starts.tolist())

    def _fold(self) -> None:
        """Bring the accumulators up to date: one grouped pass over
        every parked row, however many calls parked them."""
        chunks = self._parked
        if chunks:
            self._parked = []
            self._parked_rows = 0
            self._fold_rows(*self._columns(chunks))

    def _fold_rows(self, keys: list, codes: np.ndarray, starts: np.ndarray,
                   values: Any) -> None:
        """The one grouped pass: every (key, window) group's accumulator
        takes the group's rows in arrival order — count adds the group
        size, sum and mean extend their exact partials (compacting where
        per-item adds would), other aggregates fold ``add`` over it."""
        agg = self.agg
        is_sum = agg is aggregators["sum"]
        is_mean = agg is aggregators["mean"]
        is_count = agg is aggregators["count"]
        order, edges, group_codes, group_sidx, start_list = \
            self._groups(codes, starts)
        if isinstance(values, np.ndarray):
            sorted_vals: list | None = values[order].tolist()
        elif values is not None:
            sorted_vals = [values[i] for i in order.tolist()]
        else:
            sorted_vals = None
        # tolist() of a float64 column gives the Python floats float(v)
        # would; any other column (int64 gives ints) is converted
        pure = isinstance(values, np.ndarray) and values.dtype == np.float64
        get_windows = self.state.get_existing
        put_windows = self.state.put
        min_deadline = self._min_deadline
        win_index = self._win_index
        size = self.assigner.size
        # One Window, one deadline test and one index lookup per distinct
        # window: an open window's deadline is already at or above the
        # bound, and every window here gets a slot if it has none.
        window_cache: list[Window | None] = [None] * len(start_list)
        index_cache: list[dict | None] = [None] * len(start_list)
        a = 0
        for gi, b_ in enumerate(edges):
            key = keys[group_codes[gi]]
            sidx = group_sidx[gi]
            window = window_cache[sidx]
            if window is None:
                start = start_list[sidx]
                window = window_cache[sidx] = Window(start, start + size)
                if window.end < min_deadline:
                    min_deadline = window.end
                if win_index is not None:
                    index_cache[sidx] = win_index.setdefault(window, {})
            per_key = get_windows(key)
            if per_key is None:
                slot = None
                per_key = {}
                put_windows(key, per_key)
            else:
                slot = per_key.get(window)
            if slot is None:
                slot = per_key[window] = [agg.init(), 0]
                if win_index is not None:
                    index_cache[sidx][key] = None
            m = b_ - a
            if is_count:
                slot[0] += m
            elif is_sum or is_mean:
                acc = slot[0][0] if is_mean else slot[0]
                _sum_extend(acc, sorted_vals[a:b_], pure)
                if is_mean:
                    slot[0][1] += m
            else:
                acc = slot[0]
                add = agg.add
                for v in sorted_vals[a:b_]:
                    acc = add(acc, v)
                slot[0] = acc
            slot[1] += m
            a = b_
        self._min_deadline = min_deadline

    # -- watermark path ---------------------------------------------------------

    def on_watermark(self, watermark: Watermark) -> list[StreamItem]:
        self._current_wm = max(self._current_wm, watermark.timestamp)
        if self._min_deadline > self._current_wm:
            # No open window can be ripe yet; skip the full scan.  The
            # bound is conservative (a lower bound), so this fast path
            # never suppresses a firing.
            return [watermark]
        wm = self._current_wm
        self._fold()
        table = self.state
        index = self._win_index
        if index is None:
            index = self._win_index = {}
            for key, per_key in table.items():
                for w in per_key:
                    index.setdefault(w, {})[key] = None
        # Ripeness over *distinct* windows (a handful), not every
        # (key, window) pair; survivors seen in the same pass give the
        # exact post-fire min deadline.
        ripe: list[Window] = []
        min_deadline = float("inf")
        for w in index:
            if w.end <= wm:
                ripe.append(w)
            elif w.end < min_deadline:
                min_deadline = w.end
        if not ripe:
            self._min_deadline = min_deadline
            return [watermark]
        ripe.sort()
        keys: dict[Any, None] = {}
        for w in ripe:
            keys.update(index[w])
        out: list[StreamItem] = []
        agg_result = self.agg.result
        for key in sorted(keys, key=repr):
            per_key = table.get_existing(key)
            if per_key is None:
                continue
            fired_here = 0
            for window in ripe:
                slot = per_key.pop(window, None)
                if slot is None:
                    continue
                fired_here += 1
                result = WindowResult(key=key, window=window,
                                      value=agg_result(slot[0]),
                                      count=slot[1])
                out.append(Element(value=result, timestamp=window.end,
                                   key=key))
            if fired_here:
                self.fired += fired_here
                if not per_key:
                    table.remove(key)
        for w in ripe:
            index.pop(w, None)
        self._min_deadline = min_deadline
        out.append(watermark)
        return out

    def flush(self) -> list[StreamItem]:
        """Fire every remaining window at end-of-stream."""
        return [item for item in self.on_watermark(Watermark(float("inf")))
                if isinstance(item, Element)]

    # -- checkpointing -------------------------------------------------------------

    def _copy_windows(self, windows: dict[Any, dict[Window, list[Any]]]
                      ) -> dict[Any, dict[Window, list[Any]]]:
        """The table's copy: an independent duplicate of a ``{key:
        {window: [acc, count]}}`` map — what ``deepcopy`` returns,
        without walking what cannot change: keys are hashable,
        ``Window`` is frozen, counts are ints; only the accumulator
        needs the aggregator's ``copy``."""
        copy_acc = self.agg.copy
        return {key: {window: [copy_acc(slot[0]), slot[1]]
                      for window, slot in per_key.items()}
                for key, per_key in windows.items()}

    def snapshot(self) -> Any:
        return {"wm": self._current_wm, "dropped": self.dropped_late,
                "fired": self.fired}

    def restore(self, scalars: list[Any], primary: bool = True,
                exact: bool = True) -> None:
        """After the table: parked rows are dropped (the table restored
        folded everything before it), and the firing index and deadline
        are derived from the table again.  The watermark regresses to
        the minimum over ``scalars`` (it can only admit *more* data,
        never drop extra); the counters are job-wide totals, carried by
        the primary subtask so aggregation across subtasks stays
        exact."""
        self._parked = []
        self._parked_rows = 0
        self._win_index = None
        self._min_deadline = min(
            (w.end for _, per_key in self.state.items() for w in per_key),
            default=float("inf"))
        self._current_wm = min(s["wm"] for s in scalars)
        self.dropped_late = sum(s["dropped"] for s in scalars) \
            if primary else 0
        self.fired = sum(s["fired"] for s in scalars) if primary else 0
