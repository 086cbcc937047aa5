"""Columnar batches: the zero-copy hot-path record representation.

A :class:`RecordBatch` stores a run of consecutive :class:`Element`\\ s
as parallel columns — a ``float64`` timestamp array, a value column, and
a dictionary-encoded key column — instead of a Python list of Element
objects.  Batches flow through channels next to plain stream items
(watermarks, barriers, loose elements), and operators that implement a
columnar kernel (``has_columnar_kernel = True``) consume them whole;
everything else sees decoded Elements via the per-item fallback, so the
representation is invisible above the channel layer (see
docs/ARCHITECTURE.md, "Columnar batch representation").

Layout rules that keep columnar execution **bit-identical** to per-item
execution:

- *Timestamps* are always encoded from Python floats and decoded with
  ``ndarray.tolist()``, which round-trips ``float`` exactly.
- *Values* use a ``float64`` array only when every source value is a
  Python ``float`` (``py_values=True``, decoded via ``tolist``); arrays
  produced by vectorized kernels keep ``py_values=False`` and decode to
  numpy scalars — exactly what the per-item vectorized path
  (``fn(np.asarray([v]))[0]``) produces.  Anything else (ints, dicts,
  mixed types) stays a Python list: the *opaque* path.
- *Keys* are dictionary-encoded: ``key_codes[i]`` indexes ``key_dict``,
  which holds the **original key objects** — never numpy conversions —
  so ``repr``-based shuffle hashing and state snapshots are unchanged.

Slicing is zero-copy (numpy views over the parent's columns *and* its
key dictionary); all mutation-style operations (``with_values`` etc.)
return new batches sharing unchanged columns.  Only ``compress`` — the
filter / shuffle cut, whose result travels on — compacts a dictionary
the surviving rows no longer need.

*Punctuation.*  A batch may carry the watermarks that sit between its
rows: ``wm_offsets[i]`` says "watermark ``wm_values[i]`` sits after that
many rows" (int64, non-decreasing, 0…n, repeats allowed).  The batch
*is* the interleaved per-item sequence — rows ``[0, off0)``, watermark
0, rows ``[off0, off1)``, watermark 1, … — so ``len`` counts rows,
``weight`` counts rows plus watermarks, ``slice`` cuts at interleaved
positions, ``to_items`` yields the exact Element/Watermark order and
``explode`` returns the unpunctuated fragment list.  A batch with
watermarks and no rows is legal (a slice or a shuffle bucket can be
just that); an item of weight 0 is never emitted.

*Sealed batches.*  What outlives the channel layer — a transactional
sink's epoch, a checkpoint's sink payload, the rows a store applies —
is a batch in **canonical form** (:meth:`RecordBatch.sealed`): no
punctuation, a key dictionary of its own holding exactly the keys its
rows use in order of first appearance, field for field what
:meth:`RecordBatch.from_elements` gives over the decoded rows.  The same
rows therefore give equal (``==``) batches whichever execution mode
delivered them, and nothing a source appends to its shared dictionary
later can change a sealed batch or the bytes it pickles to.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from .element import Element, StreamItem, Watermark

__all__ = [
    "RecordBatch",
    "as_batch",
    "batches_of",
    "item_weight",
    "items_weight",
    "take_prefix",
    "decode_items",
    "explode_items",
    "elements_of",
]


class RecordBatch:
    """A columnar run of elements, optionally punctuated by the
    watermarks that sit between them (never barriers)."""

    __slots__ = ("timestamps", "values", "py_values", "key_codes",
                 "key_dict", "wm_offsets", "wm_values")

    def __init__(self, timestamps: np.ndarray, values: Any,
                 py_values: bool = False,
                 key_codes: np.ndarray | None = None,
                 key_dict: list | None = None,
                 wm_offsets: np.ndarray | None = None,
                 wm_values: np.ndarray | None = None) -> None:
        self.timestamps = timestamps
        self.values = values  # ndarray (numeric/vectorized) or list (opaque)
        self.py_values = py_values
        self.key_codes = key_codes
        self.key_dict = key_dict
        #: sparse punctuation; both None when the batch carries no
        #: watermark (never empty arrays, so ``is None`` is the test)
        self.wm_offsets = wm_offsets
        self.wm_values = wm_values

    def __len__(self) -> int:
        """Row count (watermarks are not rows; see :attr:`weight`)."""
        return len(self.timestamps)

    @property
    def weight(self) -> int:
        """Length of the interleaved item sequence: rows + watermarks."""
        offsets = self.wm_offsets
        n = len(self.timestamps)
        return n if offsets is None else n + len(offsets)

    def __repr__(self) -> str:  # debug aid only
        kind = ("f64" if isinstance(self.values, np.ndarray)
                else "opaque")
        keyed = "keyed" if self.key_codes is not None else "unkeyed"
        wms = self.weight - len(self)
        return f"RecordBatch(n={len(self)}, {kind}, {keyed}, wms={wms})"

    def __reduce__(self) -> tuple:
        # Columns as raw bytes: numpy's own array pickling costs ~10 us
        # an array, which a checkpoint of many 20-row epochs notices.
        return _unpack_batch, (
            _pack(self.timestamps), _pack(self.values), self.py_values,
            _pack(self.key_codes), self.key_dict,
            _pack(self.wm_offsets), _pack(self.wm_values))

    def __eq__(self, other: Any) -> bool:
        """Same columns, byte for byte (opaque values and keys by
        ``==``) — how checkpoints holding sealed batches compare."""
        if type(other) is not RecordBatch:
            return NotImplemented
        return self is other or self.__reduce__()[1] == other.__reduce__()[1]

    __hash__ = None  # type: ignore[assignment]  (value equality, mutable)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_columns(cls, timestamps: Any, values: list, keys: list,
                     key_index: dict | None = None,
                     key_dict: list | None = None) -> "RecordBatch":
        """Encode parallel per-row columns — the layout rules of this
        module applied without an Element per row.

        ``key_index``/``key_dict`` (both mutated) let several batches of
        one source share a key dictionary, so merged batches can gather
        codes directly; keys enter it in order of first appearance.
        Without a shared dictionary an all-``None`` key column is elided
        entirely.
        """
        ts = np.asarray(timestamps, dtype=np.float64)
        numeric = set(map(type, values)) == {float}
        vals: Any = np.asarray(values, dtype=np.float64) if numeric else values
        distinct = list(dict.fromkeys(keys))  # first appearance, C speed
        if key_index is None:
            if distinct in ([], [None]):
                return cls(ts, vals, py_values=numeric)
            key_index, key_dict = {}, []
        for k in distinct:
            if k not in key_index:
                key_index[k] = len(key_dict)
                key_dict.append(k)
        codes = np.fromiter(map(key_index.__getitem__, keys),
                            dtype=np.int64, count=len(keys))
        return cls(ts, vals, py_values=numeric, key_codes=codes,
                   key_dict=key_dict)

    @classmethod
    def from_elements(cls, elements: Sequence[Element],
                      key_index: dict | None = None,
                      key_dict: list | None = None) -> "RecordBatch":
        """Encode a run of Elements (see :meth:`from_columns`)."""
        return cls.from_columns([e.timestamp for e in elements],
                                [e.value for e in elements],
                                [e.key for e in elements],
                                key_index, key_dict)

    @classmethod
    def splice(cls, batches: Sequence["RecordBatch"],
               key_index: dict | None, key_dict: list) -> "RecordBatch":
        """Concatenate unpunctuated batches under a shared key
        dictionary — field for field what :meth:`from_elements` gives
        over their decoded rows, without decoding them.  ``key_index``
        is ``None`` for a fresh dictionary whose index the caller does
        not keep.

        Each batch's codes go through a remap array (O(keys) Python,
        O(rows) numpy).  Keys enter ``key_dict`` in order of first
        *row* appearance, whatever order the batch's own dictionary has
        them in.  One batch into an empty dictionary is not remapped
        when its own dictionary is already in that order (see
        :func:`_adopt_canonical`): its codes are kept, and its numeric
        columns too.
        """
        codes = None
        if len(batches) == 1 and not key_index:
            (rb,) = batches
            codes = _adopt_canonical(rb, key_index, key_dict)
            if (codes is not None and rb.py_values
                    and isinstance(rb.values, np.ndarray)):
                return cls(np.asarray(rb.timestamps, dtype=np.float64),
                           rb.values, py_values=True, key_codes=codes,
                           key_dict=key_dict)
        if key_index is None:
            key_index = {}
        if codes is None:
            code_parts = []
            for rb in batches:
                codes, local = rb.key_column()
                live, first = np.unique(codes, return_index=True)
                remap = np.zeros(len(local), dtype=np.int64)
                for c in live[np.argsort(first)].tolist():
                    k = local[c]
                    code = key_index.get(k)
                    if code is None and k not in key_index:
                        code = len(key_dict)
                        key_index[k] = code
                        key_dict.append(k)
                    remap[c] = code
                code_parts.append(remap[codes])
            codes = np.concatenate(code_parts)
        numeric = all(isinstance(rb.values, np.ndarray) and rb.py_values
                      for rb in batches)
        if numeric:
            values: Any = np.concatenate([rb.values for rb in batches])
        else:
            values = [v for rb in batches for v in rb.values_list()]
            numeric = set(map(type, values)) == {float}
            if numeric:
                values = np.asarray(values, dtype=np.float64)
        return cls(np.concatenate([rb.timestamps for rb in batches],
                                  dtype=np.float64),
                   values, py_values=numeric, key_codes=codes,
                   key_dict=key_dict)

    @classmethod
    def sealed(cls, rows: Sequence[Any]) -> "RecordBatch":
        """``rows`` (unpunctuated batches and loose Elements in any
        mix) as one batch in canonical form — see the module docstring:
        :meth:`splice` under a fresh dictionary, the key column elided
        when no row has a key."""
        batches = batches_of(rows)
        if not batches:
            return _EMPTY
        if len(batches) == 1 and type(rows[0]) is Element:
            return batches[0]  # one encoded run is canonical as it is
        rb = cls.splice(batches, None, [])
        if rb.key_dict == [None]:
            rb.key_codes = rb.key_dict = None
        return rb

    @classmethod
    def punctuation(cls, values: np.ndarray) -> "RecordBatch":
        """A run of watermarks with no rows between them."""
        return cls(np.empty(0, dtype=np.float64),
                   np.empty(0, dtype=np.float64), py_values=True,
                   wm_offsets=np.zeros(len(values), dtype=np.int64),
                   wm_values=values)

    # -- decoding ------------------------------------------------------------

    def key_column(self) -> tuple[np.ndarray, list]:
        """Codes and dictionary; an elided key column reads as every
        row carrying the key ``None``."""
        if self.key_codes is None:
            return np.zeros(len(self), dtype=np.int64), [None]
        return self.key_codes, self.key_dict

    def values_list(self) -> list:
        """Values as the per-item path would see them: Python floats for
        source-encoded numerics, numpy scalars for vectorized outputs,
        the original objects for the opaque path."""
        values = self.values
        if isinstance(values, np.ndarray):
            return values.tolist() if self.py_values else list(values)
        return values if isinstance(values, list) else list(values)

    def values_array(self) -> np.ndarray:
        """Values as one numpy array — the same array a batched
        vectorized operator would build from the element run."""
        values = self.values
        if isinstance(values, np.ndarray):
            return values
        return np.asarray(values)

    def to_elements(self) -> list[Element]:
        ts = self.timestamps.tolist()
        vals = self.values_list()
        if self.key_codes is None:
            return [Element(v, t) for v, t in zip(vals, ts)]
        kd = self.key_dict
        return [Element(v, t, kd[c])
                for v, t, c in zip(vals, ts, self.key_codes.tolist())]

    def extend_elements(self, out: list) -> None:
        """Append the rows only — what a sink receives."""
        out.extend(self.to_elements())

    def to_items(self) -> list[StreamItem]:
        """The interleaved Element/Watermark sequence this batch is."""
        elements = self.to_elements()
        if self.wm_offsets is None:
            return elements
        out: list[StreamItem] = []
        start = 0
        for off, wm in zip(self.wm_offsets.tolist(),
                           self.wm_values.tolist()):
            if off > start:
                out.extend(elements[start:off])
                start = off
            out.append(Watermark(wm))
        out.extend(elements[start:])
        return out

    def explode(self) -> list:
        """The same sequence as unpunctuated row fragments (zero-copy
        views) with loose Watermarks between them — what a consumer that
        is not punctuation-aware receives."""
        if self.wm_offsets is None:
            return [self]
        out: list = []
        start = 0
        for off, wm in zip(self.wm_offsets.tolist(),
                           self.wm_values.tolist()):
            if off > start:
                out.append(self._rows(start, off))
                start = off
            out.append(Watermark(wm))
        if start < len(self):
            out.append(self._rows(start, len(self)))
        return out

    # -- transforms (share unchanged columns) --------------------------------

    def _narrowed_keys(self, codes: np.ndarray) -> tuple[np.ndarray, list]:
        """Compact the key dictionary when a row subset can no longer
        reference most of it.

        Without this, every ``compress`` inherits the full dictionary,
        so a long-running keyed job drags every key it has ever seen
        through every filter and shuffle.  (``slice`` stays a view: its
        cuts are transient, and no checkpoint holds channel content.)
        When the surviving
        rows number fewer than half the table (so live codes are
        necessarily below half too), rebuild the table from the codes
        actually present.  The new dictionary holds the *same key
        objects* (no copies), so downstream identity-keyed caches and
        ``is``-based fast paths stay correct — they just miss once on
        the new, smaller dict.
        """
        kd = self.key_dict
        if kd is None or 2 * len(codes) >= len(kd):
            return codes, kd
        live, inverse = np.unique(codes, return_inverse=True)
        return inverse.astype(np.int64, copy=False), \
            [kd[c] for c in live.tolist()]

    def _rows(self, i: int, j: int) -> "RecordBatch":
        """Rows ``[i, j)`` as an unpunctuated view (shared dictionary)."""
        codes = self.key_codes
        return RecordBatch(self.timestamps[i:j], self.values[i:j],
                           py_values=self.py_values,
                           key_codes=None if codes is None else codes[i:j],
                           key_dict=self.key_dict)

    def slice(self, i: int, j: int) -> "RecordBatch":
        """Items ``[i, j)`` of the interleaved sequence, zero-copy: numpy
        views (opaque lists are sliced) sharing the parent's key
        dictionary.  Without punctuation positions are row indices."""
        offsets = self.wm_offsets
        if offsets is None:
            return self._rows(i, j)
        # Watermark w sits at interleaved position offsets[w] + w.
        positions = offsets + np.arange(len(offsets))
        wi, wj = np.searchsorted(positions, (i, j)).tolist()
        ri = i - wi
        part = self._rows(ri, j - wj)
        if wj > wi:
            part.wm_offsets = offsets[wi:wj] - ri
            part.wm_values = self.wm_values[wi:wj]
        return part

    def compress(self, mask: np.ndarray) -> "RecordBatch":
        """Keep rows where ``mask`` is True; a heavy filter also
        compacts the key dictionary (see :meth:`_narrowed_keys`).  Every
        watermark survives, re-seated after the kept rows before it."""
        values = self.values
        if isinstance(values, np.ndarray):
            vals: Any = values[mask]
        else:
            vals = [v for v, m in zip(values, mask) if m]
        codes = self.key_codes
        kd = self.key_dict
        if codes is not None:
            codes, kd = self._narrowed_keys(codes[mask])
        offsets = self.wm_offsets
        if offsets is not None:
            kept_before = np.zeros(len(mask) + 1, dtype=np.int64)
            np.cumsum(mask, out=kept_before[1:])
            offsets = kept_before[offsets]
        return RecordBatch(self.timestamps[mask], vals,
                           py_values=self.py_values,
                           key_codes=codes, key_dict=kd,
                           wm_offsets=offsets, wm_values=self.wm_values)

    def with_values(self, values: Any) -> "RecordBatch":
        return RecordBatch(self.timestamps, values, py_values=False,
                           key_codes=self.key_codes, key_dict=self.key_dict,
                           wm_offsets=self.wm_offsets,
                           wm_values=self.wm_values)

    def with_keys(self, key_codes: np.ndarray,
                  key_dict: list) -> "RecordBatch":
        return RecordBatch(self.timestamps, self.values,
                           py_values=self.py_values, key_codes=key_codes,
                           key_dict=key_dict, wm_offsets=self.wm_offsets,
                           wm_values=self.wm_values)

    def with_punctuation(self, offsets: np.ndarray | None,
                         values: np.ndarray | None) -> "RecordBatch":
        """The same rows under different watermarks (``None`` or empty
        arrays: none at all)."""
        if offsets is not None and not len(offsets):
            offsets = values = None
        return RecordBatch(self.timestamps, self.values,
                           py_values=self.py_values,
                           key_codes=self.key_codes, key_dict=self.key_dict,
                           wm_offsets=offsets, wm_values=values)


def _adopt_canonical(rb: RecordBatch, key_index: dict | None,
                     key_dict: list) -> np.ndarray | None:
    """``rb``'s own codes, with its dictionary copied into the empty
    ``key_index`` (unless it is ``None``) and ``key_dict``, when that
    dictionary already lists exactly the keys its rows use, in order of
    first appearance, once each; ``None`` (dictionary left empty)
    otherwise.

    First appearance is dictionary order when the running maximum of
    the codes starts at 0 and grows by at most 1 a row, and every entry
    is used when it ends at ``len(dict) - 1`` — O(rows) numpy, no
    Python loop over keys."""
    codes, local = rb.key_column()
    if not len(codes) or codes.dtype != np.int64 or codes[0] != 0:
        return None
    peak = np.maximum.accumulate(codes)
    if peak[-1] != len(local) - 1 or (peak[1:] - peak[:-1] > 1).any():
        return None
    # two entries that are one key: the index would hold fewer
    if key_index is None:
        if len(set(local)) < len(local):
            return None
    else:
        key_index.update(zip(local, range(len(local))))
        if len(key_index) < len(local):
            key_index.clear()
            return None
    key_dict.extend(local)
    return codes


def _pack(column: Any) -> tuple:
    """A column in its pickled form: ``(dtype, bytes)`` for a numeric
    array, ``("O", items)`` for an object array, ``(None, column)`` for
    anything else (an opaque list, an absent column)."""
    if not isinstance(column, np.ndarray):
        return None, column
    if column.dtype.hasobject:
        return "O", list(column)
    return column.dtype.str, column.tobytes()


def _unpack(packed: tuple) -> Any:
    dtype, payload = packed
    if dtype is None:
        return payload
    if dtype == "O":
        column = np.empty(len(payload), dtype=object)
        column[:] = payload
        return column
    return np.frombuffer(payload, dtype=dtype)


def _unpack_batch(timestamps: Any, values: Any, py_values: bool,
                  key_codes: Any, key_dict: list | None,
                  wm_offsets: Any, wm_values: Any) -> RecordBatch:
    return RecordBatch(_unpack(timestamps), _unpack(values), py_values,
                       _unpack(key_codes), key_dict,
                       _unpack(wm_offsets), _unpack(wm_values))


#: the canonical batch of no rows (shared: batches are never mutated)
_EMPTY = RecordBatch(np.empty(0, dtype=np.float64), [])


# -- mixed-item helpers (channels carry RecordBatch | StreamItem) -------------

def item_weight(item: Any) -> int:
    """Item weight of one channel item: markers and loose elements
    weigh 1, a batch weighs its rows plus the watermarks it carries — so
    per-item accounting (backpressure, drops, chaos schedules) is
    representation-blind."""
    return item.weight if type(item) is RecordBatch else 1


def items_weight(items: Iterable[Any]) -> int:
    return sum(item.weight if type(item) is RecordBatch else 1
               for item in items)


def take_prefix(items: Iterable[Any], k: int) -> list:
    """First ``k`` item-weights of ``items``, splitting a batch at the
    cut so the prefix holds exactly ``k`` records/markers."""
    out: list = []
    need = k
    for item in items:
        if need <= 0:
            break
        w = item_weight(item)
        if w <= need:
            out.append(item)
            need -= w
        else:
            out.append(item.slice(0, need))
            need = 0
    return out


def decode_items(items: Iterable[Any]) -> list[StreamItem]:
    """Expand batches back to Elements — and the watermarks they carry,
    in stream order (loose markers pass through)."""
    out: list[StreamItem] = []
    for item in items:
        if type(item) is RecordBatch:
            out.extend(item.to_items())
        else:
            out.append(item)
    return out


def explode_items(items: Iterable[Any]) -> list:
    """Replace every punctuated batch by its fragments (see
    :meth:`RecordBatch.explode`); everything else passes through."""
    out: list = []
    for item in items:
        if type(item) is RecordBatch and item.wm_offsets is not None:
            out.extend(item.explode())
        else:
            out.append(item)
    return out


def elements_of(items: Iterable[Any]) -> list[Element]:
    """Only the data records of a mixed item sequence, decoded — what a
    sink receives."""
    out: list[Element] = []
    for item in items:
        if type(item) is RecordBatch:
            item.extend_elements(out)
        elif isinstance(item, Element):
            out.append(item)
    return out


def as_batch(rows: Any) -> RecordBatch:
    """A run of rows as one batch: a batch as it is, Elements encoded
    once — the boundary where per-item callers join the columnar path."""
    if type(rows) is RecordBatch:
        return rows
    return RecordBatch.from_elements(
        rows if isinstance(rows, (list, tuple)) else list(rows))


def batches_of(rows: Iterable[Any]) -> list[RecordBatch]:
    """A run of rows — unpunctuated batches and loose Elements in any
    mix — as batches in the same order: each run of Elements encoded,
    empty batches dropped."""
    out: list[RecordBatch] = []
    run: list[Element] = []
    for item in rows:
        if type(item) is not RecordBatch:
            run.append(item)
            continue
        if run:
            out.append(RecordBatch.from_elements(run))
            run = []
        if len(item):
            out.append(item)
    if run:
        out.append(RecordBatch.from_elements(run))
    return out
