"""Dataflow operators.

Every operator transforms a stream item into zero or more output items
via :meth:`Operator.process` (for elements) and
:meth:`Operator.on_watermark` (for watermarks).  Watermarks flow through
stateless operators untouched; stateful event-time operators (windows,
joins) react to them.

Batched execution: :meth:`Operator.process_batch` moves a whole channel
batch through an operator in one call.  An operator has at most two
kernels: ``process`` (required; one Element, the semantic reference) and
``_run_columnar`` (optional; one :class:`RecordBatch` of columns — with
``vectorized=True`` one numpy call over the whole batch).  A batch goes
to the columnar kernel when there is one and is decoded for ``handle``
when there is not; an Element that arrives loose takes ``handle``.
Batch processing is order-preserving and therefore bit-identical to
per-item execution.

Operators keep per-key values in one :class:`KeyedState` (``state``),
which the executor checkpoints by key group, and expose the rest of
their state through ``snapshot``/``restore`` — stateless operators
return ``None``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

from ..util.errors import StreamError
from .batch import RecordBatch
from .element import Element, StreamItem, Watermark
from .state import KeyedState

_MISSING = object()  # sentinel: "no accumulator yet" (None is a value)

__all__ = [
    "Operator",
    "MapOperator",
    "FilterOperator",
    "KeyByOperator",
    "ReduceOperator",
    "WatermarkGenerator",
    "logical_name",
    "subtask_name",
]


def subtask_name(operator: str, index: int) -> str:
    """``("double", 1) -> "double[1]"`` — the name of an operator's
    clone, or of an execution node's subtask, at one subtask index: what
    crash sites, data-fault counters, heartbeats and metrics key on."""
    return f"{operator}[{index}]"


def logical_name(name: str) -> str:
    """``"double[1]" -> "double"`` — the inverse of :func:`subtask_name`;
    any other name (a logical name, ``"m[x]"``) is returned as it is."""
    if name.endswith("]"):
        base, bracket, index = name.rpartition("[")
        if bracket and index[:-1].isdigit():
            return base
    return name


def _check_length(op: "Operator", result: Any, n: int) -> None:
    """A vectorized user function must answer row for row: a short (or
    long) result would otherwise pair values with the wrong timestamps
    or silently lose rows."""
    if len(result) != n:
        raise StreamError(
            f"{type(op).__name__} {op.name!r}: vectorized function returned "
            f"{len(result)} results for a batch of {n} rows"
        )


class Operator:
    """Base operator.  Subclasses override ``process``/``on_watermark``."""

    #: Whether the executor may fuse this operator into a chain with its
    #: neighbours.  True only for single-input record-at-a-time operators
    #: without keyed state; keyed operators, joins and custom subclasses
    #: stay unfused (see docs/ARCHITECTURE.md, "Batched execution").
    chainable = False

    #: The operator's per-key values — one :class:`KeyedState` for an
    #: operator with keyed state, None for the rest.  The executor
    #: snapshots and restores it by key group, so checkpoints survive
    #: rescaling.
    state: KeyedState | None = None

    @property
    def requires_shuffle(self) -> bool:
        """Whether this operator's input edges must be hash-partitioned
        by key in a parallel plan: exactly when it keeps keyed state in
        ``state`` (reduce, window, join, CEP).  Each subtask then holds
        every key its key groups own, which is what the executor's
        by-key-group checkpoint assumes (see docs/ARCHITECTURE.md,
        "Parallel execution", and CONTRIBUTING.md)."""
        return self.state is not None

    #: Whether this operator implements ``_run_columnar`` and may
    #: consume :class:`RecordBatch` columns whole.  Operators without a
    #: kernel are still correct: ``process_batch`` decodes batches back
    #: to Elements — the per-item fallback.  New operators must declare
    #: one or the other explicitly (see CONTRIBUTING.md).
    has_columnar_kernel = False

    #: Whether ``_run_columnar`` accepts a *punctuated* batch (one that
    #: carries watermarks between its rows) and hands every one of them
    #: on, in place, in its output — true of any kernel that derives its
    #: output with ``RecordBatch.with_*`` / ``compress`` and whose
    #: ``on_watermark`` is the default forward.  Operators that leave it
    #: False receive the exploded fragments and loose Watermarks
    #: instead, so they are correct without knowing punctuation exists.
    punctuation_aware = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.processed = 0
        self.emitted = 0

    def handle(self, item: StreamItem) -> list[StreamItem]:
        """Dispatch an item; maintains counters."""
        if isinstance(item, Watermark):
            out = self.on_watermark(item)
        else:
            self.processed += 1
            out = self.process(item)
        self.emitted += sum(1 for o in out if isinstance(o, Element))
        return out

    def process_batch(self, items: Iterable[StreamItem]) -> list[StreamItem]:
        """Process a whole batch, preserving per-item order and counters.

        Loose Elements and Watermarks take :meth:`handle`, the per-item
        reference path.  An operator with a columnar kernel
        (``has_columnar_kernel``) consumes a :class:`RecordBatch` whole
        via ``_run_columnar``; one without has it decoded for ``handle``,
        so any subclass is correct by construction.  A *punctuated*
        batch reaches the kernel whole only when the operator also
        declares ``punctuation_aware``; otherwise it is exploded here
        and the operator sees unpunctuated fragments and loose
        watermarks.  A batch of watermarks with no rows never reaches a
        kernel: an operator that forwards watermarks untouched forwards
        it whole, any other gets it exploded — the rules documented in
        docs/ARCHITECTURE.md ("Columnar batch representation").
        """
        out: list[StreamItem] = []
        handle = self.handle
        columnar = self.has_columnar_kernel
        whole = columnar and self.punctuation_aware
        forwards = type(self).on_watermark is Operator.on_watermark
        for item in items:
            if type(item) is not RecordBatch:
                out.extend(handle(item))
            elif item.wm_offsets is not None and not (whole and len(item)):
                if forwards and not len(item):
                    out.append(item)
                else:
                    out.extend(Operator.process_batch(self, item.explode()))
            elif columnar:
                if len(item):
                    self._run_columnar(item, out)
            else:
                for element in item.to_elements():
                    out.extend(handle(element))
        return out

    def _run_columnar(self, batch: RecordBatch,
                      out: list[StreamItem]) -> None:
        """Columnar kernel: consume one non-empty :class:`RecordBatch`
        (only called when ``has_columnar_kernel`` is True).  Must append
        outputs (batches and/or items) to ``out``, maintain counters,
        and produce exactly the per-item results."""
        raise NotImplementedError

    def process(self, element: Element) -> list[StreamItem]:
        raise NotImplementedError

    def on_watermark(self, watermark: Watermark) -> list[StreamItem]:
        """Default: forward the watermark unchanged."""
        return [watermark]

    def flush(self) -> list[StreamItem]:
        """Emit whatever is pending at end-of-stream (default: nothing)."""
        return []

    # -- checkpointing ------------------------------------------------------
    #
    # One protocol for every operator: the executor checkpoints
    # ``state`` by key group itself, and the operator only its scalar
    # part (watermarks, counters) through ``snapshot`` / ``restore``.

    def snapshot(self) -> Any:
        """The scalar part of this operator's state: None when it has
        none."""
        return None

    def restore(self, scalars: list[Any], primary: bool = True,
                exact: bool = True) -> None:
        """Install the scalar part, after ``state`` has been restored.

        ``exact`` says ``scalars`` is the one snapshot this subtask
        wrote.  Otherwise the job was rescaled, ``scalars`` holds every
        old subtask's snapshot, and the operator merges them
        conservatively: progress (watermarks) regresses to the minimum,
        and job-wide counters land whole on the ``primary`` subtask and
        start at zero on the others, so totals are preserved.  An
        operator whose ``snapshot`` returns something must override
        this.
        """
        if any(s is not None for s in scalars):
            raise StreamError(
                f"operator {self.name!r} has no scalar state but got a "
                "snapshot")

    def capture(self) -> tuple[Any, Any]:
        """The whole operator — a copy of its table and its scalar
        part — for :meth:`rollback` (error policies, direct use)."""
        state = self.state
        return (None if state is None else state.snapshot(),
                self.snapshot())

    def rollback(self, captured: tuple[Any, Any]) -> None:
        """Return to a :meth:`capture`, exactly."""
        keyed, scalar = captured
        if keyed is not None:
            self.state.restore(keyed)
        self.restore([scalar])


class MapOperator(Operator):
    """1-to-1 value transform.

    With ``vectorized=True`` the function receives a numpy array of all
    values in a batch run and must return an equally long array-like of
    results (per-item execution then feeds it length-1 arrays, so both
    executor modes produce identical outputs).
    """

    chainable = True
    has_columnar_kernel = True
    punctuation_aware = True

    def __init__(self, name: str, fn: Callable[[Any], Any],
                 vectorized: bool = False) -> None:
        super().__init__(name)
        self.fn = fn
        self.vectorized = vectorized

    def process(self, element: Element) -> list[StreamItem]:
        if self.vectorized:
            return [element.with_value(self.fn(np.asarray([element.value]))[0])]
        return [element.with_value(self.fn(element.value))]

    def _run_columnar(self, batch: RecordBatch,
                      out: list[StreamItem]) -> None:
        n = len(batch)
        if self.vectorized:
            values = self.fn(batch.values_array())
            if not isinstance(values, np.ndarray):
                values = list(values)
            _check_length(self, values, n)
        else:
            fn = self.fn
            values = [fn(v) for v in batch.values_list()]
        out.append(batch.with_values(values))
        self.processed += n
        self.emitted += n


class FilterOperator(Operator):
    """Keep elements whose value satisfies the predicate.

    With ``vectorized=True`` the predicate receives a numpy array of
    values and must return a boolean mask of the same length.
    """

    chainable = True
    has_columnar_kernel = True
    punctuation_aware = True

    def __init__(self, name: str, predicate: Callable[[Any], bool],
                 vectorized: bool = False) -> None:
        super().__init__(name)
        self.predicate = predicate
        self.vectorized = vectorized

    def _run_columnar(self, batch: RecordBatch,
                      out: list[StreamItem]) -> None:
        n = len(batch)
        if self.vectorized:
            mask = np.asarray(self.predicate(batch.values_array()))
            _check_length(self, mask, n)
            mask = mask.astype(bool, copy=False)
        else:
            predicate = self.predicate
            mask = np.fromiter((bool(predicate(v))
                                for v in batch.values_list()),
                               dtype=bool, count=n)
        kept = int(mask.sum())
        if kept == n:
            out.append(batch)
        elif kept or batch.wm_offsets is not None:
            out.append(batch.compress(mask))
        self.processed += n
        self.emitted += kept

    def process(self, element: Element) -> list[StreamItem]:
        if self.vectorized:
            keep = bool(self.predicate(np.asarray([element.value]))[0])
        else:
            keep = bool(self.predicate(element.value))
        return [element] if keep else []


class KeyByOperator(Operator):
    """Assign a partitioning key extracted from the value.

    With ``vectorized=True`` the key function receives a numpy array of
    values and must return an equally long array-like of keys.
    """

    chainable = True
    has_columnar_kernel = True
    punctuation_aware = True

    def __init__(self, name: str, key_fn: Callable[[Any], Any],
                 vectorized: bool = False) -> None:
        super().__init__(name)
        self.key_fn = key_fn
        self.vectorized = vectorized

    def _run_columnar(self, batch: RecordBatch,
                      out: list[StreamItem]) -> None:
        n = len(batch)
        keys = None
        if self.vectorized:
            keys = np.asarray(self.key_fn(batch.values_array()))
            _check_length(self, keys, n)
            nan_keys = (keys.dtype.kind == "f" and bool(np.isnan(keys).any()))
            if keys.dtype.kind != "O" and not nan_keys:
                # Dictionary-encode in one pass; np.unique's scalars are
                # exactly what the per-item vectorized path produces.
                uniq, inverse = np.unique(keys, return_inverse=True)
                out.append(batch.with_keys(
                    inverse.astype(np.int64, copy=False), list(uniq)))
                self.processed += n
                self.emitted += n
                return
            keys = list(keys)  # unorderable or NaN: encode per key object
        key_fn = self.key_fn
        key_index: dict = {}
        kd: list = []
        codes: list[int] = []
        if keys is None:
            keys = (key_fn(v) for v in batch.values_list())
        for k in keys:
            code = key_index.get(k)
            if code is None and k not in key_index:
                code = len(kd)
                key_index[k] = code
                kd.append(k)
            codes.append(code)
        out.append(batch.with_keys(np.asarray(codes, dtype=np.int64), kd))
        self.processed += n
        self.emitted += n

    def process(self, element: Element) -> list[StreamItem]:
        if self.vectorized:
            return [element.with_key(self.key_fn(np.asarray([element.value]))[0])]
        return [element.with_key(self.key_fn(element.value))]


class ReduceOperator(Operator):
    """Keyed running reduce: emits the accumulated value per element.

    Requires keyed input (a ``KeyByOperator`` upstream); raises otherwise
    — silently reducing a keyless stream is a classic correctness trap.
    """

    has_columnar_kernel = True

    def __init__(self, name: str,
                 reduce_fn: Callable[[Any, Any], Any]) -> None:
        super().__init__(name)
        self.reduce_fn = reduce_fn
        self.state = KeyedState()

    def process(self, element: Element) -> list[StreamItem]:
        if element.key is None:
            raise StreamError(
                f"reduce {self.name!r} requires keyed input; add key_by()"
            )
        if element.key in self.state:
            acc = self.reduce_fn(self.state.get(element.key), element.value)
        else:
            acc = element.value
        self.state.put(element.key, acc)
        return [element.with_value(acc)]

    def _run_columnar(self, batch: RecordBatch,
                      out: list[StreamItem]) -> None:
        codes = batch.key_codes
        if codes is None or any(k is None for k in batch.key_dict):
            # Unkeyed (or partially unkeyed) input must fail with the
            # same error, at the same point, as per-item execution.
            for element in batch.to_elements():
                out.extend(self.handle(element))
            return
        n = len(batch)
        reduce_fn = self.reduce_fn
        kd = batch.key_dict
        get_existing = self.state.get_existing
        put = self.state.put
        results: list[Any] = []
        append = results.append
        values = batch.values_list()
        for i, c in enumerate(codes.tolist()):
            key = kd[c]
            v = values[i]
            prev = get_existing(key, _MISSING)
            if prev is not _MISSING:
                v = reduce_fn(prev, v)
            put(key, v)
            append(v)
        out.append(batch.with_values(results))
        self.processed += n
        self.emitted += n


class WatermarkGenerator(Operator):
    """Bounded-out-of-orderness watermarks.

    Tracks the max event timestamp seen and periodically (every
    ``emit_every`` elements) emits ``Watermark(max_ts - max_lateness)``.
    Incoming watermarks are swallowed — this operator is the authority
    downstream of it.

    Chainable: its state is per-record, not keyed, and the checkpoint
    coordinator snapshots members of a chain individually.
    """

    chainable = True
    has_columnar_kernel = True
    punctuation_aware = True

    def __init__(self, name: str, max_lateness: float,
                 emit_every: int = 1) -> None:
        super().__init__(name)
        if not max_lateness >= 0:  # NaN too
            raise StreamError(
                f"max_lateness must be non-negative, got {max_lateness!r}")
        if emit_every < 1:
            raise StreamError("emit_every must be >= 1")
        self.max_lateness = max_lateness
        self.emit_every = emit_every
        self._max_ts = float("-inf")
        self._since_emit = 0
        self._last_wm = float("-inf")

    def process(self, element: Element) -> list[StreamItem]:
        self._max_ts = max(self._max_ts, element.timestamp)
        self._since_emit += 1
        out: list[StreamItem] = [element]
        if self._since_emit >= self.emit_every:
            self._since_emit = 0
            wm = self._max_ts - self.max_lateness
            if wm > self._last_wm:
                self._last_wm = wm
                out.append(Watermark(wm))
        return out

    def _run_columnar(self, batch: RecordBatch,
                      out: list[StreamItem]) -> None:
        """Vectorized watermark cadence.

        Candidate positions are where the element counter reaches
        ``emit_every``; candidate watermarks (running-max timestamp minus
        lateness) are nondecreasing, so the per-item "greater than the
        last emitted watermark" test reduces to comparing each candidate
        against its predecessor and the incoming ``_last_wm`` — one
        vector compare instead of a per-element loop.  The batch is
        re-emitted whole, punctuated by the emitted watermarks (any it
        arrived with are swallowed, like loose upstream watermarks).
        """
        n = len(batch)
        since = self._since_emit
        emit_every = self.emit_every
        run_max = np.maximum.accumulate(batch.timestamps)
        if self._max_ts != float("-inf"):
            run_max = np.maximum(run_max, self._max_ts)
        first = emit_every - 1 - since
        cand = np.arange(first, n, emit_every, dtype=np.int64)
        emit_pos = emit_wms = cand[:0]
        if cand.size:
            cand_wm = run_max[cand] - self.max_lateness
            prev = np.empty_like(cand_wm)
            prev[0] = float("-inf")
            prev[1:] = cand_wm[:-1]
            emit = cand_wm > np.maximum(prev, self._last_wm)
            emit_pos = cand[emit] + 1
            emit_wms = cand_wm[emit]
        if len(emit_wms) or batch.wm_offsets is not None:
            batch = batch.with_punctuation(emit_pos, emit_wms)
        out.append(batch)
        self._max_ts = float(run_max[-1])
        if len(emit_wms):
            self._last_wm = float(emit_wms[-1])
        self._since_emit = (since + n) % emit_every
        self.processed += n
        self.emitted += n

    def on_watermark(self, watermark: Watermark) -> list[StreamItem]:
        return []  # swallow upstream watermarks; we generate our own

    def flush(self) -> list[StreamItem]:
        """End of stream: release everything with a final watermark."""
        if self._max_ts == float("-inf"):
            return []
        return [Watermark(float("inf"))]

    def snapshot(self) -> Any:
        return {"max_ts": self._max_ts, "last_wm": self._last_wm,
                "since": self._since_emit}

    def restore(self, scalars: list[Any], primary: bool = True,
                exact: bool = True) -> None:
        """Exact: as cut.  Rescaled: watermark progress regresses to the
        *minimum* over the old subtasks and the cadence restarts, so the
        restored run can only emit lower-or-equal watermarks than any
        old subtask would have — it may fire windows later, never drop
        more data.  (The equivalence contract in docs/ARCHITECTURE.md
        therefore requires allowed lateness to cover the regression for
        bit-identical rescaled runs.)"""
        self._max_ts = min(s["max_ts"] for s in scalars)
        self._last_wm = min(s["last_wm"] for s in scalars)
        self._since_emit = scalars[0]["since"] if exact else 0
