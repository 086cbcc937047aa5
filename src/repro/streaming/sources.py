"""Source reading: splits, the merged pull and rewind.

Sources are read as **splits** (the rescaling unit, analogous to topic
partitions) range-assigned to source subtasks — eventlog-backed sources
map partitions to splits through consumer groups
(:func:`~repro.streaming.connectors.parallel_log_source`).  A
:class:`SourceReader` reads each source into :class:`Split` records on
first touch and hands a subtask its next items merged by event time.

A source without a split factory is spread over its splits by
key-aligned routing (same key, same split — the precondition of the
parallel-equivalence contract), round-robin where elements carry no
key.  In batched mode a split's buffer *is* the
:class:`~repro.streaming.batch.RecordBatch` it was encoded or arrived
as, under one key dictionary per source; it is decoded, lazily and
once, only where a merge needs it item by item.

A source subtask with **one live split** has nothing to merge: the split
is read in arrival order, whatever its timestamps and values look like
(a FIFO of one split *is* the heap merge's order).  Several live splits
with nondecreasing timestamps and numeric values are merged once by
``lexsort`` and pulled as zero-copy slices; anything else takes the
heap, which is also the per-item reference.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from ..util.ids import split_ranges
from .batch import RecordBatch, decode_items, items_weight
from .element import Element, StreamItem, Watermark
from .graph import JobGraph
from .plan import ExecutionGraph
from .shuffle import key_group_for

__all__ = ["Split", "SourceReader"]


@dataclass(slots=True)
class Split:
    """One split of a source: what it holds and how far it was read."""

    #: stream items in arrival order — a list, or (batched mode, no
    #: markers among the items) the columnar batch itself
    buffer: list | RecordBatch
    position: int = 0
    #: columnar with numeric values and nondecreasing timestamps: may be
    #: pre-merged with its neighbours by ``lexsort``
    mergeable: bool = False
    _decoded: list | None = field(default=None, init=False, repr=False)

    @property
    def finished(self) -> bool:
        return self.position >= len(self.buffer)

    @property
    def batch(self) -> RecordBatch | None:
        """The buffer as columns; None for a split held as a list."""
        return self.buffer if type(self.buffer) is RecordBatch else None

    @property
    def decoded(self) -> bool:
        """Whether the split exists item by item (always, for a list)."""
        return self.batch is None or self._decoded is not None

    def items(self) -> list:
        """The split item by item; a batch is decoded lazily, once —
        only a heap merge over an unsorted or opaque-valued split asks."""
        if self.batch is None:
            return self.buffer
        if self._decoded is None:
            self._decoded = self.buffer.to_elements()
        return self._decoded


class SourceReader:
    """Every source of one job, read split by split.

    ``pull`` is the only way items leave; ``rewind`` the only way
    positions go back.  Reading a source is what may hit a broker
    fault, and ``positions`` never reads: the first touch belongs to
    ``open``/``pull`` or ``rewind``, inside the supervisor's ladder.
    """

    def __init__(self, job: JobGraph, graph: ExecutionGraph, *,
                 batch_mode: bool = True) -> None:
        self.job = job
        self.graph = graph
        self.batch_mode = batch_mode
        #: newest event timestamp pulled from any source — the live
        #: watermark-lag gauge's reference
        self.frontier = float("-inf")
        self._splits: dict[str, list[Split]] = {}
        #: source -> the split range each subtask owns
        self._owned: dict[str, list[range]] = {}
        #: (source, subtask) -> pre-merged pull plan (built lazily,
        #: dropped on rewind — positions define the remaining suffix)
        self._plans: dict[tuple[str, int], dict[str, Any]] = {}

    # -- reading a source into splits ----------------------------------------

    def open(self, name: str) -> list[Split]:
        """The source's splits, read on first touch so that rewinding
        is a matter of positions (log-backed sources rewind by offset
        underneath)."""
        splits = self._splits.get(name)
        if splits is not None:
            return splits
        spec = self.job.sources[name]
        n_splits = self.graph.source_splits[name]
        if spec.split_factory is not None:
            per_split: Iterable = (spec.split_factory(s, n_splits)
                                   for s in range(n_splits))
        elif n_splits == 1:
            # One split has nothing to route: the source's own order is
            # the split's order.
            per_split = [spec.iterate()]
        else:
            per_split = self._route_to_splits(spec, n_splits)
        buffers: list[list] = []
        for items in per_split:
            if not isinstance(items, list):
                items = list(items)
            if self.batch_mode and items and all(
                    type(it) is RecordBatch and it.wm_offsets is None
                    for it in items):
                # A columnar connector's batches stay columns.
                buffers.append([rb for rb in items if len(rb)])
            else:
                buffers.append(decode_items(items))
        splits = (self._columnar_splits(buffers) if self.batch_mode
                  else [Split(buf) for buf in buffers])
        self._splits[name] = splits
        self._owned[name] = split_ranges(
            n_splits, self.graph.source_parallelism[name])
        return splits

    @staticmethod
    def _route_to_splits(spec: Any, n_splits: int) -> list[list]:
        """Spread a source without a split factory over its splits."""
        buffers: list[list] = [[] for _ in range(n_splits)]
        for i, item in enumerate(decode_items(spec.iterate())):
            if isinstance(item, Watermark):
                # A watermark in a source stream asserts event-time
                # progress for the whole source: broadcast.
                for buf in buffers:
                    buf.append(item)
            elif item.key is not None:
                # Key-aligned split: same key, same split — the
                # precondition for per-key order preservation.
                buffers[key_group_for(item.key, n_splits)].append(item)
            else:
                buffers[i % n_splits].append(item)
        return buffers

    @staticmethod
    def _columnar_splits(buffers: list[list]) -> list[Split]:
        """Encode each split as a RecordBatch sharing one key dictionary
        across the whole source, so a subtask merging several splits can
        gather codes into one batch without re-encoding keys.  A split
        that arrived as batches is spliced under that dictionary, never
        decoded; one holding markers or no items stays a list and its
        subtask falls back to the heap merge."""
        key_index: dict = {}
        key_dict: list = []
        # one split: no later split reads the index, so none is kept
        spliced_index = key_index if len(buffers) > 1 else None
        splits: list[Split] = []
        for buf in buffers:
            if buf and type(buf[0]) is RecordBatch:
                rb = RecordBatch.splice(buf, spliced_index, key_dict)
            elif buf and all(type(it) is Element for it in buf):
                rb = RecordBatch.from_elements(buf, key_index, key_dict)
            else:
                splits.append(Split(buf))
                continue
            ts = rb.timestamps
            splits.append(Split(rb, mergeable=(
                isinstance(rb.values, np.ndarray)
                and bool(np.all(ts[1:] >= ts[:-1])))))
        return splits

    # -- pulling -------------------------------------------------------------

    def pull(self, name: str, idx: int, n: int) -> tuple[int, list]:
        """Up to ``n`` items for subtask ``idx`` of one source, merged
        by event time over the splits it owns.  Returns how many were
        read (what positions advanced by) and the items, as columns
        wherever the splits allow."""
        splits = self.open(name)
        owned = self._owned[name][idx]
        taken = (self._pull_columnar(name, idx, splits, owned, n)
                 if self.batch_mode else None)
        if taken is None:
            taken = self._pull_heap(splits, owned, n)
            pulled = len(taken)
        else:
            pulled = items_weight(taken)
        if taken:
            # merged pulls are time-ordered: the last item carries the
            # batch maximum
            last = taken[-1]
            ts = (float(last.timestamps[-1]) if type(last) is RecordBatch
                  else last.timestamp)
            if ts > self.frontier:
                self.frontier = ts
        return pulled, taken

    @staticmethod
    def _pull_heap(splits: list[Split], owned: range,
                   n: int) -> list[StreamItem]:
        """Pull up to ``n`` items from one subtask's splits, merged by
        event timestamp — per-split order is preserved and the merged
        stream is as time-ordered as the splits are, so a subtask owning
        several splits does not manufacture out-of-orderness beyond what
        the data carries (the per-partition-watermark analogue; without
        the merge, chunked round-robin over skewed splits makes a single
        watermark generator drop everything from the lagging split)."""
        heap: list[tuple[float, int]] = []
        items: dict[int, list] = {}
        for s in owned:
            split = splits[s]
            if not split.finished:
                items[s] = split.items()
                heapq.heappush(heap, (items[s][split.position].timestamp, s))
        taken: list[StreamItem] = []
        while heap and len(taken) < n:
            _ts, s = heapq.heappop(heap)
            pos = splits[s].position
            taken.append(items[s][pos])
            splits[s].position = pos + 1
            if pos + 1 < len(items[s]):
                heapq.heappush(heap, (items[s][pos + 1].timestamp, s))
        return taken

    def _pull_columnar(self, name: str, idx: int, splits: list[Split],
                       owned: range, n: int) -> list | None:
        """Columnar twin of :meth:`_pull_heap`, a zero-copy slice a
        pull: of the one live split, or of several pre-merged once
        (:meth:`_merge`), where positions advance by how many of the
        pulled rows each split contributed, so checkpointed offsets
        stay mode-independent.  Returns None (heap fallback) when a live
        split holds markers, or when several are live and one has
        opaque values or out-of-order timestamps."""
        plan = self._plans.get((name, idx))
        if plan is None:
            live = [s for s in owned if not splits[s].finished]
            if any(splits[s].batch is None for s in live):
                return None
            if not live:
                return []
            if len(live) == 1:
                split = splits[live[0]]
                end = min(split.position + n, len(split.buffer))
                out = split.buffer.slice(split.position, end)
                split.position = end
                return [out]
            if not all(splits[s].mergeable for s in live):
                return None
            plan = self._plans[(name, idx)] = self._merge(splits, live)
        merged, sids, cur = plan
        end = min(cur + n, len(merged))
        if end == cur:
            return []
        plan[2] = end
        counts = np.bincount(sids[cur:end], minlength=owned.stop)
        for s in np.flatnonzero(counts).tolist():
            splits[s].position += int(counts[s])
        return [merged.slice(cur, end)]

    @staticmethod
    def _merge(splits: list[Split], live: list[int]) -> list:
        """Pre-merged pull plan ``[rows, split id per row, cursor]``: the
        remaining suffixes of one subtask's live columnar splits,
        globally ordered by ``lexsort((split_id, timestamp))`` —
        provably the heap merge's order when per-split timestamps are
        nondecreasing (the heap pops by (ts, split) and per-split FIFO
        order is preserved by the stable sort)."""
        ts_parts, val_parts, code_parts, sid_parts = [], [], [], []
        key_dict = splits[live[0]].buffer.key_dict  # one per source
        for s in live:
            rb, pos = splits[s].buffer, splits[s].position
            ts_parts.append(rb.timestamps[pos:])
            val_parts.append(rb.values[pos:])
            code_parts.append(rb.key_codes[pos:])
            sid_parts.append(np.full(len(rb) - pos, s, dtype=np.int64))
        ts_all = np.concatenate(ts_parts)
        sid_all = np.concatenate(sid_parts)
        order = np.lexsort((sid_all, ts_all))
        merged = RecordBatch(
            ts_all[order], np.concatenate(val_parts)[order], py_values=True,
            key_codes=np.concatenate(code_parts)[order], key_dict=key_dict)
        return [merged, sid_all[order], 0]

    # -- positions -----------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """Every split of every source read to its end (a source not
        opened yet is not)."""
        return all(name in self._splits
                   and all(split.finished for split in self._splits[name])
                   for name in self.job.sources)

    def positions(self) -> dict[str, dict[int, int]]:
        """Current per-split read positions (a checkpoint's cut).  A
        source not read yet stands at position 0 on every split and is
        not read for the asking, so a checkpoint taken before the first
        pull is a valid restart-from-scratch restore point."""
        return {name: ({s: split.position for s, split
                        in enumerate(self._splits[name])}
                       if name in self._splits
                       else dict.fromkeys(range(n), 0))
                for name, n in self.graph.source_splits.items()}

    def rewind(self, names: Iterable[str],
               positions: dict[str, dict[int, int]]) -> int:
        """Set the splits of ``names`` back to ``positions`` (a
        checkpoint's; a split it does not mention stays where it is).
        Returns how many items the rewind will read again."""
        names = list(names)
        replayed = 0
        for name in names:
            splits = self.open(name)
            for s, pos in positions.get(name, {}).items():
                replayed += max(0, splits[s].position - pos)
                splits[s].position = pos
        self._plans = {k: plan for k, plan in self._plans.items()
                       if k[0] not in names}
        return replayed

    # -- introspection -------------------------------------------------------

    def timestamps(self, name: str) -> list[float]:
        """Timestamps of every item of one source, in split order.  The
        autoscaler sorts these once to build its deterministic
        arrival model (how many elements have "arrived" by sim-time t)."""
        out: list[float] = []
        for split in self.open(name):
            rb = split.batch
            if rb is not None:
                out.extend(rb.timestamps.tolist())
            else:
                out.extend(item.timestamp for item in split.buffer)
        return out

    def pulled(self, name: str) -> int:
        """Total items pulled so far across one source's splits."""
        return sum(split.position for split in self.open(name))

    def records(self, name: str) -> int:
        """Items one source holds, read or not (0 until it is opened)."""
        return sum(len(split.buffer)
                   for split in self._splits.get(name, ()))
