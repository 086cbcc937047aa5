"""Log-structured hot store: the headset-facing point-lookup tier.

The paper's serving split (Sec 4.1) needs "latest state for this key"
answered in microseconds while ingest runs continuously.  This module
is the write-optimized half of the tiered store:

- **Shards** own contiguous key-group ranges (the same FNV key-group →
  range assignment the streaming engine shuffles by, see
  :mod:`repro.streaming.shuffle`), so a key's serving shard is as
  deterministic as its processing subtask.
- Each shard is a small LSM tree: a **memtable** (dict of per-key
  lists of row tuples ``(key_repr, -order_ts, -seq, timestamp,
  value)``, each oldest to newest) absorbing writes, flushed into
  immutable **sorted runs** whose rows order by ``(key, -timestamp,
  -seq)`` — reverse-timestamp row keys, so a key's versions sit newest
  first.  A run is **columns**, not rows: its sorted distinct keys with
  their row offsets, the timestamps as float64, the apply sequences as
  int64 and the values as a list (the same objects the analytical
  tier's ``raw`` column holds).  A flush lays each key's memtable list
  out reversed under sorted keys and builds the columns in C;
  compaction and ``contents`` merge columns with one ``np.lexsort``.
  Numpy runs only there, never per epoch.
- Each shard also keeps each key's **newest run row** across all of
  its runs, as a row tuple.  Only a flush writes it (one compare per
  flushed key, in the same swap that adds the run); compaction merges
  rows already in runs, so it cannot change any key's newest and never
  touches it.  ``latest(key)`` (the overlay read) is then the smaller
  of the memtable tail and that row — two dict reads and one compare,
  however many runs the shard holds.  No read scans a run.
- One **ordering key** decides "newer" everywhere — memtable, flush,
  compaction, ``latest`` and ``contents``: the event time, then the
  apply sequence.  A NaN event time orders as ``-inf`` (older than
  every finite timestamp; ties, also with a real ``-inf``, fall to the
  apply sequence) — so what a shard answers never depends on how its
  rows are spread over memtable and runs.
- **Size-tiered compaction** merges runs of similar size when a tier
  collects :data:`TIER_FANOUT` of them, bounding run count
  logarithmically in total rows.  A shard keeps every version it was
  given: nothing expires.

Mutations enter **only** through :meth:`HotShard.apply_epoch`, the
install half of the store's epoch-apply protocol (see
:mod:`repro.store.sink`): all failure-prone work (key encoding,
timestamp conversion, ordering, merging) happens while staging; the
install is a short sequence of container mutations ending with
``last_applied_epoch = epoch``, so a
crash at any injected fault site leaves the shard either fully at the
old epoch or fully at the new one — never in between.
"""

from __future__ import annotations

from heapq import merge
from itertools import chain, count
from operator import itemgetter
from typing import Any, Iterator

import numpy as np

from ..streaming import shuffle
from ..streaming.shuffle import key_group_for, subtask_for_key_group
from ..util.errors import StoreError

__all__ = ["TIER_FANOUT", "HotShard", "HotStore", "SortedRun", "key_repr"]

#: runs of one size tier that compaction merges into one; read at call
#: time, so a test can rebind it
TIER_FANOUT = 4

#: a NaN event time's ``-order_ts`` (its rank): NaN orders as ``-inf``
#: (NaN itself compares false with everything, which would leave every
#: sort structure-dependent)
_NAN_RANK = float("inf")

#: distinct ``str`` keys whose ``(shard id, key_repr)`` route stays
#: memoised; the memo starts over when it reaches this size
_ROUTE_MEMO_MAX = 1 << 16


def key_repr(key: Any) -> str:
    """Canonical row-key form of a stream key: its ``repr``.

    The same canonicalization :func:`key_group_for` hashes, so row
    ordering and shard routing agree on what a key *is*.
    """
    return repr(key)


def run_row(kr: str, ts: float, seq: int, value: Any) -> tuple:
    """The memtable's row shape:
    ``(key_repr, -order_ts, -seq, timestamp, value)``."""
    return (kr, -ts if ts == ts else _NAN_RANK, -seq, ts, value)


class SortedRun:
    """One immutable sorted run, held as columns.

    ``keys`` are the run's distinct key_reprs, sorted; key ``keys[k]``
    owns rows ``starts[k]`` to ``starts[k + 1]`` (``starts`` is int64,
    one entry longer than ``keys``).  Row ``i`` is the version
    ``(ts[i], values[i])`` applied as ``seq[i]``: ``ts`` is float64,
    ``seq`` int64 and ``values`` a list, so a value object stays the
    one the analytical tier holds.  Within a key rows run newest first,
    by ``(-order_ts, -seq)`` (``seq`` is unique within a shard).  A
    read finds a key's newest run row in the shard's ``_run_newest``
    index, never by scanning a run.
    """

    __slots__ = ("keys", "starts", "ts", "seq", "values")

    def __init__(self, keys: list[str], starts: np.ndarray, ts: np.ndarray,
                 seq: np.ndarray, values: list) -> None:
        self.keys = keys
        self.starts = starts
        self.ts = ts
        self.seq = seq
        self.values = values

    def __len__(self) -> int:
        return len(self.values)


def _freeze(mem: dict[str, list[tuple]]) -> SortedRun:
    """A memtable as one run: each key's list (oldest to newest)
    reversed, under sorted keys, its fields gathered in C."""
    keys = sorted(mem)
    rows: list[tuple] = []
    starts = [0]
    for kr in keys:
        rows.extend(reversed(mem[kr]))
        starts.append(len(rows))
    n = len(rows)
    seq = np.fromiter(map(itemgetter(2), rows), np.int64, n)
    np.negative(seq, out=seq)
    return SortedRun(keys, np.array(starts, np.int64),
                     np.fromiter(map(itemgetter(3), rows), np.float64, n),
                     seq, list(map(itemgetter(4), rows)))


def _merge(runs: list[SortedRun]) -> SortedRun:
    """One run holding every row of ``runs``, ordered by one
    ``np.lexsort`` over (key code, rank, -seq); the rank is ``-ts``,
    NaN mapped to :data:`_NAN_RANK`."""
    keys = sorted(set().union(*(run.keys for run in runs)))
    code = {kr: i for i, kr in enumerate(keys)}
    codes = np.concatenate([
        np.repeat(np.fromiter(map(code.__getitem__, run.keys), np.int64,
                              len(run.keys)), np.diff(run.starts))
        for run in runs])
    ts = np.concatenate([run.ts for run in runs])
    seq = np.concatenate([run.seq for run in runs])
    rank = np.negative(ts)
    rank[np.isnan(rank)] = _NAN_RANK
    order = np.lexsort((np.negative(seq), rank, codes))
    values = np.fromiter(chain.from_iterable(run.values for run in runs),
                         object, len(ts))
    starts = np.zeros(len(keys) + 1, np.int64)
    np.cumsum(np.bincount(codes, minlength=len(keys)), out=starts[1:])
    return SortedRun(keys, starts, ts[order], seq[order],
                     values[order].tolist())


class HotShard:
    """One key-range shard: memtable + sorted runs + compaction."""

    def __init__(self, shard_id: int, *, memtable_limit: int = 4096) -> None:
        if memtable_limit < 1:
            raise StoreError("memtable_limit must be >= 1")
        self.shard_id = shard_id
        self.memtable_limit = memtable_limit
        #: epoch of the last applied commit; the double-apply guard
        self.last_applied_epoch = 0
        #: key_repr -> row tuples oldest to newest (descending tuple
        #: order): the newest version of a key is the last element
        self._mem: dict[str, list[tuple]] = {}
        self._mem_rows = 0
        self._runs: list[SortedRun] = []
        #: key_repr -> the key's newest (smallest) row over all runs,
        #: as the memtable tail it was flushed from; written only by
        #: :meth:`flush`
        self._run_newest: dict[str, tuple] = {}
        #: the run list the last compaction pass found nothing to merge
        #: in; every change to the runs assigns a new list
        self._settled_runs: list[SortedRun] | None = None
        self._seq = 0
        self.flushes = 0
        self.compactions = 0

    # -- epoch apply (the only mutation path) --------------------------------

    def stage_epoch(self, epoch: int, rows: list[tuple[str, float, Any]]
                    ) -> tuple | None:
        """:meth:`stage_keys` of ``(key_repr, timestamp, value)`` rows
        in commit order.

        Each timestamp is taken as its ``float`` here, so a run's
        float64 column can hold every row staging accepts; one that
        ``float()`` refuses or cannot hold raises :class:`StoreError`,
        and nothing is staged."""
        fresh: dict[str, list[tuple]] = {}
        for seq, (kr, ts, value) in enumerate(rows, self._seq):
            try:
                ts = float(ts)
            except (TypeError, ValueError, OverflowError):
                raise StoreError(
                    f"epoch {epoch}, key {kr}: timestamp {ts!r:.40} is "
                    "not a float") from None
            row = run_row(kr, ts, seq, value)
            bucket = fresh.get(kr)
            if bucket is None:
                fresh[kr] = [row]
            else:
                bucket.append(row)
        return self.stage_keys(epoch, fresh)

    def stage_keys(self, epoch: int, fresh: dict[str, list[tuple]]
                   ) -> tuple | None:
        """Build everything the install needs, off to the side.

        ``fresh`` maps each key of the epoch to its row tuples in commit
        order, numbered on from this shard's next apply sequence across
        the whole epoch (see :func:`run_row`).  Returns an opaque staged
        token (or ``None`` when the epoch is already applied —
        restore/rescale re-drives hit this guard).  Nothing observable
        changes; a crash after staging costs only the scratch work.

        Only the epoch's own rows are touched.  Per key they are
        ordered, then either they all sort after the resident tail
        (event time mostly follows apply order) and the token holds
        them as a tail to append, or the token holds a merged
        replacement for the key's list.  Every list in the token is
        new, so a discarded token leaves no trace in the memtable.
        """
        if epoch <= self.last_applied_epoch:
            return None
        mem = self._mem
        tails: dict[str, list] = {}
        replaced: dict[str, list] = {}
        staged = 0
        for kr, rows in fresh.items():
            staged += len(rows)
            if len(rows) > 1:
                rows.sort(reverse=True)
            resident = mem.get(kr)
            if resident is None:
                replaced[kr] = rows
            elif rows[0] < resident[-1]:
                tails[kr] = rows
            else:
                replaced[kr] = list(merge(resident, rows, reverse=True))
        base = self._seq
        return (epoch, self.flushes, base, tails, replaced, base + staged)

    def install_epoch(self, staged: tuple | None) -> int:
        """Install a staged epoch atomically: list extends, one dict
        update and counter flips, none of which can fail once the token
        is known to describe this memtable.  Idempotent via the epoch
        guard."""
        if staged is None:
            return 0
        epoch, flushes, base, tails, replaced, next_seq = staged
        if epoch <= self.last_applied_epoch:
            return 0
        if flushes != self.flushes or base != self._seq:
            raise StoreError(
                f"staged epoch {epoch} is stale: shard {self.shard_id} "
                "flushed or installed another epoch since it was staged")
        mem = self._mem
        for kr, tail in tails.items():
            mem[kr].extend(tail)
        mem.update(replaced)
        self._mem_rows += next_seq - base
        self._seq = next_seq
        self.last_applied_epoch = epoch
        return next_seq - base

    def apply_epoch(self, epoch: int,
                    rows: list[tuple[str, float, Any]]) -> int:
        """Stage + install in one call (unit tests and the facade)."""
        return self.install_epoch(self.stage_epoch(epoch, rows))

    # -- flush / compaction --------------------------------------------------

    def maintain(self) -> None:
        """Flush an over-limit memtable, then rebalance tiers."""
        if self._mem_rows >= self.memtable_limit:
            self.flush()
        self.compact()

    def flush(self) -> None:
        """Freeze the memtable into one sorted run (atomic swap).  Each
        key's list is already in order: reversed, under sorted keys,
        they are the run's rows, whose fields become its columns.  A
        key whose memtable tail is newer than its newest run row so far
        gets the tail as its new one; the run list and that index
        change together, after everything is built."""
        if not self._mem_rows:
            return
        mem = self._mem
        run_newest = self._run_newest
        newer: dict[str, tuple] = {}
        for kr, versions in mem.items():
            tail = versions[-1]
            known = run_newest.get(kr)
            if known is None or tail < known:
                newer[kr] = tail
        self._runs = self._runs + [_freeze(mem)]
        run_newest.update(newer)
        self._mem = {}
        self._mem_rows = 0
        self.flushes += 1

    def _tier_of(self, run: SortedRun) -> int:
        tier, size = 0, len(run)
        while size >= self.memtable_limit:
            size //= TIER_FANOUT
            tier += 1
        return tier

    def compact(self) -> None:
        """Size-tiered: when any tier holds :data:`TIER_FANOUT` runs,
        merge their columns into one (:func:`_merge`).  The merged run
        is built fully before the run list is swapped, so a crash during
        the merge leaves the old runs — and every answer — intact.  A
        merge only moves rows that are already in runs, so no key's
        newest run row changes."""
        if self._runs is self._settled_runs:
            return
        while True:
            tiers: dict[int, list[SortedRun]] = {}
            for run in self._runs:
                tiers.setdefault(self._tier_of(run), []).append(run)
            victims = next((runs for runs in tiers.values()
                            if len(runs) >= TIER_FANOUT), None)
            if victims is None:
                self._settled_runs = self._runs
                return
            merged = _merge(victims)
            dead = set(map(id, victims))
            self._runs = [r for r in self._runs
                          if id(r) not in dead] + [merged]
            self.compactions += 1

    # -- reads ---------------------------------------------------------------

    def latest(self, key: Any) -> list[tuple[float, Any]]:
        """The newest version, ``[(timestamp, value)]`` (``[]`` for an
        unknown key), ordered by ``(order_ts, seq)`` so same-timestamp
        writes resolve to the latest applied: the smaller of the key's
        memtable tail and its newest run row."""
        return self.latest_rows(key_repr(key))

    def latest_rows(self, kr: str) -> list[tuple[float, Any]]:
        """:meth:`latest` of a key already in row-key form."""
        best = self._run_newest.get(kr)
        versions = self._mem.get(kr)
        if versions and (best is None or versions[-1] < best):
            best = versions[-1]
        return [] if best is None else [(best[3], best[4])]

    def contents(self) -> dict[str, list[tuple[float, Any]]]:
        """Canonical dump: key_repr -> all versions newest-first.
        The chaos suite compares this across crashed and fault-free
        runs, so it must be independent of memtable/run structure:
        the memtable, frozen as a run, and every run merge into one
        (:func:`_merge`) that is read out key by key."""
        runs = self._runs
        if self._mem:
            runs = runs + [_freeze(self._mem)]
        if not runs:
            return {}
        run = _merge(runs) if len(runs) > 1 else runs[0]
        versions = list(zip(run.ts.tolist(), run.values))
        bounds = run.starts.tolist()
        return {kr: versions[lo:hi]
                for kr, lo, hi in zip(run.keys, bounds, bounds[1:])}

    @property
    def rows(self) -> int:
        return self._mem_rows + sum(len(run) for run in self._runs)

    def stats(self) -> dict[str, Any]:
        return {"shard": self.shard_id, "rows": self.rows,
                "memtable_rows": self._mem_rows, "runs": len(self._runs),
                "flushes": self.flushes, "compactions": self.compactions,
                "last_applied_epoch": self.last_applied_epoch}


class HotStore:
    """Sharded hot store: routes keys the way the engine does."""

    def __init__(self, *, num_shards: int = 8,
                 memtable_limit: int = 4096) -> None:
        if num_shards < 1:
            raise StoreError("need at least one shard")
        if num_shards > shuffle.KEY_GROUPS:
            raise StoreError(f"at most {shuffle.KEY_GROUPS} shards: one "
                             "per key group")
        self.num_shards = num_shards
        self.shards = [HotShard(i, memtable_limit=memtable_limit)
                       for i in range(num_shards)]
        #: str key -> (shard id, key_repr), see :meth:`route`
        self._routes: dict[str, tuple[int, str]] = {}

    def route(self, key: Any) -> tuple[int, str]:
        """``(shard id, key_repr)`` of a stream key.

        Memoised for ``str`` keys only: there, equal keys have equal
        ``repr``.  Other keys can be equal and print differently
        (``1 == 1.0 == True``, ``0.0 == -0.0``, ``(1, "a") ==
        (1.0, "a")``), and each keeps the row key it prints as.
        """
        if type(key) is str:
            hit = self._routes.get(key)
            if hit is not None:
                return hit
        groups = shuffle.KEY_GROUPS
        hit = (subtask_for_key_group(key_group_for(key, groups), groups,
                                     self.num_shards), key_repr(key))
        if type(key) is str:
            if len(self._routes) >= _ROUTE_MEMO_MAX:
                self._routes.clear()
            self._routes[key] = hit
        return hit

    def shard_for(self, key: Any) -> HotShard:
        return self.shards[self.route(key)[0]]

    def stage_epoch(self, epoch: int, keys: list, codes: list[int],
                    timestamps: list[float], values: list
                    ) -> dict[int, tuple | None]:
        """Stage one epoch on every shard it touches: ``{shard id:
        staged token}``.  Rows come as columns in commit order: ``keys``
        is the key dictionary, ``codes`` index into it.

        Each distinct key is routed once (:meth:`route`); then each row
        is built once, in its memtable shape, straight into its key's
        bucket, numbered per shard in commit order from that shard's
        next apply sequence — what :meth:`HotShard.stage_epoch` would
        number each shard's rows.  The shards do the per-key rest.
        """
        shards = self.shards
        per_shard: dict[int, dict[str, list[tuple]]] = {}
        seqs: dict[int, Iterator[int]] = {}
        key_rows: list[list[tuple]] = []
        row_keys: list[str] = []
        key_seqs: list[Iterator[int]] = []
        if codes:
            for k in keys:
                sid, kr = self.route(k)
                fresh = per_shard.get(sid)
                if fresh is None:
                    fresh = per_shard[sid] = {}
                    seqs[sid] = count(-shards[sid]._seq, -1)
                bucket = fresh.get(kr)
                if bucket is None:
                    bucket = fresh[kr] = []
                key_rows.append(bucket)
                row_keys.append(kr)
                key_seqs.append(seqs[sid])
        nan_rank = _NAN_RANK
        for c, ts, value in zip(codes, timestamps, values):
            # run_row, inlined: this loop runs once per stored row
            key_rows[c].append((row_keys[c], -ts if ts == ts else nan_rank,
                                next(key_seqs[c]), ts, value))
        staged = {}
        for sid, fresh in per_shard.items():
            if not all(fresh.values()):
                # the key dictionary names keys no row carries
                fresh = {kr: rows for kr, rows in fresh.items() if rows}
            if fresh:
                staged[sid] = shards[sid].stage_keys(epoch, fresh)
        return staged

    def latest(self, key: Any) -> list[tuple[float, Any]]:
        sid, kr = self.route(key)
        return self.shards[sid].latest_rows(kr)

    def point(self, key: Any) -> Any | None:
        """Newest value for ``key`` (overlay binding), or None."""
        versions = self.latest(key)
        return versions[0][1] if versions else None

    def maintain(self) -> None:
        for shard in self.shards:
            shard.maintain()

    def contents(self) -> dict[str, list[tuple[float, Any]]]:
        out: dict[str, list[tuple[float, Any]]] = {}
        for shard in self.shards:
            out.update(shard.contents())
        return dict(sorted(out.items()))

    @property
    def rows(self) -> int:
        return sum(shard.rows for shard in self.shards)

    def stats(self) -> dict[str, Any]:
        return {"shards": [s.stats() for s in self.shards],
                "rows": self.rows}
