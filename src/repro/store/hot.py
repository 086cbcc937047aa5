"""Log-structured hot store: the headset-facing point-lookup tier.

The paper's serving split (Sec 4.1) needs "latest state for this key"
answered in microseconds while ingest runs continuously.  This module
is the write-optimized half of the tiered store:

- **Shards** own contiguous key-group ranges (the same FNV key-group →
  range assignment the streaming engine shuffles by, see
  :mod:`repro.streaming.shuffle`), so a key's serving shard is as
  deterministic as its processing subtask.
- Each shard is a small LSM tree: a **memtable** (dict of per-key
  lists of run rows, each oldest to newest) absorbing writes, flushed
  into immutable **sorted runs** whose rows order by
  ``(key, -timestamp, -seq)`` — reverse-timestamp row keys, so "latest
  N versions of a key" is the tail of one memtable list plus a prefix
  scan per run from that run's exact key index.  A row has that one
  shape from staging on: a flush only lays each key's list out
  reversed, and reads take memtable rows as stored.
- One **ordering key** decides "newer" everywhere — memtable, flush,
  compaction, ``latest``, ``contents`` and TTL liveness: the event
  time, then the apply sequence.  It is computed once, when an
  epoch's rows are built, and a NaN event time orders as ``-inf``
  (older than every finite timestamp; ties, also with a real ``-inf``,
  fall to the apply sequence) — so what a shard answers never depends
  on how its rows are spread over memtable and runs, and a key's live
  versions are always a prefix of its newest-first order.
- **Size-tiered compaction** merges runs of similar size when a tier
  collects ``tier_fanout`` of them, bounding run count (and therefore
  lookup fan-out) logarithmically in total rows.
- **TTL expiry** runs on :class:`~repro.util.clock.SimClock`: reads
  filter expired versions, compaction drops them, and ``expire()``
  forces a deterministic full sweep — no wall clock anywhere.

Mutations enter **only** through :meth:`HotShard.apply_epoch`, the
install half of the store's epoch-apply protocol (see
:mod:`repro.store.sink`): all failure-prone work (key encoding,
ordering, merging) happens while staging; the install is a short
sequence of container mutations ending with
``last_applied_epoch = epoch``, so a
crash at any injected fault site leaves the shard either fully at the
old epoch or fully at the new one — never in between.
"""

from __future__ import annotations

from heapq import merge
from itertools import count
from typing import Any, Iterable, Iterator

from ..streaming.shuffle import (
    DEFAULT_KEY_GROUPS,
    key_group_for,
    subtask_for_key_group,
)
from ..util.clock import SimClock
from ..util.errors import StoreError

__all__ = ["HotShard", "HotStore", "SortedRun", "key_repr"]

#: a NaN event time's ``-order_ts`` in a run row: NaN orders as
#: ``-inf`` (NaN itself compares false with everything, which would
#: leave every sort structure-dependent)
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
    """The one row shape, memtable and runs alike:
    ``(key_repr, -order_ts, -seq, timestamp, value)``."""
    return (kr, -ts if ts == ts else _NAN_RANK, -seq, ts, value)


class SortedRun:
    """One immutable sorted run.

    Rows are ``(key_repr, -order_ts, -seq, timestamp, value)`` tuples
    sorted by their first three fields (``seq`` is unique within a
    shard, so a comparison never reaches the value).  ``first_row``
    maps every key the run holds to its first (newest) row: a run that
    cannot hold a key costs a lookup one dict miss, and prefix scans
    from that row are the whole read API.  A flush, which lays the run
    out key by key, passes ``first_row`` in.
    """

    __slots__ = ("rows", "first_row")

    def __init__(self, rows: list[tuple],
                 first_row: dict[str, int] | None = None) -> None:
        self.rows = rows
        if first_row is None:
            # Filled back to front, so each key keeps its lowest index.
            first_row = dict(zip([row[0] for row in reversed(rows)],
                                 range(len(rows) - 1, -1, -1)))
        self.first_row: dict[str, int] = first_row

    def __len__(self) -> int:
        return len(self.rows)

    def scan_key(self, kr: str, limit: int,
                 min_ts: float | None) -> list[tuple]:
        """Up to ``limit`` newest live rows of one key, newest first.
        Rows run newest to oldest, so the first expired one ends the
        scan."""
        i = self.first_row.get(kr)
        if i is None:
            return []
        out = []
        for row in self.rows[i:i + limit]:
            if row[0] != kr or (min_ts is not None and -row[1] < min_ts):
                break
            out.append(row)
        return out

    def live_rows(self, min_ts: float | None) -> Iterable[tuple]:
        if min_ts is None:
            return iter(self.rows)
        return (row for row in self.rows if -row[1] >= min_ts)


class HotShard:
    """One key-range shard: memtable + sorted runs + compaction."""

    def __init__(self, shard_id: int, *, clock: SimClock | None = None,
                 ttl_s: float | None = None, memtable_limit: int = 4096,
                 tier_fanout: int = 4) -> None:
        if memtable_limit < 1:
            raise StoreError("memtable_limit must be >= 1")
        if tier_fanout < 2:
            raise StoreError("tier_fanout must be >= 2")
        self.shard_id = shard_id
        self.clock = clock
        self.ttl_s = ttl_s
        self.memtable_limit = memtable_limit
        self.tier_fanout = tier_fanout
        #: epoch of the last applied commit; the double-apply guard
        self.last_applied_epoch = 0
        #: key_repr -> run rows oldest to newest (descending tuple
        #: order): the newest version of a key is the last element
        self._mem: dict[str, list[tuple]] = {}
        self._mem_rows = 0
        self._runs: list[SortedRun] = []
        #: the run list the last compaction pass found nothing to merge
        #: in; every change to the runs assigns a new list
        self._settled_runs: list[SortedRun] | None = None
        self._seq = 0
        self.flushes = 0
        self.compactions = 0

    # -- TTL -----------------------------------------------------------------

    def _min_ts(self) -> float | None:
        if self.ttl_s is None or self.clock is None:
            return None
        return self.clock.now - self.ttl_s

    # -- epoch apply (the only mutation path) --------------------------------

    def stage_epoch(self, epoch: int, rows: list[tuple[str, float, Any]]
                    ) -> tuple | None:
        """:meth:`stage_keys` of ``(key_repr, timestamp, value)`` rows
        in commit order."""
        fresh: dict[str, list[tuple]] = {}
        for seq, (kr, ts, value) in enumerate(rows, self._seq):
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

        ``fresh`` maps each key of the epoch to its run rows in commit
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
        they are the run."""
        if not self._mem_rows:
            return
        mem = self._mem
        rows: list[tuple] = []
        first_row: dict[str, int] = {}
        for kr in sorted(mem):
            first_row[kr] = len(rows)
            rows.extend(reversed(mem[kr]))
        self._runs = self._runs + [SortedRun(rows, first_row)]
        self._mem = {}
        self._mem_rows = 0
        self.flushes += 1

    def _tier_of(self, run: SortedRun) -> int:
        tier, size = 0, len(run)
        while size >= self.memtable_limit:
            size //= self.tier_fanout
            tier += 1
        return tier

    def compact(self) -> None:
        """Size-tiered: when any tier holds ``tier_fanout`` runs, merge
        them into one (dropping expired versions).  The merged run is
        built fully before the run list is swapped, so a crash during
        the merge leaves the old runs — and every answer — intact."""
        if self._runs is self._settled_runs:
            return
        while True:
            tiers: dict[int, list[SortedRun]] = {}
            for run in self._runs:
                tiers.setdefault(self._tier_of(run), []).append(run)
            victims = next((runs for runs in tiers.values()
                            if len(runs) >= self.tier_fanout), None)
            if victims is None:
                self._settled_runs = self._runs
                return
            min_ts = self._min_ts()
            merged_rows = [row for run in victims
                           for row in run.live_rows(min_ts)]
            merged_rows.sort()
            merged = SortedRun(merged_rows)
            dead = set(map(id, victims))
            self._runs = [r for r in self._runs
                          if id(r) not in dead] + [merged]
            self.compactions += 1

    def expire(self) -> None:
        """Deterministic TTL sweep on the SimClock: flush, then rewrite
        every run without expired versions (one atomic swap)."""
        min_ts = self._min_ts()
        if min_ts is None:
            return
        self.flush()
        rewritten = []
        for run in self._runs:
            rows = [row for row in run.live_rows(min_ts)]
            if rows:
                rewritten.append(SortedRun(rows))
        self._runs = rewritten

    # -- reads ---------------------------------------------------------------

    def latest(self, key: Any, n: int = 1) -> list[tuple[float, Any]]:
        """Newest ``n`` live versions: ``[(timestamp, value), ...]``,
        newest first.  The key's newest ``n`` are among the last ``n``
        of its memtable list and the first ``n`` of its rows in each
        run; those at most ``n * (runs + 1)`` candidates merge by
        ``(order_ts, seq)`` so same-timestamp writes resolve to the
        latest applied."""
        return self.latest_rows(key_repr(key), n)

    def latest_rows(self, kr: str, n: int) -> list[tuple[float, Any]]:
        """:meth:`latest` of a key already in row-key form."""
        if n < 1:
            raise StoreError("latest() needs n >= 1")
        min_ts = self._min_ts()
        candidates: list[tuple] = []
        versions = self._mem.get(kr)
        if versions:
            for row in reversed(versions[-n:]):
                if min_ts is not None and -row[1] < min_ts:
                    break
                candidates.append(row)
        for run in self._runs:
            candidates.extend(run.scan_key(kr, n, min_ts))
        if len(candidates) > 1:
            candidates.sort()
        return [(row[3], row[4]) for row in candidates[:n]]

    def contents(self) -> dict[str, list[tuple[float, Any]]]:
        """Canonical dump: key_repr -> all live versions newest-first.
        The chaos suite compares this across crashed and fault-free
        runs, so it must be independent of memtable/run structure."""
        min_ts = self._min_ts()
        acc: dict[str, list[tuple]] = {}
        for kr, versions in self._mem.items():
            live = [row for row in versions
                    if min_ts is None or -row[1] >= min_ts]
            if live:
                acc[kr] = live
        for run in self._runs:
            for row in run.live_rows(min_ts):
                acc.setdefault(row[0], []).append(row)
        return {kr: [(row[3], row[4]) for row in sorted(acc[kr])]
                for kr in sorted(acc)}

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
                 num_key_groups: int = DEFAULT_KEY_GROUPS,
                 clock: SimClock | None = None, ttl_s: float | None = None,
                 memtable_limit: int = 4096, tier_fanout: int = 4) -> None:
        if num_shards < 1:
            raise StoreError("need at least one shard")
        if num_key_groups < num_shards:
            raise StoreError("num_key_groups must be >= num_shards")
        self.num_shards = num_shards
        self.num_key_groups = num_key_groups
        self.shards = [HotShard(i, clock=clock, ttl_s=ttl_s,
                                memtable_limit=memtable_limit,
                                tier_fanout=tier_fanout)
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
        group = key_group_for(key, self.num_key_groups)
        hit = (subtask_for_key_group(group, self.num_key_groups,
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
        is built once, in its run-row shape, straight into its key's
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

    def latest(self, key: Any, n: int = 1) -> list[tuple[float, Any]]:
        sid, kr = self.route(key)
        return self.shards[sid].latest_rows(kr, n)

    def point(self, key: Any) -> Any | None:
        """Newest live value for ``key`` (overlay binding), or None."""
        versions = self.latest(key, 1)
        return versions[0][1] if versions else None

    def maintain(self) -> None:
        for shard in self.shards:
            shard.maintain()

    def expire(self) -> None:
        for shard in self.shards:
            shard.expire()

    def contents(self) -> dict[str, list[tuple[float, Any]]]:
        out: dict[str, list[tuple[float, Any]]] = {}
        for shard in self.shards:
            out.update(shard.contents())
        return dict(sorted(out.items()))

    @property
    def rows(self) -> int:
        return sum(shard.rows for shard in self.shards)

    def last_applied_epochs(self) -> list[int]:
        return [shard.last_applied_epoch for shard in self.shards]

    def stats(self) -> dict[str, Any]:
        return {"shards": [s.stats() for s in self.shards],
                "rows": self.rows}
