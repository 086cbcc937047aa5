"""The hot store: the headset-facing point-lookup tier.

The paper's serving split (Sec 4.1) needs "latest state for this key"
answered in microseconds while ingest runs continuously; the history
behind it is the analytical tier's to scan (:mod:`repro.store.analytical`).
So the hot tier keeps two things, and sorts neither per epoch:

- **Each key's newest version**, in its shard's index: ``key_repr ->
  (rank, -seq, timestamp, value)``.  Shards own contiguous key-group
  ranges (the same FNV key-group → range assignment the streaming
  engine shuffles by, see :mod:`repro.streaming.shuffle`), so a key's
  serving shard is as deterministic as its processing subtask.
  ``latest(key)`` (the overlay read) is one dict get.
- **An append-only log** of every version, in commit order: per epoch
  the columns it came as — the ``key_repr`` of each key code, the
  codes, the float64 timestamps and the value list (the same objects
  the analytical tier's ``raw`` column holds).  A row's apply sequence
  ``seq`` is its position in the log.  Only :meth:`HotStore.contents`
  reads it, ordering it on demand; no apply or serve path does.  A
  store keeps every version it was given: nothing expires.

One **ordering key** decides "newer" everywhere, in the index and in
``contents``: the event time, then the apply sequence.  A NaN event
time orders as ``-inf`` (older than every finite timestamp; ties, also
with a real ``-inf``, fall to the apply sequence).  A version's
``rank`` is its ``-timestamp``, NaN ranked ``+inf``, so the smaller
``(rank, -seq)`` is the newer version.

Mutations enter **only** through the epoch-apply protocol (see
:mod:`repro.store.sink`): all failure-prone work (timestamp
conversion, routing, finding each key's newest row) happens while
staging, off to the side; the install is dict updates, a list append
and counter flips ending with ``last_applied_epoch = epoch``, so a
crash at any injected fault site leaves the store either fully at the
old epoch or fully at the new one — never in between.
"""

from __future__ import annotations

from itertools import chain
from typing import Any

import numpy as np

from ..streaming import shuffle
from ..streaming.shuffle import key_group_for, subtask_for_key_group
from ..util.errors import StoreError

__all__ = ["HotStore", "key_repr"]

#: a NaN event time's rank: NaN orders as ``-inf`` (NaN itself compares
#: false with everything, which would leave "newest" undefined)
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


class HotStore:
    """Sharded newest-version index over a commit-order log."""

    def __init__(self, *, num_shards: int = 8) -> None:
        if num_shards < 1:
            raise StoreError("need at least one shard")
        if num_shards > shuffle.KEY_GROUPS:
            raise StoreError(f"at most {shuffle.KEY_GROUPS} shards: one "
                             "per key group")
        self.num_shards = num_shards
        #: shard id -> key_repr -> ``(rank, -seq, timestamp, value)`` of
        #: the key's newest version
        self.shards: list[dict[str, tuple]] = [{} for _ in range(num_shards)]
        #: per applied epoch, in commit order: ``(key_repr of each key
        #: code, codes, float64 timestamps, values)``
        self._log: list[tuple[list[str], np.ndarray, np.ndarray, list]] = []
        self.rows = 0
        #: epoch of the last applied commit; the double-apply guard
        self.last_applied_epoch = 0
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

    # -- epoch apply (the only mutation path) --------------------------------

    def stage_epoch(self, epoch: int, keys: list, codes: Any,
                    timestamps: Any, values: list) -> tuple | None:
        """Build everything the install needs, off to the side.

        Rows come as columns in commit order: ``keys`` is the key
        dictionary, ``codes`` index into it.  Each timestamp is taken as
        its float64; one that cannot be (``"noon"``, ``10**400``) raises
        :class:`StoreError`, and nothing is staged.  One pass over the
        rows, last row first, finds each key's newest row of the epoch,
        which the token keeps only where it beats the key's resident
        entry (one tuple compare per key).

        Returns an opaque token (or ``None`` when the epoch is already
        applied — restore/rescale re-drives hit this guard).  Nothing
        observable changes, and the token shares no container with the
        store, so a discarded one leaves no trace.
        """
        if epoch <= self.last_applied_epoch:
            return None
        try:
            ts = np.asarray(timestamps, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise StoreError(f"epoch {epoch}: a timestamp is not a float "
                             f"({exc})") from None
        codes = np.asarray(codes, dtype=np.int64)
        routes = list(map(self.route, keys)) if len(codes) else []
        row_keys = [kr for _sid, kr in routes]
        if len(set(row_keys)) < len(row_keys):
            # unequal keys that print alike (two NaN objects) share a row
            # key, so they share its first code
            first: dict[str, int] = {}
            codes = np.array([first.setdefault(kr, c)
                              for c, kr in enumerate(row_keys)],
                             np.int64)[codes]
        code_list, ts_list = codes.tolist(), ts.tolist()
        n = len(ts_list)
        rank_of: dict[int, float] = {}
        row_of: dict[int, int] = {}
        known = rank_of.get
        nan, nan_rank = float("nan"), _NAN_RANK
        # last row first, so a tie keeps the later row and only a
        # strictly smaller rank replaces a key's candidate; ``not r >=
        # nan`` holds for the first row of a key
        for i, c, t in zip(range(n - 1, -1, -1), reversed(code_list),
                           reversed(ts_list)):
            r = -t if t == t else nan_rank
            if not r >= known(c, nan):
                rank_of[c] = r
                row_of[c] = i
        base = self.rows
        shards = self.shards
        fresh: dict[int, dict[str, tuple]] = {}
        for c, i in row_of.items():
            sid, kr = routes[c]
            entry = (rank_of[c], -(base + i), ts_list[i], values[i])
            resident = shards[sid].get(kr)
            if resident is None or entry < resident:
                winners = fresh.get(sid)
                if winners is None:
                    winners = fresh[sid] = {}
                winners[kr] = entry
        return (epoch, base, (row_keys, codes, ts, values), fresh)

    def install_epoch(self, staged: tuple | None) -> int:
        """Install a staged epoch atomically: dict updates, one list
        append and counter flips, none of which can fail once the token
        is known to describe this store.  Idempotent via the epoch
        guard; a token staged before another epoch's rows were installed
        is refused whole."""
        if staged is None:
            return 0
        epoch, base, segment, fresh = staged
        if epoch <= self.last_applied_epoch:
            return 0
        if base != self.rows:
            raise StoreError(
                f"staged epoch {epoch} is stale: the hot store installed "
                "another epoch since it was staged")
        shards = self.shards
        for sid, winners in fresh.items():
            shards[sid].update(winners)
        n = len(segment[2])
        if n:
            self._log.append(segment)
        self.rows = base + n
        self.last_applied_epoch = epoch
        return n

    # -- reads ---------------------------------------------------------------

    def latest(self, key: Any) -> list[tuple[float, Any]]:
        """The newest version, ``[(timestamp, value)]`` (``[]`` for an
        unknown key), ordered by ``(order_ts, seq)`` so same-timestamp
        writes resolve to the latest applied."""
        sid, kr = self.route(key)
        best = self.shards[sid].get(kr)
        return [] if best is None else [(best[2], best[3])]

    def point(self, key: Any) -> Any | None:
        """Newest value for ``key`` (overlay binding), or None."""
        versions = self.latest(key)
        return versions[0][1] if versions else None

    def contents(self) -> dict[str, list[tuple[float, Any]]]:
        """Canonical dump: key_repr -> all versions newest first, keys
        sorted — the log ordered on demand by ``(key, rank, -seq)``, one
        ``np.lexsort``.  The chaos suite compares it across crashed and
        fault-free runs; no apply or serve path reads it."""
        log = self._log
        if not log:
            return {}
        keys = sorted(set(chain.from_iterable(seg[0] for seg in log)))
        index = {kr: i for i, kr in enumerate(keys)}
        codes = np.concatenate([
            np.fromiter(map(index.__getitem__, row_keys), np.int64,
                        len(row_keys))[seg_codes]
            for row_keys, seg_codes, _ts, _values in log])
        ts = np.concatenate([seg[2] for seg in log])
        n = len(ts)
        rank = np.negative(ts)
        rank[np.isnan(rank)] = _NAN_RANK
        order = np.lexsort((-np.arange(n), rank, codes))
        values = np.fromiter(chain.from_iterable(seg[3] for seg in log),
                             object, n)
        versions = list(zip(ts[order].tolist(), values[order].tolist()))
        bounds = np.zeros(len(keys) + 1, np.int64)
        np.cumsum(np.bincount(codes, minlength=len(keys)), out=bounds[1:])
        bounds = bounds.tolist()
        # a key the dictionaries name but no row carries holds nothing
        return {kr: versions[lo:hi]
                for kr, lo, hi in zip(keys, bounds, bounds[1:]) if lo < hi}

    def stats(self) -> dict[str, Any]:
        # the end-to-end benchmark still reads ``runs``, ``flushes`` and
        # ``compactions``; there are none
        return {"shards": [{"shard": sid, "keys": len(newest), "runs": 0,
                            "flushes": 0, "compactions": 0}
                           for sid, newest in enumerate(self.shards)],
                "rows": self.rows}
