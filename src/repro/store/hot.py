"""The hot tier: the headset-facing index of each key's newest row.

The paper's serving split (Sec 4.1) needs "latest state for this key"
answered in microseconds while ingest runs continuously.  The rows
themselves, every timestamp and value, are the analytical tier's
(:mod:`repro.store.analytical`), which a :class:`~repro.store.tiered.
TieredStore` feeds in the same epochs, in the same order; the hot tier
stores none of them.  It indexes them:

- **one key table**, ``key_repr -> code``, and a memo ``str key ->
  code`` into it.  A ``str`` prints one way, so the memo holds at most
  one entry per code and needs no bound;
- **per code**, the row of the key's newest version (``newest``) and
  that version's ``rank``;
- **per row**, in commit order, the row's code (``row_codes``).  A
  row's apply sequence ``seq`` is its position, the same position its
  timestamp and value hold in the analytical columns.

``TieredStore.latest(key)`` (the overlay read) is a memo get and two
reads at ``newest[code]``.  Only ``TieredStore.contents`` reads the code
column.  A store keeps every version it was given: nothing expires.

One **ordering key** decides "newer" everywhere, in the index and in
``contents``: the event time, then the apply sequence.  A NaN event
time orders as ``-inf`` (older than every finite timestamp; ties, also
with a real ``-inf``, fall to the apply sequence).  A version's
``rank`` is its ``-timestamp``, NaN ranked ``+inf``, so the smaller
``(rank, -seq)`` is the newer version.  A new row has a larger ``seq``
than every resident one, so it replaces a key's newest row exactly
when its rank is not larger.

Mutations enter **only** through the epoch-apply protocol (see
:mod:`repro.store.sink`): all failure-prone work (key codes, the
whole-column passes that find each key's newest row of the epoch and
compare it with the resident one, sizing the buffers) happens while
staging, off to the side; the install scatters the winners, appends
the code column and flips counters, ending with ``last_applied_epoch
= epoch``, so a crash at any injected fault site leaves the store
either fully at the old epoch or fully at the new one — never in
between.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..util.errors import StoreError

__all__ = ["HotStore", "key_repr"]

#: a NaN event time's rank: NaN orders as ``-inf`` (NaN itself compares
#: false with everything, which would leave "newest" undefined)
_NAN_RANK = float("inf")


def key_repr(key: Any) -> str:
    """Canonical row-key form of a stream key: its ``repr``.

    The same canonicalization the engine's key groups hash
    (:func:`~repro.streaming.shuffle.key_group_for`), so a row key and a
    key group agree on what a key *is*.
    """
    return repr(key)


def _grown(buf: np.ndarray, live: int, end: int) -> np.ndarray | None:
    """A copy of ``buf``'s first ``live`` entries with room for ``end``,
    at least doubled; ``None`` if ``buf`` already has the room."""
    if end <= len(buf):
        return None
    grown = np.empty(max(end, 2 * len(buf)), buf.dtype)
    grown[:live] = buf[:live]
    return grown


class HotStore:
    """Each key's newest row, indexed by one key table."""

    def __init__(self) -> None:
        #: key_repr -> code
        self.table: dict[str, int] = {}
        #: str key -> code; a ``str`` key's ``key_repr``, memoised
        self._memo: dict[str, int] = {}
        #: per code (the first ``len(table)``): the key's newest row and
        #: its rank
        self.newest = np.empty(0, np.int64)
        self._rank = np.empty(0, np.float64)
        #: per row (the first ``rows``), in commit order: its code
        self.row_codes = np.empty(0, np.int64)
        self.rows = 0
        #: epoch of the last applied commit; the double-apply guard
        self.last_applied_epoch = 0

    # -- epoch apply (the only mutation path) --------------------------------

    def stage_epoch(self, epoch: int, keys: list, codes: Any,
                    ts: np.ndarray) -> tuple | None:
        """Build everything the install needs, off to the side.

        Rows come as columns in commit order: ``keys`` is the key
        dictionary, ``codes`` index into it, ``ts`` is the float64
        timestamps.  A dictionary key no row carries gets no code.
        Unequal keys that print alike (two NaN objects) share a row key,
        so they share its code.  Whole-column passes then find each key's
        best rank of the epoch (``np.minimum.at``), its latest row at that
        rank (``np.maximum.at``), and which of those beat the key's
        resident rank.

        Returns an opaque token (or ``None`` when the epoch is already
        applied — restore/rescale re-drives hit this guard).  Nothing
        observable changes, and the token shares no container with the
        store, so a discarded one leaves no trace.
        """
        if epoch <= self.last_applied_epoch:
            return None
        codes = np.asarray(codes, dtype=np.int64)
        base, known = self.rows, len(self.table)
        hot = list(map(self._memo.get, keys))
        new: dict[str, int] = {}
        memo: list[tuple[str, int]] = []
        if None in hot or set(map(type, keys)) != {str}:
            present = np.bincount(codes, minlength=len(keys)).tolist()
            table = self.table
            for i, key in enumerate(keys):
                if hot[i] is not None and type(key) is str:
                    continue
                kr = key_repr(key)
                code = table.get(kr, new.get(kr))
                if code is None:
                    if not present[i]:
                        hot[i] = -1 - i  # no row carries it: no code
                        continue
                    code = new[kr] = known + len(new)
                if type(key) is str:
                    memo.append((key, code))
                hot[i] = code
            if len(set(hot)) < len(hot):
                # keys sharing a code: their rows go to the first one's
                first: dict[int, int] = {}
                codes = np.array([first.setdefault(c, i)
                                  for i, c in enumerate(hot)],
                                 np.int64)[codes]
        hot = np.array(hot, np.int64)
        rank = np.negative(ts)
        rank[np.isnan(rank)] = _NAN_RANK
        best = np.empty(len(keys))
        best.fill(_NAN_RANK)
        np.minimum.at(best, codes, rank)
        tied = (rank == best[codes]).nonzero()[0]
        last = np.empty(len(keys), np.int64)
        last.fill(-1)
        np.maximum.at(last, codes[tied], tied)
        touched = (last >= 0).nonzero()[0]
        won, best, last = hot[touched], best[touched], last[touched]
        # a new key's row wins; a resident key's wins at a rank not larger
        wins = won >= known
        resident = (~wins).nonzero()[0]
        wins[resident] = best[resident] <= self._rank[won[resident]]
        end = known + len(new)
        return (epoch, base, list(new), memo, hot[codes],
                (won[wins], best[wins], base + last[wins]),
                (_grown(self.newest, known, end),
                 _grown(self._rank, known, end),
                 _grown(self.row_codes, base, base + len(codes))))

    def install_epoch(self, staged: tuple | None) -> int:
        """Install a staged epoch atomically: scatters and appends into
        buffers the staging sized, dict updates and counter flips, none
        of which can fail once the token is known to describe this
        store.  Idempotent via the epoch guard; a token staged before
        another epoch's rows were installed is refused whole."""
        if staged is None:
            return 0
        epoch, base, new, memo, row_codes, winners, grown = staged
        if epoch <= self.last_applied_epoch:
            return 0
        if base != self.rows:
            raise StoreError(
                f"staged epoch {epoch} is stale: the hot store installed "
                "another epoch since it was staged")
        if grown[0] is not None:
            self.newest, self._rank = grown[0], grown[1]
        if grown[2] is not None:
            self.row_codes = grown[2]
        newest, rank, column = self.newest, self._rank, self.row_codes
        won, best, rows = winners
        newest[won] = rows
        rank[won] = best
        n = len(row_codes)
        column[base:base + n] = row_codes
        self.table.update(zip(new, range(len(self.table), len(self.table)
                                         + len(new))))
        self._memo.update(memo)
        self.rows = base + n
        self.last_applied_epoch = epoch
        return n

    def stats(self) -> dict[str, Any]:
        # the end-to-end benchmark still reads one shard's ``runs``,
        # ``flushes`` and ``compactions``; there are none
        return {"shards": [{"keys": len(self.table), "runs": 0,
                            "flushes": 0, "compactions": 0}],
                "rows": self.rows}
