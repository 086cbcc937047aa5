"""TieredStore: one facade over the hot and analytical tiers.

The serving layer the apps talk to.  One committed epoch feeds both
tiers in a single stage/install cycle, so they hold the same rows in
the same order: the analytical tier keeps each row once (its
timestamp, metric, key code and value), and the hot tier indexes them
(:mod:`repro.store.hot`: a key table, each key's newest row, each
row's key code).  The facade carries the query surface of both:
``latest``/``point`` for overlay binding read a key's newest row out
of the analytical columns, ``contents`` orders every row by key and
recency, and ``group_by``/``tumbling``/``filter`` serve dashboards.
The analytical tier of a ``TieredStore`` takes its epochs through the
facade only: a row appended to it alone would shift every row the hot
tier indexes after it.

:func:`serve_topic` is the standard wiring: build a coordinated job
over an event-log topic, run it under the streaming supervisor
(:func:`~repro.streaming.supervisor.run_coordinated`), and return the
store fed exactly-once through a :class:`~repro.store.sink.StoreSink`.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable

import numpy as np

from ..streaming.batch import RecordBatch, as_batch
from ..streaming.element import Element
from .analytical import AnalyticalStore
from .hot import _NAN_RANK, HotStore

__all__ = ["TieredStore", "serve_topic", "canonical_contents"]


class TieredStore:
    """Hot point-lookup index + columnar analytical tier, fed together."""

    def __init__(self, *,
                 metric_fn: Callable[[Any], float] | None = None) -> None:
        self.hot = HotStore()
        self.analytical = AnalyticalStore(metric_fn=metric_fn)

    # -- epoch protocol (driven by StoreSink) --------------------------------

    def stage_epoch(self, epoch: int,
                    rows: RecordBatch | list[Element]) -> dict[str, Any]:
        """Stage one committed epoch — the batch the sink sealed, or
        Elements, encoded here once — into both tiers, installing
        nothing: the analytical tier's columns (a timestamp that is not
        a float raises :class:`~repro.util.errors.StoreError` there), and
        the hot tier's newest rows over the same float64 timestamps."""
        batch = as_batch(rows)
        analytical = self.analytical.stage_epoch(epoch, batch)
        codes, keys = batch.key_column()
        return {"epoch": epoch, "analytical": analytical,
                "hot": None if analytical is None else self.hot.stage_epoch(
                    epoch, keys, codes, analytical["ts"])}

    def install_epoch(self, staged: dict[str, Any]) -> int:
        """Install a staged epoch into the hot and the analytical tier
        (each guarded by its own epoch)."""
        installed = self.hot.install_epoch(staged["hot"])
        self.analytical.install_epoch(staged["analytical"])
        return installed

    # -- serving surface -----------------------------------------------------

    def latest(self, key: Any) -> list[tuple[float, Any]]:
        """The newest version, ``[(timestamp, value)]`` (``[]`` for an
        unknown key), ordered by ``(order_ts, seq)`` so same-timestamp
        writes resolve to the latest applied.  The hot tier's memo and
        key table are read here, ``repr`` standing in for
        :func:`~repro.store.hot.key_repr`: a key reaches its newest row
        in this one call (an overlay frame makes one lookup per
        label)."""
        hot = self.hot
        code = hot._memo.get(key) if type(key) is str else None
        if code is None:
            code = hot.table.get(repr(key))
            if code is None:
                return []
        row = hot.newest.item(code)
        analytical = self.analytical
        return [(analytical._ts.item(row), analytical._raw[row])]

    def point(self, key: Any) -> Any | None:
        """Newest value for ``key`` (overlay binding), or None."""
        versions = self.latest(key)
        return versions[0][1] if versions else None

    def group_by(self, *args: Any, **kwargs: Any) -> dict[Any, float]:
        return self.analytical.group_by(*args, **kwargs)

    def tumbling(self, *args: Any, **kwargs: Any) -> dict:
        return self.analytical.tumbling(*args, **kwargs)

    def filter(self, *args: Any, **kwargs: Any) -> dict[str, Any]:
        return self.analytical.filter(*args, **kwargs)

    def count(self, *args: Any, **kwargs: Any) -> int:
        return self.analytical.count(*args, **kwargs)

    # -- introspection -------------------------------------------------------

    def contents(self) -> dict[str, list[tuple[float, Any]]]:
        """Canonical dump: key_repr -> all versions newest first, keys
        sorted — every row ordered on demand by ``(key, rank, -seq)``,
        one ``np.lexsort`` over the hot tier's code column and the
        analytical timestamps.  The chaos suite compares it across
        crashed and fault-free runs; no apply or serve path reads it."""
        hot, n = self.hot, self.hot.rows
        if not n:
            return {}
        keys = sorted(hot.table)
        position = np.empty(len(keys), np.int64)
        position[list(map(hot.table.__getitem__, keys))] = np.arange(len(keys))
        codes = position[hot.row_codes[:n]]
        counts = np.bincount(codes, minlength=len(keys)).tolist()
        ts = self.analytical._ts[:n]
        rank = np.negative(ts)
        rank[np.isnan(rank)] = _NAN_RANK
        order = np.lexsort((-np.arange(n), rank, codes))
        # the values as an object array: no Python object per row but
        # the versions themselves
        values = np.fromiter(self.analytical._raw, object, n)[order]
        versions = zip(ts[order].tolist(), values)
        return {kr: list(islice(versions, count))
                for kr, count in zip(keys, counts)}

    def stats(self) -> dict[str, Any]:
        return {"hot": self.hot.stats(),
                "analytical": self.analytical.stats()}


def serve_topic(cluster: Any, topic: str, *,
                key_fn: Callable[[Any], Any] | None = None,
                parallelism: int = 1, source_batch: int = 64,
                interval_cycles: int = 4, injector: Any = None,
                metric_fn: Callable[[Any], float] | None = None,
                name: str | None = None,
                ) -> tuple[TieredStore, Any]:
    """Stream an event-log topic into a tiered store, exactly once.

    Builds ``source(topic) [-> key_by(key_fn)] -> sink``, runs it under
    coordinated checkpoints with a :class:`StoreSink` listening on the
    transactional sink's commits, and returns ``(store, report)``.
    Records keep their log keys unless ``key_fn`` re-keys them.  The
    run is chaos-ready: pass an ``injector`` and the store still comes
    out bit-identical to the fault-free run.
    """
    from ..streaming.connectors import log_source
    from ..streaming.graph import JobBuilder
    from ..streaming.supervisor import run_coordinated
    from .sink import StoreSink

    store = TieredStore(metric_fn=metric_fn)
    builder = JobBuilder(name or f"serve:{topic}")
    stream = builder.source("events", log_source(cluster, topic))
    if key_fn is not None:
        stream = stream.key_by(key_fn)
    stream.sink("store")
    sink = StoreSink(store, sink_name="store", injector=injector)
    report = run_coordinated(builder.build(), injector,
                             parallelism=parallelism,
                             source_batch=source_batch,
                             interval_cycles=interval_cycles,
                             on_coordinator=sink.attach)
    return store, report


def canonical_contents(store: TieredStore) -> list[tuple]:
    """Order-stable dump for equivalence assertions: sorted
    ``(key_repr, versions)`` pairs plus the analytical row count."""
    return sorted(store.contents().items())
