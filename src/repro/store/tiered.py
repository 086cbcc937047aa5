"""TieredStore: one facade over the hot and analytical tiers.

The serving layer the apps talk to.  One committed epoch feeds both
tiers in a single stage/install cycle — point-lookup state and scan
history can never disagree about which epochs they contain — and the
facade carries the query surface of both: ``latest``/``point`` for
overlay binding, ``group_by``/``tumbling``/``filter`` for dashboards.

:func:`serve_topic` is the standard wiring: build a coordinated job
over an event-log topic, run it under the streaming supervisor
(:func:`~repro.streaming.supervisor.run_coordinated`), and return the
store fed exactly-once through a :class:`~repro.store.sink.StoreSink`.
"""

from __future__ import annotations

from typing import Any, Callable

from ..streaming.batch import RecordBatch, as_batch
from ..streaming.element import Element
from .analytical import AnalyticalStore
from .hot import HotStore

__all__ = ["TieredStore", "serve_topic", "canonical_contents"]


class TieredStore:
    """Hot point-lookup tier + columnar analytical tier, fed together."""

    def __init__(self, *, num_shards: int = 8,
                 metric_fn: Callable[[Any], float] | None = None) -> None:
        self.hot = HotStore(num_shards=num_shards)
        self.analytical = AnalyticalStore(metric_fn=metric_fn)

    # -- epoch protocol (driven by StoreSink) --------------------------------

    def stage_epoch(self, epoch: int,
                    rows: RecordBatch | list[Element]) -> dict[str, Any]:
        """Route one committed epoch — the batch the sink sealed, or
        Elements, encoded here once: the hot tier's newest versions and
        log segment + one analytical segment, staged but not
        installed."""
        batch = as_batch(rows)
        # decoded once: the hot tier's log and the analytical raw column
        # hold the same value objects
        values = batch.values_list()
        codes, keys = batch.key_column()
        return {
            "epoch": epoch,
            "hot": self.hot.stage_epoch(epoch, keys, codes,
                                        batch.timestamps, values),
            "analytical": self.analytical.stage_epoch(epoch, batch,
                                                      raw=values),
        }

    def install_epoch(self, staged: dict[str, Any]) -> int:
        """Install a staged epoch into the hot and the analytical tier
        (each guarded by its own epoch)."""
        installed = self.hot.install_epoch(staged["hot"])
        self.analytical.install_epoch(staged["analytical"])
        return installed

    # -- serving surface -----------------------------------------------------

    def latest(self, key: Any) -> list[tuple[float, Any]]:
        """:meth:`HotStore.latest`, with the hot tier's route memo and
        shard index read here: a memoised key reaches its newest version
        in this one call (an overlay frame makes one lookup per
        label)."""
        hot = self.hot
        hit = hot._routes.get(key) if type(key) is str else None
        if hit is None:
            hit = hot.route(key)
        best = hot.shards[hit[0]].get(hit[1])
        return [] if best is None else [(best[2], best[3])]

    def point(self, key: Any) -> Any | None:
        return self.hot.point(key)

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
        return self.hot.contents()

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
