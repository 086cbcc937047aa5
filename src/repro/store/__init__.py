"""Tiered serving store: millisecond point lookups + columnar scans.

The serving layer the paper's Section 4.1 split demands (ROADMAP item
3): a columnar **analytical store** (:mod:`repro.store.analytical`)
appending committed history and serving filter/group-by/window
aggregates over numpy columns, and a **hot store**
(:mod:`repro.store.hot`) answering "latest state for this key" by
indexing each key's newest row of those columns.  Both tiers mutate only through committed checkpoint
epochs, fed by :class:`StoreSink` (:mod:`repro.store.sink`) — the
exactly-once bridge off the transactional-sink commit stream.
"""

from .analytical import AnalyticalStore
from .hot import HotStore, key_repr
from .sink import StoreSink
from .tiered import TieredStore, canonical_contents, serve_topic

__all__ = [
    "AnalyticalStore",
    "HotStore",
    "key_repr",
    "StoreSink",
    "TieredStore",
    "serve_topic",
    "canonical_contents",
]
