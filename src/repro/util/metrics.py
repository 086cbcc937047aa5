"""Lightweight metric accumulators used across subsystems and benches.

Three primitives cover everything the experiments need:

- :class:`Counter` — monotonically increasing event counts.
- :class:`Gauge` — a last-value-wins sample.
- :class:`Summary` — streaming mean/min/max/percentiles over samples
  (stores samples; our runs are bounded so this is simpler and exact).

A :class:`MetricsRegistry` namespaces them so one object threads through
a pipeline.  The registry is *typed*: a metric family name belongs to
exactly one kind for the registry's lifetime — re-using ``"x"`` as both
a counter and a gauge raises :class:`~repro.util.errors.MetricsError`
instead of letting ``snapshot()`` silently overwrite one with the other.
Families take optional labels (``registry.counter("op.processed",
op="double")``), rendered Prometheus-style as
``op.processed{op=double}`` in snapshots.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MetricsError

__all__ = ["Counter", "Gauge", "Summary", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("Counter can only increase")
        self.value += amount


class Gauge:
    """Last observed value.

    A gauge that was never ``set()`` reads as NaN but is *skipped* by
    :meth:`MetricsRegistry.snapshot` — a registered-but-unset gauge used
    to leak ``nan`` into snapshots, which ``json.dumps`` serializes as
    an invalid bare ``NaN`` token.
    """

    def __init__(self) -> None:
        self.value: float = math.nan
        self.updated = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updated = True

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge relative to its current value (0 if unset)."""
        base = self.value if self.updated else 0.0
        self.set(base + amount)


class Summary:
    """Exact summary statistics over observed samples.

    The sample list is converted to a numpy array lazily and the array
    is cached — repeated ``mean``/``total``/``percentile`` reads between
    observations no longer pay an O(n) list->array conversion each call.
    ``observe`` invalidates the cache.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._array: np.ndarray | None = None

    def observe(self, value: float) -> None:
        self._samples.append(float(value))
        self._array = None

    def reset(self) -> None:
        """Drop all observations (for reusing one Summary across runs)."""
        self._samples.clear()
        self._array = None

    def _as_array(self) -> np.ndarray:
        if self._array is None:
            self._array = np.asarray(self._samples, dtype=np.float64)
        return self._array

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        return float(self._as_array().mean()) if self._samples else math.nan

    @property
    def minimum(self) -> float:
        # Through the cached array: min()/max() on the Python list would
        # rescan all samples on every read, turning hot-loop metric
        # reads back into O(n) work the cache exists to avoid.
        return float(self._as_array().min()) if self._samples else math.nan

    @property
    def maximum(self) -> float:
        return float(self._as_array().max()) if self._samples else math.nan

    @property
    def total(self) -> float:
        return float(self._as_array().sum()) if self._samples else 0.0

    def percentile(self, q: float) -> float:
        """q in [0, 100]."""
        if not self._samples:
            return math.nan
        return float(np.percentile(self._as_array(), q))

    def samples(self) -> list[float]:
        return list(self._samples)


def _render_key(name: str, labels: dict[str, object]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Typed namespace of counters/gauges/summaries, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._summaries: dict[str, Summary] = {}
        # family name -> kind; one kind per name for the registry's life
        self._kinds: dict[str, str] = {}

    def _key(self, kind: str, name: str, labels: dict[str, object]) -> str:
        registered = self._kinds.setdefault(name, kind)
        if registered != kind:
            raise MetricsError(
                f"metric {name!r} is already registered as a {registered}; "
                f"cannot re-use the name as a {kind}")
        return _render_key(name, labels)

    def counter(self, name: str, **labels: object) -> Counter:
        key = self._key("counter", name, labels)
        return self._counters.setdefault(key, Counter())

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = self._key("gauge", name, labels)
        return self._gauges.setdefault(key, Gauge())

    def summary(self, name: str, **labels: object) -> Summary:
        key = self._key("summary", name, labels)
        return self._summaries.setdefault(key, Summary())

    def retire(self, name: str, **labels: object) -> bool:
        """Drop one metric *instance* (family + exact label set) from
        the registry, so it stops appearing in snapshots.

        This exists for topology changes: after a live rescale narrows
        an operator, the per-subtask instances of removed clones (e.g.
        ``subtask.processed{op=window_sum[3]}`` after a 4→2 rescale)
        would otherwise linger at their last value and skew any
        consumer averaging over snapshot entries.  The family's kind
        registration stays — the name can be re-instantiated later (a
        scale back up).  Returns ``True`` if an instance was removed.
        """
        kind = self._kinds.get(name)
        if kind is None:
            return False
        store = {"counter": self._counters, "gauge": self._gauges,
                 "summary": self._summaries}[kind]
        return store.pop(_render_key(name, labels), None) is not None

    def snapshot(self) -> dict[str, float]:
        """Flat name->value view.

        Counters always appear; gauges only once ``set()`` (a never-set
        gauge would inject NaN and break JSON export); summaries report
        ``.count`` always and ``.mean``/``.p50``/``.p99`` once they hold
        at least one sample.
        """
        out: dict[str, float] = {}
        out.update({k: float(c.value) for k, c in self._counters.items()})
        out.update({k: g.value for k, g in self._gauges.items()
                    if g.updated})
        for key, s in self._summaries.items():
            out[f"{key}.count"] = float(s.count)
            if s.count:
                out[f"{key}.mean"] = s.mean
                out[f"{key}.p50"] = s.percentile(50.0)
                out[f"{key}.p99"] = s.percentile(99.0)
        return out
