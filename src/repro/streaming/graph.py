"""Dataflow job graph and its fluent builder.

A :class:`JobGraph` is a DAG: named sources feed chains of operators
into named sinks.  Edges carry an optional *side* tag ("left"/"right")
for two-input joins.  Validation catches cycles, dangling operators and
mis-wired joins at build time rather than mid-run.

The fluent :class:`JobBuilder` mirrors the Flink DataStream API::

    builder = JobBuilder("traffic")
    (builder.source("gps", gps_elements)
            .key_by(lambda v: v["car"])
            .window(TumblingWindows(10.0), "mean", value_fn=lambda v: v["speed"])
            .sink("speeds"))
    job = builder.build()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..util.errors import JobGraphError
from .element import Element
from .errors import DLQ_SINK, ErrorPolicy
from .join import IntervalJoinOperator
from .operators import (
    FilterOperator,
    KeyByOperator,
    MapOperator,
    Operator,
    ReduceOperator,
    WatermarkGenerator,
)
from .window_operator import WindowAggregateOperator
from .windows import WindowAssigner

__all__ = ["JobGraph", "JobBuilder", "SourceSpec"]


@dataclass
class SourceSpec:
    """A named stream input.

    ``elements`` is any iterable of :class:`Element`; it may also be a
    zero-arg callable returning one, so jobs can be re-run.

    Parallel plans read a source as a set of **splits** (the rescaling
    unit — analogous to topic partitions; see
    :mod:`repro.streaming.sources`):

    - ``splits`` pins the split count independently of parallelism, so
      a checkpoint taken at parallelism N restores at parallelism M
      (both must divide the same split set).  Defaults to the compiled
      source parallelism.
    - ``split_factory(split, num_splits)`` produces one split's
      elements directly — how eventlog-backed sources map partitions to
      splits (see :func:`~repro.streaming.connectors.parallel_log_source`).
    - A source with neither is spread over its splits by key-aligned
      hashing (same key, same split — preserving per-key order, the
      parallel-equivalence contract), round-robin for unkeyed elements.
    """

    name: str
    elements: Iterable[Element] | Callable[[], Iterable[Element]] | None
    splits: int | None = None
    split_factory: Callable[[int, int], Iterable[Element]] | None = None

    def iterate(self) -> Iterable[Element]:
        src = self.elements
        if src is None:
            if self.split_factory is None:
                raise JobGraphError(
                    f"source {self.name!r} has neither elements nor a "
                    "split_factory")
            n = self.splits or 1
            out: list[Element] = []
            for s in range(n):
                out.extend(self.split_factory(s, n))
            return out
        return src() if callable(src) else src


@dataclass
class JobGraph:
    """Validated dataflow DAG ready for execution."""

    name: str
    sources: dict[str, SourceSpec]
    operators: dict[str, Operator]
    #: edges as (upstream, downstream, side); side is None or left/right
    edges: list[tuple[str, str, str | None]]
    #: in declaration order, like sources and operators: plan,
    #: topological and checkpoint order never depend on the hash seed
    sinks: list[str] = field(default_factory=list)
    #: optional region pins declared on the job itself (merged under any
    #: compile-time placement; node -> region tag)
    regions: dict[str, str] = field(default_factory=dict)
    #: (up, down) pairs *declared* as allowed to cross regions.  The
    #: compiler rejects any placement that makes an undeclared edge span
    #: two regions: a WAN hop in a dataflow is an explicit design
    #: decision, never an inference (see CONTRIBUTING.md).
    cross_region_edges: set[tuple[str, str]] = field(default_factory=set)
    #: per-operator error policies (operator name ->
    #: :class:`~repro.streaming.errors.ErrorPolicy`).  Undeclared
    #: operators default to FAIL — exactly the pre-policy behaviour.
    error_policies: dict[str, "ErrorPolicy"] = field(default_factory=dict)

    @property
    def needs_dead_letters(self) -> bool:
        """Whether any declared policy can route records to the DLQ
        (executors add the reserved DLQ sink only then)."""
        return any(p.can_dead_letter for p in self.error_policies.values())

    def validate(self) -> None:
        """Raise :class:`JobGraphError` on the first defect, and record
        the topological order: a Kahn pass over the nodes (a name used
        by two kinds is one node) that takes them generation by
        generation — the first in declaration order, each later one in
        the order its last parent edge is reached, a node's children in
        edge order, parallel edges as one."""
        indegree = dict.fromkeys(
            [*self.sources, *self.operators, *self.sinks], 0)
        children: dict[str, dict[str, None]] = {n: {} for n in indegree}
        inputs: dict[str, list[str | None]] = {n: [] for n in indegree}
        for up, down, side in self.edges:
            for node in (up, down):
                if node not in indegree:
                    raise JobGraphError(f"edge references unknown node {node!r}")
            succ = children[up]
            if down not in succ:
                succ[down] = None
                indegree[down] += 1
            inputs[down].append(side)
        order = [n for n, d in indegree.items() if d == 0]
        for node in order:  # grows as it goes: generation after generation
            for child in children[node]:
                indegree[child] -= 1
                if not indegree[child]:
                    order.append(child)
        if len(order) < len(indegree):
            raise JobGraphError(f"job {self.name!r} contains a cycle")
        if not self.sources:
            raise JobGraphError(f"job {self.name!r} has no sources")
        sinks = set(self.sinks)
        for up, down, _side in self.edges:
            if up in sinks:
                raise JobGraphError(
                    f"sink {up!r} has an outgoing edge to {down!r}; sinks "
                    "are terminal"
                )
        for sink in self.sinks:
            if sink in self.sources or sink in self.operators:
                raise JobGraphError(
                    f"sink {sink!r} collides with an existing "
                    f"{'source' if sink in self.sources else 'operator'}"
                )
        for name in self.operators:
            if name in self.sources:
                raise JobGraphError(
                    f"operator {name!r} collides with an existing source")
        for name, op in self.operators.items():
            sides = inputs[name]
            if not sides:
                raise JobGraphError(f"operator {name!r} has no input")
            if isinstance(op, IntervalJoinOperator):
                # by repr: an untagged (None) edge sorts beside the tags
                sides = sorted(sides, key=repr)
                if sides != ["left", "right"]:
                    raise JobGraphError(
                        f"join {name!r} needs exactly one 'left' and one "
                        f"'right' input, got {sides}"
                    )
            elif any(s is not None for s in sides):
                raise JobGraphError(
                    f"operator {name!r} is single-input but has a tagged edge"
                )
        for sink in self.sinks:
            if not inputs[sink]:
                raise JobGraphError(f"sink {sink!r} has no input")
        for node in self.regions:
            if node not in indegree:
                raise JobGraphError(
                    f"region pin references unknown node {node!r}")
        for up, down in self.cross_region_edges:
            if down not in children.get(up, ()):
                raise JobGraphError(
                    f"declared cross-region edge {up!r} -> {down!r} does "
                    "not exist in the job graph")
        if DLQ_SINK in sinks:
            raise JobGraphError(
                f"sink name {DLQ_SINK!r} is reserved for the dead-letter "
                "queue")
        for name, policy in self.error_policies.items():
            if name not in self.operators:
                raise JobGraphError(
                    f"error policy declared for unknown operator {name!r}")
            if not isinstance(policy, ErrorPolicy):
                raise JobGraphError(
                    f"error policy for {name!r} must be an ErrorPolicy, "
                    f"got {type(policy).__name__}")
        self._topo_order = order

    def topological_operators(self) -> list[str]:
        """Operator names in execution order (sources/sinks excluded)."""
        return [n for n in self._topo_order if n in self.operators]


class _StreamHandle:
    """Fluent cursor over the node most recently added to the builder."""

    def __init__(self, builder: "JobBuilder", node: str) -> None:
        self._builder = builder
        self._node = node

    # -- transforms ------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], name: str | None = None,
            vectorized: bool = False):
        return self._attach(MapOperator(self._builder._auto(name, "map"), fn,
                                        vectorized=vectorized))

    def filter(self, predicate: Callable[[Any], bool], name: str | None = None,
               vectorized: bool = False):
        return self._attach(FilterOperator(
            self._builder._auto(name, "filter"), predicate,
            vectorized=vectorized))

    def key_by(self, key_fn: Callable[[Any], Any], name: str | None = None,
               vectorized: bool = False):
        return self._attach(KeyByOperator(
            self._builder._auto(name, "key_by"), key_fn,
            vectorized=vectorized))

    def reduce(self, reduce_fn: Callable[[Any, Any], Any]):
        return self._attach(ReduceOperator(
            self._builder._auto(None, "reduce"), reduce_fn))

    def with_watermarks(self, max_lateness: float, emit_every: int = 1,
                        name: str | None = None):
        return self._attach(WatermarkGenerator(
            self._builder._auto(name, "watermarks"), max_lateness,
            emit_every))

    def window(self, assigner: WindowAssigner, aggregate: str = "count",
               value_fn: Callable[[Any], Any] | None = None,
               name: str | None = None):
        return self._attach(WindowAggregateOperator(
            self._builder._auto(name, "window"), assigner, aggregate,
            value_fn))

    def join(self, other: "_StreamHandle", lower: float, upper: float):
        op = IntervalJoinOperator(self._builder._auto(None, "join"),
                                  lower, upper)
        self._builder._add_operator(op)
        self._builder._add_edge(self._node, op.name, "left")
        self._builder._add_edge(other._node, op.name, "right")
        return _StreamHandle(self._builder, op.name)

    def apply(self, operator: Operator):
        """Attach a custom operator instance."""
        return self._attach(operator)

    def sink(self, name: str) -> "JobBuilder":
        self._builder._add_sink(name)
        self._builder._add_edge(self._node, name, None)
        return self._builder

    # -- plumbing --------------------------------------------------------

    def _attach(self, operator: Operator) -> "_StreamHandle":
        self._builder._add_operator(operator)
        self._builder._add_edge(self._node, operator.name, None)
        return _StreamHandle(self._builder, operator.name)

    def on_error(self, policy: ErrorPolicy) -> "_StreamHandle":
        """Declare the error policy of the operator at the cursor."""
        self._builder.on_error(self._node, policy)
        return self

    @property
    def node(self) -> str:
        return self._node


class JobBuilder:
    """Accumulates sources/operators/edges and builds a validated graph."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._sources: dict[str, SourceSpec] = {}
        self._operators: dict[str, Operator] = {}
        self._edges: list[tuple[str, str, str | None]] = []
        self._sinks: list[str] = []
        self._counters: dict[str, int] = {}
        self._regions: dict[str, str] = {}
        self._cross_region: set[tuple[str, str]] = set()
        self._error_policies: dict[str, ErrorPolicy] = {}

    def _auto(self, name: str | None, kind: str) -> str:
        if name is not None:
            return name
        i = self._counters.get(kind, 0)
        self._counters[kind] = i + 1
        return f"{kind}_{i}"

    def source(self, name: str,
               elements: Iterable[Element] | Callable[[], Iterable[Element]]
               | None = None,
               *, splits: int | None = None,
               split_factory: Callable[[int, int], Iterable[Element]]
               | None = None) -> _StreamHandle:
        if name in self._sources:
            raise JobGraphError(f"duplicate source {name!r}")
        if elements is None and split_factory is None:
            raise JobGraphError(
                f"source {name!r} needs elements or a split_factory")
        self._sources[name] = SourceSpec(name, elements, splits=splits,
                                         split_factory=split_factory)
        return _StreamHandle(self, name)

    def _add_operator(self, operator: Operator) -> None:
        if operator.name in self._operators or operator.name in self._sources:
            raise JobGraphError(f"duplicate node name {operator.name!r}")
        self._operators[operator.name] = operator

    def _add_edge(self, up: str, down: str, side: str | None) -> None:
        if (up, down, side) in self._edges:
            # A duplicate identical edge would double-deliver every
            # element on it — always a wiring bug, never intentional.
            raise JobGraphError(
                f"duplicate edge {up!r} -> {down!r}"
                + (f" (side {side!r})" if side else "")
            )
        self._edges.append((up, down, side))

    def _add_sink(self, name: str) -> None:
        if name == DLQ_SINK:
            raise JobGraphError(
                f"sink name {DLQ_SINK!r} is reserved for the "
                "dead-letter queue")
        if name in self._sources or name in self._operators:
            raise JobGraphError(
                f"sink name {name!r} collides with an existing "
                f"{'source' if name in self._sources else 'operator'}"
            )
        if name not in self._sinks:
            self._sinks.append(name)

    def pin_region(self, node: str, region: str) -> "JobBuilder":
        """Pin a named node to a region."""
        self._regions[node] = region
        return self

    def on_error(self, operator: str, policy: ErrorPolicy) -> "JobBuilder":
        """Declare an operator's error policy (FAIL / SKIP / RETRY(n) /
        DEAD_LETTER from :mod:`repro.streaming.errors`).  Validated at
        :meth:`build`; undeclared operators keep the FAIL default."""
        if not isinstance(policy, ErrorPolicy):
            raise JobGraphError(
                f"on_error({operator!r}) needs an ErrorPolicy, got "
                f"{type(policy).__name__}")
        self._error_policies[operator] = policy
        return self

    def declare_cross_region(self, up: str, down: str) -> "JobBuilder":
        """Declare that the edge ``up -> down`` is allowed to cross
        regions.  Cross-region edges are never inferred: an undeclared
        edge that a placement would stretch across regions fails
        compilation."""
        self._cross_region.add((up, down))
        return self

    def build(self) -> JobGraph:
        job = JobGraph(name=self.name, sources=dict(self._sources),
                       operators=dict(self._operators),
                       edges=list(self._edges), sinks=list(self._sinks),
                       regions=dict(self._regions),
                       cross_region_edges=set(self._cross_region),
                       error_policies=dict(self._error_policies))
        job.validate()
        return job
