"""The logical/physical plan split: JobGraph -> ExecutionGraph.

A :class:`~repro.streaming.graph.JobGraph` is *logical*: it names
operators and edges, not instances.  :func:`compile_execution_graph`
lowers it to a physical :class:`ExecutionGraph` with **per-operator
parallelism**: every logical operator becomes N subtasks, and every
logical edge becomes one of

- a **forward** channel (subtask i -> subtask i, equal parallelism),
- a **hash shuffle** into a keyed operator (stable key -> key group ->
  subtask, see :mod:`repro.streaming.shuffle`) with watermarks
  broadcast to all receiving subtasks,
- a **rebalance** (deterministic round-robin) where parallelism changes
  on a non-keyed edge, or
- a **merge** into a sink (sinks are single buffers).

With ``chaining`` on (what a batched executor asks for), linear runs of
chainable operators of equal parallelism in one region are fused into a
single ``chain(a+b)`` node.  The compiler is pure: it reads the job and
builds records; nothing here runs, buffers or routes an item.

Checkpointed routing state names channels by logical operator (a
chain's head receives, its tail sends) and leaves out the channels a
chaining compile fuses away, so batched and per-item plans of one job
restore each other's routing state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..util.errors import JobGraphError
from .graph import JobGraph
from . import shuffle

__all__ = [
    "PhysicalNode",
    "PhysicalEdge",
    "ExecutionGraph",
    "compile_execution_graph",
    "FORWARD",
    "HASH",
    "REBALANCE",
    "MERGE",
]

FORWARD = "forward"
HASH = "hash"
REBALANCE = "rebalance"
MERGE = "merge"  # into a sink


@dataclass(frozen=True)
class PhysicalEdge:
    """One physical channel group between execution nodes."""

    up: str
    down: str
    mode: str  # forward | hash | rebalance | merge
    #: endpoints placed in different regions; must have been declared on
    #: the job graph (cross-region edges are never inferred)
    cross_region: bool = False
    #: one-way inter-region link latency charged per delivered packet
    link_cost_s: float = 0.0


@dataclass
class PhysicalNode:
    """A logical execution node (operator or fused chain) times N."""

    name: str
    members: list[str]  # logical operator names (len > 1 for chains)
    parallelism: int
    keyed: bool
    #: region this node's subtasks are pinned to (None: no placement)
    region: str | None = None


@dataclass
class ExecutionGraph:
    """The physical plan: nodes with parallelism, typed edges, splits."""

    job: JobGraph
    nodes: dict[str, PhysicalNode]
    edges: list[PhysicalEdge]
    topo: list[str]  # execution-node order (operators only)
    source_parallelism: dict[str, int]
    source_splits: dict[str, int]
    rename: dict[str, str]  # logical node -> execution node
    #: the region placement this plan was compiled under (None: flat)
    placement: Any = None
    #: logical node -> region, resolved at compile time (empty: flat)
    node_regions: dict[str, str] = field(default_factory=dict)
    #: operators a chaining compile fuses to their upstream (every
    #: chain member but the head), whether or not this plan chains
    fused: frozenset[str] = frozenset()

    def width(self, name: str) -> int:
        """Subtask count of a source or an execution node."""
        if name in self.source_parallelism:
            return self.source_parallelism[name]
        return self.nodes[name].parallelism

    def sink_feeders(self, sink: str) -> tuple[tuple[str, int], ...]:
        """Every (upstream node, subtask) merging into one sink — the
        participants whose barriers gate the sink's 2PC pre-commit."""
        return tuple((edge.up, i) for edge in self.edges
                     if edge.mode == MERGE and edge.down == sink
                     for i in range(self.width(edge.up)))

    # -- routing state names: the same in a chained and an unchained plan

    def input_id(self, key: tuple) -> tuple | None:
        """A subtask input named by its receiving logical operator (a
        chain's head); None for an input a chaining compile fuses away,
        which a checkpoint leaves out: every watermark it will carry
        exceeds the one it held, so unset restores it exactly."""
        name, idx = key
        head = self.nodes[name].members[0]
        return None if head in self.fused else (head, idx)

    def sender_id(self, sender: tuple[str, int]) -> tuple[str, int]:
        """A sending subtask named by its logical operator (a chain's
        tail) or source."""
        name, idx = sender
        node = self.nodes.get(name)
        return (name if node is None else node.members[-1], idx)

    def edge_id(self, edge: PhysicalEdge) -> tuple:
        """A physical edge named by its logical endpoints."""
        up, down = self.nodes.get(edge.up), self.nodes.get(edge.down)
        return (edge.up if up is None else up.members[-1],
                edge.down if down is None else down.members[0])

    def routing_state(self, channel_wm: dict, aligned_wm: dict,
                      rr: dict) -> dict[str, Any]:
        """This plan's routing values as a checkpoint stores them, under
        the names above."""
        state: dict[str, Any] = {"channel_wm": {}, "aligned_wm": {},
                                 "rr": {}}
        for key, senders in channel_wm.items():
            name = self.input_id(key)
            if name is not None:
                state["channel_wm"][name] = {
                    self.sender_id(s): wm for s, wm in senders.items()}
        for key, wm in aligned_wm.items():
            name = self.input_id(key)
            if name is not None:
                state["aligned_wm"][name] = wm
        for (e, i), cursor in rr.items():
            state["rr"][self.edge_id(self.edges[e]), i] = cursor
        return state

    def max_parallelism(self) -> int:
        widths = [n.parallelism for n in self.nodes.values()]
        widths += list(self.source_parallelism.values())
        return max(widths, default=1)

    def cross_region_edges(self) -> list[PhysicalEdge]:
        return [e for e in self.edges if e.cross_region]

    def describe(self) -> str:
        """Human-readable plan, one line per node/edge (debug aid)."""
        lines = [f"plan for job {self.job.name!r} "
                 f"(key groups: {shuffle.KEY_GROUPS})"]
        for name, p in sorted(self.source_parallelism.items()):
            where = (f" @{self.node_regions[name]}"
                     if name in self.node_regions else "")
            lines.append(f"  source {name} x{p} "
                         f"({self.source_splits[name]} splits){where}")
        for name in self.topo:
            node = self.nodes[name]
            kind = "keyed" if node.keyed else "stateless"
            where = f" @{node.region}" if node.region is not None else ""
            lines.append(f"  op {name} x{node.parallelism} ({kind}){where}")
        for e in self.edges:
            cross = (f" x-region +{e.link_cost_s * 1e3:.0f}ms"
                     if e.cross_region else "")
            lines.append(f"  edge {e.up} -> {e.down}: {e.mode}{cross}")
        return "\n".join(lines)


def _parallelism_of(parallelism: int | dict[str, int], node: str) -> int:
    if isinstance(parallelism, int):
        return parallelism
    return int(parallelism.get(node, parallelism.get("default", 1)))


def _fusible_runs(job: JobGraph, p_of: Any,
                  reg: Any) -> dict[str, list[str]]:
    """Find maximal fusible runs: consecutive chainable operators linked
    by an edge where the upstream has exactly one downstream,
    the downstream exactly one upstream, and both run at the same
    parallelism in the same region (a width or region change is always
    a channel).  Returns head -> member names."""
    out_degree: dict[str, int] = {}
    in_degree: dict[str, int] = {}
    for up, down in job.edges:
        out_degree[up] = out_degree.get(up, 0) + 1
        in_degree[down] = in_degree.get(down, 0) + 1
    links: dict[str, str] = {}
    for up, down in job.edges:
        if up not in job.operators or down not in job.operators:
            continue
        if not (job.operators[up].chainable and job.operators[down].chainable):
            continue
        if out_degree[up] != 1 or in_degree[down] != 1:
            continue
        if p_of(up) != p_of(down) or reg(up) != reg(down):
            continue
        links[up] = down
    linked_to = set(links.values())
    chains: dict[str, list[str]] = {}
    for head in links:
        if head in linked_to:
            continue
        run = [head]
        while run[-1] in links:
            run.append(links[run[-1]])
        chains[head] = run
    return chains


def compile_execution_graph(job: JobGraph,
                            parallelism: int | dict[str, int] = 1,
                            *, chaining: bool = True,
                            placement: Any = None) -> ExecutionGraph:
    """Lower a logical job graph to a physical execution graph.

    ``parallelism`` is either one width for every node or a per-node
    dict (``{"default": 2, "window_sum": 4}``); sources take their
    width from the same mapping.  Chains only fuse operators of equal
    parallelism, so a parallelism change is always a channel — exactly
    like a shuffle.

    ``placement`` (a :class:`~repro.streaming.placement.RegionPlacement`)
    adds region affinity: placement pins override the job's own region
    pins, operators in different regions never fuse, and every edge the
    placement stretches across regions must have been declared via
    :meth:`~repro.streaming.graph.JobBuilder.declare_cross_region` —
    such edges carry the inter-region link cost into the runtime's
    modelled cross-region transfer time.  A job with region pins and no placement is
    compiled under an implicit default placement.
    """
    job.validate()
    if placement is None and job.regions:
        from .placement import RegionPlacement
        placement = RegionPlacement()
    node_regions: dict[str, str] = {}
    if placement is not None:
        merged = {**job.regions, **dict(placement.regions)}
        all_nodes = (list(job.sources) + list(job.operators)
                     + list(job.sinks))
        node_regions = {
            n: merged.get(n, placement.default_region) for n in all_nodes
        }
    reg = node_regions.get
    p_of = lambda n: _parallelism_of(parallelism, n)  # noqa: E731
    if isinstance(parallelism, dict):
        unknown = sorted(set(parallelism) - {"default", *job.operators,
                                             *job.sources}, key=repr)
        if unknown:
            raise JobGraphError(
                f"parallelism names {unknown} that are neither "
                "'default' nor a source or operator of the job")
    for name in list(job.operators) + list(job.sources):
        if p_of(name) < 1:
            raise JobGraphError(f"node {name!r} has parallelism "
                                f"{p_of(name)} < 1")
    key_groups = shuffle.KEY_GROUPS
    for name, op in job.operators.items():
        if op.requires_shuffle and p_of(name) > key_groups:
            raise JobGraphError(
                f"keyed operator {name!r} parallelism {p_of(name)} exceeds "
                f"the {key_groups} key groups")

    runs = _fusible_runs(job, p_of, reg)
    chains = runs if chaining else {}
    rename: dict[str, str] = {}
    nodes: dict[str, PhysicalNode] = {}
    in_chain: set[str] = set()
    for head, members in chains.items():
        name = "chain(" + "+".join(members) + ")"
        nodes[name] = PhysicalNode(name=name, members=list(members),
                                   parallelism=p_of(head), keyed=False,
                                   region=reg(head))
        for m in members:
            rename[m] = name
            in_chain.add(m)
    for name, op in job.operators.items():
        if name not in in_chain:
            nodes[name] = PhysicalNode(
                name=name, members=[name], parallelism=p_of(name),
                keyed=op.requires_shuffle, region=reg(name))
            rename[name] = name

    source_parallelism: dict[str, int] = {}
    source_splits: dict[str, int] = {}
    for name, spec in job.sources.items():
        p = p_of(name)
        n_splits = spec.splits if spec.splits is not None else p
        if p > n_splits:
            raise JobGraphError(
                f"source {name!r} parallelism {p} exceeds its "
                f"{n_splits} splits")
        source_parallelism[name] = p
        source_splits[name] = n_splits
        rename[name] = name

    def _up_parallelism(up: str) -> int:
        if up in source_parallelism:
            return source_parallelism[up]
        return nodes[rename[up]].parallelism

    edges: list[PhysicalEdge] = []
    seen_edges: set[tuple[str, str]] = set()
    for up, down in job.edges:
        new_up = rename.get(up, up)
        new_down = rename.get(down, down)
        if new_up == new_down:  # edge internal to a chain
            continue
        cross = (placement is not None
                 and node_regions[up] != node_regions[down])
        if cross and (up, down) not in job.cross_region_edges:
            raise JobGraphError(
                f"edge {up!r} -> {down!r} crosses regions "
                f"{node_regions[up]!r} -> {node_regions[down]!r} but was "
                "never declared cross-region; declare it with "
                "declare_cross_region() or co-locate the nodes")
        if (new_up, new_down) in seen_edges:
            continue
        seen_edges.add((new_up, new_down))
        if down in job.sinks:
            mode = MERGE
        elif nodes[new_down].keyed:
            mode = HASH
        elif _up_parallelism(up) == nodes[new_down].parallelism:
            mode = FORWARD
        else:
            mode = REBALANCE
        cost = (placement.link_cost_s(node_regions[up], node_regions[down])
                if cross else 0.0)
        edges.append(PhysicalEdge(up=new_up, down=new_down, mode=mode,
                                  cross_region=cross, link_cost_s=cost))

    seen: set[str] = set()
    topo: list[str] = []
    for name in job.topological_operators():
        exec_name = rename[name]
        if exec_name not in seen:
            seen.add(exec_name)
            topo.append(exec_name)
    return ExecutionGraph(job=job, nodes=nodes, edges=edges, topo=topo,
                          source_parallelism=source_parallelism,
                          source_splits=source_splits, rename=rename,
                          placement=placement, node_regions=node_regions,
                          fused=frozenset(m for run in runs.values()
                                          for m in run[1:]))

