"""``JobGraph.validate`` orders nodes exactly as networkx does.

The job graph's own Kahn pass replaced ``networkx.topological_sort``;
plan, chain and checkpoint order all follow it, so it must give the
same order to the node: generation by generation, the first generation
in declaration order, a node's children in edge order, parallel edges
as one edge, and a name that two kinds share as one node.  networkx
stays the oracle here (``simnet/`` still depends on it).

Random DAGs are drawn with unions (an operator fed by two sources,
possibly one source twice), parallel edges, several sinks, edges into
sources, and — in half the draws — an operator renamed after a source
or a sink renamed after another node.  The errors a graph can raise
first keep their messages, and a renamed operator raises its own.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.streaming.graph import JobGraph
from repro.streaming.operators import MapOperator
from repro.util.errors import JobGraphError


def _oracle(job):
    """networkx's order over the graph the old validation built: nodes
    in declaration order (a shared name once), edges in edge order."""
    graph = nx.DiGraph()
    for node in [*job.sources, *job.operators, *job.sinks]:
        graph.add_node(node)
    for up, down in job.edges:
        graph.add_edge(up, down)
    if not nx.is_directed_acyclic_graph(graph):
        return None
    return list(nx.topological_sort(graph))


@st.composite
def job_graphs(draw):
    n_sources = draw(st.integers(1, 3))
    n_ops = draw(st.integers(0, 7))
    n_sinks = draw(st.integers(1, 3))
    sources = [f"src{i}" for i in range(n_sources)]
    ops = [f"op{i}" for i in range(n_ops)]
    sinks = [f"out{i}" for i in range(n_sinks)]
    unions = {op for op in ops if draw(st.booleans())}
    # Edges only run from lower to higher rank (a DAG before renaming);
    # a source holds rank 0 so every operator and sink has an input.
    ranked = [sources[0], *draw(st.permutations([*sources[1:], *ops]))]
    edges = []
    for pos, node in enumerate(ranked):
        ups = ranked[:pos]
        if node in unions:
            feeds = [up for up in ups if up in sources]
            for _ in range(2):
                edges.append((draw(st.sampled_from(feeds)), node))
        elif node in ops:
            for up in draw(st.lists(st.sampled_from(ups), min_size=1,
                                    max_size=3)):
                edges.append((up, node))  # repeats: parallel edges
    for sink in sinks:
        for up in draw(st.lists(st.sampled_from(ranked), min_size=1,
                                max_size=2)):
            edges.append((up, sink))
    rename = {}
    alias = draw(st.sampled_from(["none", "op-as-source", "sink-as-node"]))
    if alias == "op-as-source" and ops:
        rename[draw(st.sampled_from(ops))] = draw(st.sampled_from(sources))
    elif alias == "sink-as-node":
        rename[draw(st.sampled_from(sinks))] = draw(
            st.sampled_from([*sources, *ops]))
    name = rename.get
    for _ in range(draw(st.integers(0, 3)) if len(ranked) > 1 else 0):
        # extra edges, into sources too
        i, j = sorted(draw(st.lists(st.integers(0, len(ranked) - 1),
                                    min_size=2, max_size=2, unique=True)))
        edges.append((ranked[i], ranked[j]))
    edges = draw(st.permutations(edges))
    operators = {}
    for op in draw(st.permutations(ops)):  # declaration order != rank
        operators[name(op, op)] = MapOperator(op, abs)
    return JobGraph(
        name="g", sources={s: None for s in draw(st.permutations(sources))},
        operators=operators,
        edges=[(name(u, u), name(d, d)) for u, d in edges],
        sinks=[name(s, s) for s in draw(st.permutations(sinks))])


@settings(max_examples=300, deadline=None)
@given(job_graphs())
def test_validate_orders_nodes_as_networkx_does(job):
    expected = _oracle(job)
    if expected is None:
        with pytest.raises(JobGraphError,
                           match=r"^job 'g' contains a cycle$"):
            job.validate()
        return
    terminal_edges = [(u, d) for u, d in job.edges if u in job.sinks]
    colliding = [s for s in job.sinks
                 if s in job.sources or s in job.operators]
    renamed = [op for op in job.operators if op in job.sources]
    if terminal_edges:
        up, down = terminal_edges[0]
        with pytest.raises(JobGraphError) as err:
            job.validate()
        assert str(err.value) == (f"sink {up!r} has an outgoing edge to "
                                  f"{down!r}; sinks are terminal")
    elif colliding:
        sink = colliding[0]
        kind = "source" if sink in job.sources else "operator"
        with pytest.raises(JobGraphError) as err:
            job.validate()
        assert str(err.value) == (f"sink {sink!r} collides with an "
                                  f"existing {kind}")
    elif renamed:
        with pytest.raises(JobGraphError) as err:
            job.validate()
        assert str(err.value) == (f"operator {renamed[0]!r} collides with "
                                  "an existing source")
    else:
        job.validate()
        assert job._topo_order == expected
        assert job.topological_operators() == [
            n for n in expected if n in job.operators]


def _chain(edges, sinks=("out",)):
    return JobGraph(name="g", sources={"s": None},
                    operators={"m": MapOperator("m", abs)},
                    edges=edges, sinks=list(sinks))


@pytest.mark.parametrize("edges, message", [
    ([("s", "m"), ("m", "nowhere")],
     "edge references unknown node 'nowhere'"),
    ([("ghost", "m")], "edge references unknown node 'ghost'"),
    ([("s", "m"), ("m", "m"), ("m", "out")],
     "job 'g' contains a cycle"),
])
def test_unknown_node_and_cycle_errors_keep_their_messages(edges, message):
    with pytest.raises(JobGraphError) as err:
        _chain(edges).validate()
    assert str(err.value) == message


def test_a_sink_named_like_an_operator_is_one_node_and_collides():
    job = _chain([("s", "m")], sinks=("m",))
    assert _oracle(job) == ["s", "m"]
    with pytest.raises(JobGraphError) as err:
        job.validate()
    assert str(err.value) == "sink 'm' collides with an existing operator"
