"""OperatorGraph's topological order, checked against networkx.

``OperatorGraph.topological_order`` runs its own Kahn pass so that the
library does not import networkx.  Chain matching and segment anchors depend
on the exact order, so these tests pin it to ``networkx.topological_sort``
(a test-only dependency) over the model zoo, the graph zoo, their
canonicalized forms and random DAGs whose insertion order is shuffled and
whose operators may read one tensor twice.  The same graphs pin the graph's
consumer index to a brute-force scan of every operator's inputs.
"""

from __future__ import annotations

import pytest

nx = pytest.importorskip("networkx")
pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from repro.graphs.rewrite import canonicalize
from repro.ir.graph import OperatorGraph
from repro.ir.ops import Activation, ActivationKind, Elementwise, ElementwiseKind
from repro.ir.tensor import TensorSpec
from repro.ir.workloads import MODEL_ZOO, get_zoo_graph, list_graph_zoo

ZOO_MS = (1, 7, 64, 200, 512)


def networkx_order(graph: OperatorGraph):
    """The order the graph had when it was sorted through a DiGraph."""
    digraph = nx.DiGraph()
    for op in graph.operators:
        digraph.add_node(op.name)
    for op in graph.operators:
        for tensor in op.inputs:
            producer = graph.producer_of(tensor.name)
            if producer is not None:
                digraph.add_edge(producer.name, op.name)
    return list(nx.topological_sort(digraph))


def own_order(graph: OperatorGraph):
    return [op.name for op in graph.topological_order()]


def assert_same_order(graph: OperatorGraph) -> None:
    assert own_order(graph) == networkx_order(graph)
    canonical = canonicalize(graph).graph
    assert own_order(canonical) == networkx_order(canonical)


@pytest.mark.parametrize("name", sorted(MODEL_ZOO))
def test_model_zoo_order_matches_networkx(name):
    for m in ZOO_MS:
        assert_same_order(MODEL_ZOO[name].layer_graph(seq_len=m))


@pytest.mark.parametrize("name", list_graph_zoo())
def test_graph_zoo_order_matches_networkx(name):
    for m in ZOO_MS:
        assert_same_order(get_zoo_graph(name, m=m))


def assert_indexes_match_scan(graph: OperatorGraph) -> None:
    """``consumers_of`` and the tensors derived from it equal a full scan."""
    ops = graph.operators

    def scanned_consumers(name):
        return [op for op in ops if any(t.name == name for t in op.inputs)]

    names = {t.name for op in ops for t in op.inputs} | {op.output.name for op in ops}
    for name in sorted(names):
        assert graph.consumers_of(name) == scanned_consumers(name)
    assert graph.output_tensors() == [
        op.output for op in ops if not scanned_consumers(op.output.name)
    ]
    assert graph.intermediate_tensors() == [
        op.output for op in ops if scanned_consumers(op.output.name)
    ]


ZOO_GRAPHS = [("model", name) for name in sorted(MODEL_ZOO)] + [
    ("zoo", name) for name in list_graph_zoo()
]


@pytest.mark.parametrize("source,name", ZOO_GRAPHS)
def test_consumer_index_matches_scan(source, name):
    for m in ZOO_MS:
        if source == "model":
            graph = MODEL_ZOO[name].layer_graph(seq_len=m)
        else:
            graph = get_zoo_graph(name, m=m)
        assert_indexes_match_scan(graph)
        assert_indexes_match_scan(canonicalize(graph).graph)


@st.composite
def shuffled_dags(draw) -> OperatorGraph:
    """A random DAG added in a random order, not a topological one.

    Operator ``i`` reads one or two tensors, each the graph input or the
    output of an operator ``j < i``; two reads may name the same tensor.
    The operators are then added to the graph in a drawn permutation.
    """
    count = draw(st.integers(min_value=1, max_value=12))
    reads = [
        draw(
            st.lists(
                st.integers(min_value=-1, max_value=index - 1),
                min_size=1,
                max_size=2,
            )
        )
        for index in range(count)
    ]

    def tensor(index: int) -> TensorSpec:
        return TensorSpec("x" if index < 0 else f"op{index}.out", (4, 4))

    graph = OperatorGraph("dag")
    for index in draw(st.permutations(range(count))):
        sources = [tensor(read) for read in reads[index]]
        if len(sources) == 1:
            graph.add(Activation(f"op{index}", ActivationKind.RELU, sources[0]))
        else:
            graph.add(Elementwise(f"op{index}", ElementwiseKind.ADD, *sources))
    return graph


@given(graph=shuffled_dags())
def test_random_dag_order_matches_networkx(graph):
    assert own_order(graph) == networkx_order(graph)
    assert graph.validate() is graph
    assert_indexes_match_scan(graph)
