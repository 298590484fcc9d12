import pytest
from hypothesis import given
from hypothesis import strategies as st

from bipratio import GraphFormatError, WeightedGraph, dumps_graph, loads_graph


def test_roundtrip():
    G = WeightedGraph(4, ((0, 1, 2), (2, 3, 1), (0, 3, 5)))
    text = dumps_graph(G)
    assert text.splitlines()[0] == "4 3"
    assert loads_graph(text) == G


def test_one_based_shift_and_comments():
    text = "# a triangle\n\n3 3\n1 2 1\n# middle comment\n2 3 1\n1 3 1\n"
    G = loads_graph(text)
    assert G.n == 3
    assert (0, 1, 1) in G.edges


def test_vertex_weight_file():
    G = loads_graph("2 1\n1 2 1\n", "7\n9\n")
    assert G.b == (7, 9)


def test_errors():
    with pytest.raises(GraphFormatError):
        loads_graph("")
    with pytest.raises(GraphFormatError):
        loads_graph("2\n")
    with pytest.raises(GraphFormatError):
        loads_graph("2 1\n1 1 1\n")  # self-loop
    with pytest.raises(GraphFormatError):
        loads_graph("2 1\n1 2 0\n")  # weight 0
    with pytest.raises(GraphFormatError):
        loads_graph("2 2\n1 2 1\n")  # edge count mismatch
    with pytest.raises(GraphFormatError):
        loads_graph("2 1\n1 3 1\n")  # endpoint out of range
    with pytest.raises(GraphFormatError):
        loads_graph("3 1\n1 2 1\n")  # isolated vertex, default weights
    with pytest.raises(GraphFormatError):
        loads_graph("2 1\n1 2 1\n", "1\n")  # short weight file


def test_impossible_header_rejected_before_allocation(monkeypatch):
    # Without a weights file, n > 2m forces an isolated vertex; the header
    # alone decides, so no per-vertex list is ever built.
    import bipratio.graphio as graphio

    def no_graph(*args, **kwargs):
        raise AssertionError("WeightedGraph built for an impossible header")

    monkeypatch.setattr(graphio, "WeightedGraph", no_graph)
    with pytest.raises(GraphFormatError, match="isolated"):
        loads_graph("1000000000 0\n")
    with pytest.raises(GraphFormatError, match="isolated"):
        loads_graph("5 2\n1 2 1\n3 4 1\n")


# -- property tests -----------------------------------------------------------

@st.composite
def weighted_graphs(draw, covered: bool):
    """A WeightedGraph with random parallel edges and weights.  ``covered``
    graphs touch every vertex and keep the default (degree) vertex weights;
    the others draw explicit weights, so isolated vertices are allowed."""
    n = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(st.tuples(pair, st.integers(1, 10**12)), max_size=3 * n))
    edges = [(u, v, w) for (u, v), w in edges]
    if covered:
        edges += [(i, (i + 1) % n, 1) for i in range(n)]
        return WeightedGraph(n, tuple(edges))
    return WeightedGraph(n, tuple(edges), tuple(draw(st.lists(st.integers(1, 10**6),
                                                              min_size=n, max_size=n))))


def _weights_text(G):
    return "".join(f"{x}\n" for x in G.b)


@given(weighted_graphs(covered=True))
def test_roundtrip_default_weights(G):
    assert loads_graph(dumps_graph(G)) == G


@given(weighted_graphs(covered=False))
def test_roundtrip_with_weights_file(G):
    assert loads_graph(dumps_graph(G), _weights_text(G)) == G


def _replace_edge_line(G, index, line):
    lines = dumps_graph(G).splitlines()
    lines[1 + index % G.m] = line
    return "\n".join(lines) + "\n"


@given(weighted_graphs(covered=True), st.integers(0, 10**6), st.integers(1, 10**6))
def test_self_loop_rejected(G, index, vertex):
    v = 1 + vertex % G.n
    with pytest.raises(GraphFormatError, match="self-loop"):
        loads_graph(_replace_edge_line(G, index, f"{v} {v} 1"), _weights_text(G))


@given(weighted_graphs(covered=True), st.integers(0, 10**6), st.integers(-10**6, 0))
def test_nonpositive_weight_rejected(G, index, weight):
    with pytest.raises(GraphFormatError, match="weight must be >= 1"):
        loads_graph(_replace_edge_line(G, index, f"1 2 {weight}"), _weights_text(G))


@given(weighted_graphs(covered=True), st.integers(0, 10**6), st.booleans(), st.booleans(),
       st.integers(1, 10**6))
def test_out_of_range_endpoint_rejected(G, index, first, below, beyond):
    endpoint = 1 - beyond if below else G.n + beyond
    line = f"{endpoint} 1 1" if first else f"1 {endpoint} 1"
    with pytest.raises(GraphFormatError, match="out of range"):
        loads_graph(_replace_edge_line(G, index, line), _weights_text(G))


@given(weighted_graphs(covered=True), st.integers(-2, 5).filter(bool))
def test_wrong_edge_count_rejected(G, shift):
    # Covered graphs hold at least two edges, so the header count stays >= 0.
    lines = dumps_graph(G).splitlines()
    lines[0] = f"{G.n} {G.m + shift}"
    with pytest.raises(GraphFormatError, match="promises"):
        loads_graph("\n".join(lines) + "\n", _weights_text(G))
