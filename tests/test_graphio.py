import pytest

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
