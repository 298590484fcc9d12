from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipratio import (
    EmptySelectionError,
    WeightedGraph,
    ZeroVectorError,
    aux_cut_ratio,
    build_auxiliary_graph,
    evaluate_beta,
    sign_vector,
    tripartition,
)


def test_tripartition_mixed():
    x = (1, 1, 1, 1, -1, -1, -1, 0, 0)
    L, R, Z = tripartition(x)
    assert L == {0, 1, 2, 3}
    assert R == {4, 5, 6}
    assert Z == {7, 8}


def test_tripartition_all_zero_and_all_plus():
    assert tripartition((0, 0, 0)) == (frozenset(), frozenset(), frozenset({0, 1, 2}))
    assert tripartition((1, 1, 1)) == (frozenset({0, 1, 2}), frozenset(), frozenset())


@given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=12))
def test_tripartition_roundtrip(entries):
    x = tuple(entries)
    L, R, _ = tripartition(x)
    assert sign_vector(len(x), L, R) == x


def test_sign_vector_rejects_overlap():
    with pytest.raises(ValueError):
        sign_vector(3, [0, 1], [1])


def test_beta_k3(k3):
    assert evaluate_beta(k3, (1, -1, -1)) == Fraction(1, 3)


def test_beta_c4_alternating(c4):
    assert evaluate_beta(c4, (1, -1, 1, -1)) == 0


def test_beta_single_weighted_edge():
    G = WeightedGraph(2, ((0, 1, 5),), (1, 1))
    assert evaluate_beta(G, (1, 0)) == Fraction(5, 1)


def test_beta_zero_vector_rejected(k3):
    with pytest.raises(ZeroVectorError):
        evaluate_beta(k3, (0, 0, 0))


def test_beta_at_most_one_with_degree_weights(k3, c4, k4):
    for G in (k3, c4, k4):
        for code in range(1, 3**G.n):
            x = []
            c = code
            for _ in range(G.n):
                d = c % 3
                c //= 3
                x.append(0 if d == 0 else (1 if d == 1 else -1))
            assert evaluate_beta(G, tuple(x)) <= 1


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 0, 1),))  # self-loop
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 1, 0),))  # zero weight
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 2, 1),))  # out of range
    with pytest.raises(ValueError):
        WeightedGraph(3, ((0, 1, 1),))  # isolated vertex, default b
    G = WeightedGraph(3, ((0, 1, 1),), (1, 1, 1))
    assert G.b == (1, 1, 1)


@pytest.mark.parametrize("edges, b", [
    (((0, 1, 2.5), (1, 2, 1)), None),  # fractional edge weight
    (((0.9, 1, 1), (1, 2, 1)), None),  # fractional endpoint
    (((0, 1, 1), (1, 2.5, 1)), None),
    (((0, 1, 1), (1, 2, 1)), (1.7, 1, 1)),  # fractional vertex weight
    (((0, 1, 1), (1, 2, 1)), np.array([1.0, 1.5, 1.0])),
])
def test_graph_rejects_non_integral_input(edges, b):
    # int() would truncate these, silently giving the ratio of another graph.
    with pytest.raises(ValueError, match="integers"):
        WeightedGraph(3, edges, b)


def test_graph_accepts_integral_numbers():
    edges = ((np.int64(0), 1.0, np.int32(2)), (1, np.float64(2.0), 3))
    G = WeightedGraph(3, edges, (np.int64(1), 2.0, np.float64(3.0)))
    assert G == WeightedGraph(3, ((0, 1, 2), (1, 2, 3)), (1, 2, 3))
    assert all(type(x) is int for edge in G.edges for x in edge)
    assert all(type(x) is int for x in G.b)


def test_parallel_edges_stay_distinct():
    G = WeightedGraph(2, ((0, 1, 2), (0, 1, 3)))
    assert G.m == 2
    assert G.deg == (5, 5)
    assert evaluate_beta(G, (1, 1)) == Fraction(10, 10)


def test_auxiliary_graph_shape(k3, single_edge):
    aux = build_auxiliary_graph(single_edge)
    assert {(a, b) for a, b, _, _ in aux.aux_edges} == {(0, 3), (1, 2)}
    aux3 = build_auxiliary_graph(k3)
    assert aux3.n_aux == 6
    assert len(aux3.aux_edges) == 6
    empty = build_auxiliary_graph(WeightedGraph(3, (), (1, 1, 1)))
    assert empty.n_aux == 6 and len(empty.aux_edges) == 0


def test_auxiliary_graph_bipartite_and_skew(k4):
    aux = build_auxiliary_graph(k4)
    n = k4.n
    pairs = set()
    for a, b, w, e in aux.aux_edges:
        assert a < n <= b  # bipartite between the copies
        pairs.add((a, b - n, w))
    for u, v, w in pairs:
        assert (v, u, w) in pairs  # swap symmetry


def test_aux_cut_ratio_examples(k3, c4, single_edge):
    aux3 = build_auxiliary_graph(k3)
    assert aux_cut_ratio(aux3, {0}, set()) == Fraction(2, 2)
    assert aux_cut_ratio(aux3, {0}, set()) == evaluate_beta(k3, (1, 0, 0))
    aux4 = build_auxiliary_graph(c4)
    assert aux_cut_ratio(aux4, {0, 2}, {1, 3}) == 0
    aux1 = build_auxiliary_graph(single_edge)
    assert aux_cut_ratio(aux1, {0}, {1}) == 0
    assert aux_cut_ratio(aux1, {0}, {1}) == evaluate_beta(single_edge, (1, -1))


def test_aux_cut_ratio_empty_selection(k3):
    with pytest.raises(EmptySelectionError):
        aux_cut_ratio(build_auxiliary_graph(k3), set(), set())


@st.composite
def small_graph_and_vector(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible), max_size=12))
    edges = tuple((u, v, draw(st.integers(min_value=1, max_value=5)))
                  for u, v in chosen)
    b = tuple(draw(st.integers(min_value=1, max_value=5)) for _ in range(n))
    x = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)
             .filter(lambda xs: any(xs)))
    return WeightedGraph(n, edges, b), tuple(x)


@settings(max_examples=200, deadline=None)
@given(small_graph_and_vector())
def test_beta_equals_doubled_cut_ratio(case):
    G, x = case
    L, R, _ = tripartition(x)
    assert evaluate_beta(G, x) == aux_cut_ratio(build_auxiliary_graph(G), L, R)
