from fractions import Fraction

import pytest

from bipratio import (
    TooLargeError,
    WeightedGraph,
    brute_beta,
    brute_maxcut,
    brute_well_linked,
    evaluate_beta,
)
from bipratio.generators import complete
from bipratio.oracle import iter_symmetric_pairs
from bipratio.verify import all_connected_graphs


def test_brute_beta_k3(k3):
    beta, x = brute_beta(k3)
    assert beta == Fraction(1, 3)
    assert evaluate_beta(k3, x) == beta


def test_brute_beta_c4(c4):
    assert brute_beta(c4)[0] == 0


def test_brute_beta_single_vertex():
    G = WeightedGraph(1, (), (1,))
    beta, x = brute_beta(G)
    assert beta == 0
    assert x == (1,)


def test_brute_beta_respects_explicit_b(k3):
    beta, _ = brute_beta(k3, (1, 1, 1))
    assert beta == Fraction(2, 3)


def test_brute_beta_minimizer_roundtrip():
    import numpy as np

    from bipratio.verify import random_test_graph

    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        G = random_test_graph(rng, n, w_max=4, random_b=True)
        beta, x = brute_beta(G)
        assert evaluate_beta(G, x) == beta


def test_brute_beta_too_large():
    G = WeightedGraph(17, tuple((i, i + 1, 1) for i in range(16)))
    with pytest.raises(TooLargeError):
        brute_beta(G)


def test_brute_maxcut_examples(k3, c4, k4):
    assert brute_maxcut(k3)[0] == Fraction(2, 3)
    assert brute_maxcut(c4)[0] == 1
    assert brute_maxcut(k4)[0] == Fraction(2, 3)


def test_brute_maxcut_witness_consistent(k4):
    value, S = brute_maxcut(k4)
    crossing = sum(w for u, v, w in k4.edges if (u in S) != (v in S))
    assert Fraction(crossing, k4.total_weight) == value


def test_brute_well_linked_k3(k3):
    linked, pair = brute_well_linked(k3, k=3)
    assert linked and pair is None
    linked, pair = brute_well_linked(k3, k=2)
    assert not linked
    L, R = pair
    x = tuple(1 if i in L else -1 if i in R else 0 for i in range(3))
    assert evaluate_beta(k3, x) < Fraction(1, 2)


def test_brute_well_linked_c4(c4):
    for k in (1, 2, 3):
        linked, _ = brute_well_linked(c4, k=k)
        assert not linked


def test_brute_well_linked_too_large():
    G = complete(8)
    with pytest.raises(TooLargeError):
        brute_well_linked(G, k=1)


def test_symmetric_pairs_follow_the_ternary_counter():
    # Digits read most-significant-first as vertices 0..n-1: 1 -> L, 2 -> R.
    F = frozenset
    assert list(iter_symmetric_pairs(2)) == [
        (F({1}), F()), (F(), F({1})), (F({0}), F()), (F({0, 1}), F()),
        (F({0}), F({1})), (F(), F({0})), (F({1}), F({0})), (F(), F({0, 1})),
    ]
    for n in range(1, 7):
        pairs = list(iter_symmetric_pairs(n))
        assert len(pairs) == len(set(pairs)) == 3**n - 1
        assert all(not (L & R) and (L | R) for L, R in pairs)


def test_iff_on_tiny_corpus():
    # Full equivalence sweep lives in the acceptance suite; spot-check n <= 4.
    for G in all_connected_graphs(4):
        beta = brute_beta(G)[0]
        for k in (1, 2, 3):
            linked, _ = brute_well_linked(G, k=k)
            assert linked == (beta >= Fraction(1, k))


def test_brute_beta_large_weights_stay_exact():
    # 2 w(E) * b(V) is past int64 here; the minimum is x = (1, -1, 1).
    G = WeightedGraph(3, ((0, 1, 10**10), (1, 2, 10**10), (0, 2, 1)))
    beta, x = brute_beta(G)
    assert beta == Fraction(1, 20000000001) == evaluate_beta(G, x)


def test_brute_maxcut_large_weights_stay_exact():
    # w(E) = 2^63 + 1 is past int64; the best side is the middle vertex.
    G = WeightedGraph(3, ((0, 1, 2**62), (1, 2, 2**62), (0, 2, 1)))
    value, S = brute_maxcut(G)
    assert value == Fraction(2**63, 2**63 + 1)
    assert S == frozenset({1})
