from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bipratio import (
    TooLargeError,
    WeightedGraph,
    brute_beta,
    brute_beta_one_sided,
    brute_maxcut,
    brute_well_linked,
    evaluate_beta,
)
from bipratio import oracle
from bipratio.flow import (
    DemandMultigraph,
    FlowNetwork,
    build_network,
    is_saturating,
    max_flow,
)
from bipratio.generators import complete
from bipratio.graph import build_auxiliary_graph
from bipratio.oracle import iter_symmetric_pairs
from bipratio.verify import all_connected_graphs, random_test_graph


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
    assert (beta, x) == _reference_beta(G, G.b)


def test_brute_beta_edgeless_heavy_weights_stay_exact():
    # With no edges 2 w(E) b(V) is 0, but the denominators still reach b(V).
    assert brute_beta(WeightedGraph(2, (), (2**63, 1))) == (0, (0, 1))


def test_one_sided_ratio_decides_one_sided_saturation():
    # Every selection (L, empty) saturates at 1/k exactly when
    # k * beta_1 >= 1, checked by one max-flow per nonempty L on k around
    # 1/beta_1, under degree weights and other weights alike.
    rng = np.random.default_rng(36)
    graphs = cases = 0
    for _ in range(60):
        n = int(rng.integers(2, 8))
        G = random_test_graph(rng, n, w_max=3, p=0.6)
        for H in (G, G.with_b(tuple(int(x) for x in rng.integers(1, 7, size=n)))):
            graphs += 1
            beta_1 = brute_beta_one_sided(H)[0]
            k_star = -(-beta_1.denominator // beta_1.numerator) if beta_1 else 2
            for k in {max(k_star - 1, 1), k_star, k_star + 1}:
                net = build_network(build_auxiliary_graph(H), range(n), (), k)
                saturates = True
                for mask in range(1, 2**n):
                    net.select(frozenset(i for i in range(n) if mask >> i & 1), frozenset())
                    if not is_saturating(max_flow(net)):
                        saturates = False
                        break
                assert saturates == (k * beta_1 >= 1), (H, k, beta_1)
                cases += 1
    assert graphs >= 100 and cases >= 250


def test_one_sided_ratio_lies_between_beta_and_twice_beta():
    rng = np.random.default_rng(37)
    for _ in range(80):
        n = int(rng.integers(1, 9))
        G = _random_multigraph(rng, n, 5)
        for H in (G, G.with_b(tuple(int(x) for x in rng.integers(1, 7, size=n)))):
            beta, beta_1 = brute_beta(H)[0], brute_beta_one_sided(H)[0]
            assert beta <= beta_1 <= 2 * beta


def test_one_sided_ratio_weights_beyond_int64_stay_exact():
    # Weights near 2^63 and far above it put every sum past int64.
    for w in (2**63 - 1, 2**63 + 1, 10**300):
        G = WeightedGraph(4, ((0, 1, w), (1, 2, w), (2, 3, 1), (0, 3, w), (0, 2, 3)))
        beta_1, x = brute_beta_one_sided(G)
        assert (beta_1, x) == _reference_beta(G, G.b, one_sided=True)
        assert brute_beta_one_sided(WeightedGraph(2, (), (w, 1))) == (0, (0, 1))


def test_brute_maxcut_large_weights_stay_exact():
    # w(E) = 2^63 + 1 is past int64; the best side is the middle vertex.
    G = WeightedGraph(3, ((0, 1, 2**62), (1, 2, 2**62), (0, 2, 1)))
    value, S = brute_maxcut(G)
    assert value == Fraction(2**63, 2**63 + 1)
    assert S == frozenset({1})
    assert (value, S) == _reference_maxcut(G)


# -- an independent reference: plain Python over itertools.product ------------

def _reference_beta(graph, b, one_sided=False):
    """First minimizer in ternary-counter order, by exhaustive Fractions; the
    denominator is b(P) + b(N), or max(b(P), b(N)) when one-sided."""
    edges = list(graph.weighted_edges())
    best = None
    for x in product((0, 1, -1), repeat=graph.n):
        if next((s for s in x if s), -1) != 1:
            continue  # the zero vector, or a mirror of an earlier vector
        num = sum(w * abs(x[u] + x[v]) for u, v, w in edges)
        pos, neg = (sum(bi for bi, s in zip(b, x) if s == sign) for sign in (1, -1))
        ratio = Fraction(num, max(pos, neg) if one_sided else pos + neg)
        if best is None or ratio < best[0]:
            best = (ratio, x)
    return best


def _reference_maxcut(G):
    """First maximizer in mask order, vertex n-1 pinned out."""
    best = None
    for mask in range(2 ** (G.n - 1)):
        side = frozenset(i for i in range(G.n) if mask >> i & 1)
        cut = sum(w for u, v, w in G.edges if (u in side) != (v in side))
        if best is None or cut > best[0]:
            best = (cut, side)
    return Fraction(best[0], G.total_weight), best[1]


def _reference_well_linked(G, k):
    """First failing pair of the full 3^n - 1 scan, one fresh network each."""
    aux = build_auxiliary_graph(G)
    for x in product((0, 1, -1), repeat=G.n):
        L = frozenset(i for i, s in enumerate(x) if s == 1)
        R = frozenset(i for i, s in enumerate(x) if s == -1)
        if L or R:
            net = build_network(aux, L, R, k)
            if not is_saturating(max_flow(net)):
                return False, (L, R)
    return True, None


def _random_multigraph(rng, n, w_max):
    """Random edges drawn with replacement (so parallel edges occur) and
    random vertex weights, which keeps isolated vertices legal.  Weights
    near 1e10 put 2 w(E) b(V) past int64."""
    pairs = [tuple(int(v) for v in rng.choice(n, size=2, replace=False))
             for _ in range(int(rng.integers(1, 2 * n + 1)))] if n > 1 else []
    edges = tuple((u, v, int(rng.integers(1, w_max + 1))) for u, v in pairs)
    return WeightedGraph(n, edges, tuple(int(x) for x in rng.integers(1, w_max + 4, size=n)))


@pytest.fixture(params=["default", "tiny"])
def blocks(request, monkeypatch):
    """Run once with the shipped block size and once with blocks of a few
    entries, so that small graphs also cross block boundaries."""
    if request.param == "tiny":
        monkeypatch.setattr(oracle, "_BLOCK", 5)


@pytest.mark.parametrize("n", range(1, 10))
def test_brute_beta_matches_reference(n, blocks):
    rng = np.random.default_rng([31, n])
    for w_max in (1, 4, 10**10):
        G = _random_multigraph(rng, n, w_max)
        assert brute_beta(G) == _reference_beta(G, G.b)
        b = tuple(int(x) for x in rng.integers(1, 7, size=n))
        assert brute_beta(G, b) == _reference_beta(G, b)


@pytest.mark.parametrize("n", range(1, 9))
def test_brute_beta_one_sided_matches_reference(n, blocks):
    rng = np.random.default_rng([38, n])
    for w_max in (1, 4, 10**10):
        G = _random_multigraph(rng, n, w_max)
        assert brute_beta_one_sided(G) == _reference_beta(G, G.b, one_sided=True)
        b = tuple(int(x) for x in rng.integers(1, 7, size=n))
        assert brute_beta_one_sided(G.with_b(b)) == _reference_beta(G, b, one_sided=True)


@pytest.mark.parametrize("n", range(2, 10))
def test_brute_maxcut_matches_reference(n, blocks):
    rng = np.random.default_rng([32, n])
    for w_max in (1, 4, 2**62):
        G = _random_multigraph(rng, n, w_max)
        assert brute_maxcut(G) == _reference_maxcut(G)


@pytest.mark.parametrize("n", range(1, 8))
def test_brute_well_linked_matches_reference(n):
    rng = np.random.default_rng([33, n])
    for _ in range(3 if n < 7 else 1):
        G = _random_multigraph(rng, n, 3)
        for k in (1, 2, 4):
            assert brute_well_linked(G, k) == _reference_well_linked(G, k)


def test_brute_beta_demand_multigraph_with_self_loops_matches_reference(blocks):
    rng = np.random.default_rng(34)
    for n in range(1, 10):
        pairs = {}
        for _ in range(int(rng.integers(1, 2 * n + 1))):
            u, v = sorted(int(i) for i in rng.integers(0, n, size=2))
            pairs[(u, v)] = pairs.get((u, v), 0) + int(rng.integers(1, 4))
        H = DemandMultigraph(n, pairs)
        b = tuple(int(x) for x in rng.integers(1, 5, size=n))
        assert brute_beta(H, b) == _reference_beta(H, b)


@pytest.mark.parametrize("n", range(1, 7))
def test_mirrored_selection_has_the_same_max_flow(n):
    # brute_well_linked solves only one pair of each mirror pair (L, R),
    # (R, L); that rests on their networks having equal maximum flows.
    rng = np.random.default_rng([35, n])
    G = _random_multigraph(rng, n, 3)
    aux = build_auxiliary_graph(G)
    for k in (1, 3):
        for L, R in iter_symmetric_pairs(n):
            forward, mirror = build_network(aux, L, R, k), build_network(aux, R, L, k)
            assert max_flow(forward).value == max_flow(mirror).value


# -- the BLAS route and its boundary --------------------------------------------

@pytest.fixture
def bounds(monkeypatch):
    """Every product bound the searches compute; below 2^53 a block is one
    float64 BLAS product, from 2^53 on numpy's integer product."""
    seen, product_bound = [], oracle._product_bound

    def spy(A, B):
        seen.append(bound := product_bound(A, B))
        return bound

    monkeypatch.setattr(oracle, "_product_bound", spy)
    return seen


def _heavy_edge(G, w):
    """G with its first edge's weight set to w (degree weights follow)."""
    (u, v, _), *rest = G.edges
    return WeightedGraph(G.n, ((u, v, w), *rest))


_SEARCHES = {
    "beta": (brute_beta, lambda G: _reference_beta(G, G.b)),
    "one-sided": (brute_beta_one_sided, lambda G: _reference_beta(G, G.b, one_sided=True)),
    "maxcut": (brute_maxcut, _reference_maxcut),
}


@pytest.mark.parametrize("search", sorted(_SEARCHES))
def test_searches_stay_exact_on_both_sides_of_the_blas_bound(search, bounds, blocks):
    # The largest weight of one heavy edge that keeps the bound below 2^53,
    # and the next weight, which moves the search onto the integer route:
    # both routes run, on both sides of the boundary.
    run, reference = _SEARCHES[search]
    rng = np.random.default_rng([39, len(search)])
    for n in (3, 5, 8):
        G = random_test_graph(rng, n, w_max=5, p=0.7)

        def blas(w):
            bounds.clear()
            run(_heavy_edge(G, w))
            return bounds[-1] < 2**53

        lo, hi = 1, 2
        while blas(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            lo, hi = ((lo + hi) // 2, hi) if blas((lo + hi) // 2) else (lo, (lo + hi) // 2)
        for w in (lo, hi):
            H = _heavy_edge(G, w)
            bounds.clear()
            assert run(H) == reference(H), (search, n, w)
            assert (bounds[-1] < 2**53) == (w == lo)
            assert 2**52 < bounds[-1] < 2**54


def test_ratio_search_takes_the_blas_route_on_the_object_tier(bounds, blocks):
    # Vertex weights near 10^300 put b(V) past int64, while the numerators
    # stay small: the BLAS block reaches the cross-multiplied comparisons
    # as Python ints, and weights that differ in their last digit still tell
    # the ratios apart.
    G = WeightedGraph(5, ((0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 4, 1), (0, 4, 1), (1, 3, 2)))
    for b in ((10**300, 10**300 + 1, 10**300 - 1, 10**300 + 2, 10**300),
              (3, 10**300, 1, 10**300 + 7, 2)):
        bounds.clear()
        assert brute_beta(G, b) == _reference_beta(G, b)
        assert brute_beta_one_sided(G.with_b(b)) == _reference_beta(G, b, one_sided=True)
        assert max(bounds) < 2**53


@pytest.mark.parametrize("w", [2**63 - 1, 2**63 + 1, 10**300])
def test_searches_take_the_integer_route_past_int64(w, bounds):
    G = WeightedGraph(5, ((0, 1, w), (1, 2, w), (2, 3, 1), (0, 3, w), (0, 2, 3), (3, 4, 2)))
    for run, reference in _SEARCHES.values():
        bounds.clear()
        assert run(G) == reference(G)
        assert min(bounds) >= 2**53


# -- explicit vertex weights ------------------------------------------------------

def test_brute_beta_needs_weights_for_a_demand_graph():
    with pytest.raises(ValueError):
        brute_beta(DemandMultigraph(3, {(0, 1): 1, (1, 2): 2}))


@pytest.mark.parametrize("b", [(1, 1), (1, 1, 1, 1), (1, 1, -1), (1, 0, 1), (1, 1.5, 1),
                               (1, "2", 1), (1, None, 1)])
def test_brute_beta_rejects_bad_explicit_weights(b):
    for graph in (complete(3), DemandMultigraph(3, {(0, 1): 1, (1, 2): 2})):
        with pytest.raises(ValueError):
            brute_beta(graph, b)


def test_brute_beta_accepts_integral_weights_of_any_integer_type(k3):
    assert brute_beta(k3, (1, np.int64(1), 1.0)) == brute_beta(k3, (1, 1, 1))


# -- brute_well_linked solves the leading-plus pairs only --------------------------

@pytest.mark.parametrize("n", range(1, 8))
def test_well_linked_solves_the_leading_plus_pairs_in_counter_order(n, monkeypatch):
    # Every flow is reported saturating, so the whole sequence is solved.
    selected = []
    select = FlowNetwork.select

    def spy(net, L, R):
        selected.append((frozenset(L), frozenset(R)))
        select(net, L, R)

    monkeypatch.setattr(FlowNetwork, "select", spy)
    monkeypatch.setattr(oracle, "is_saturating", lambda flow: True)
    G = _random_multigraph(np.random.default_rng([40, n]), n, 3)
    assert brute_well_linked(G) == (True, None)
    expected = [(L, R) for L, R in iter_symmetric_pairs(n) if min(L | R) in L]
    assert selected[1:] == expected  # the first is build_network's placeholder
