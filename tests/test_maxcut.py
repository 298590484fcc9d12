from fractions import Fraction

import numpy as np
import pytest

from bipratio import (
    EmptyGraphError,
    GameParams,
    WeightedGraph,
    brute_maxcut,
    cut_value,
    evaluate_beta,
    induced_subgraph,
    recursive_bipart,
    sign_vector,
)
from bipratio.generators import gnp, planted_bipartite
from bipratio.verify import random_test_graph


def test_cut_value_examples(k3, c4, k4):
    assert cut_value(c4, {0, 2}) == 1
    assert cut_value(k3, {0}) == Fraction(2, 3)
    assert cut_value(k4, {0, 1}) == Fraction(4, 6)


def test_cut_value_empty_graph():
    with pytest.raises(EmptyGraphError):
        cut_value(WeightedGraph(2, (), (1, 1)), {0})


def test_induced_subgraph_examples(k3):
    sub = induced_subgraph(k3, {0, 1})
    assert sub.graph is not None
    assert sub.graph.edges == ((0, 1, 1),)
    assert sub.ids == (0, 1)
    assert sub.isolated == ()

    empty = induced_subgraph(k3, set())
    assert empty.graph is None and empty.ids == ()

    full = induced_subgraph(k3, {0, 1, 2})
    assert full.graph == k3
    assert full.ids == (0, 1, 2)


def test_induced_subgraph_isolated_split():
    # 0-1 edge plus vertices 2, 3 hanging off 1: restricting to {0, 2, 3}
    # leaves everything isolated.
    G = WeightedGraph(4, ((0, 1, 1), (1, 2, 1), (1, 3, 1)))
    sub = induced_subgraph(G, {0, 2, 3})
    assert sub.graph is None
    assert sub.isolated == (0, 2, 3)


def test_maxcut_k3(k3):
    res = recursive_bipart(k3, GameParams(seed=1))
    assert res.value == Fraction(2, 3) == brute_maxcut(k3)[0]


def test_maxcut_c4(c4):
    res = recursive_bipart(c4, GameParams(seed=1))
    assert res.value == 1


def test_maxcut_bipartite_small_corpus():
    for run in range(8):
        G, _ = planted_bipartite(10 + run, 0.4, 0.0, seed=run)
        res = recursive_bipart(G, GameParams(seed=run))
        assert res.value == 1
        assert all(t.beta == 0 for t in res.trace)


def test_maxcut_empty_graph():
    with pytest.raises(EmptyGraphError):
        recursive_bipart(WeightedGraph(3, (), (1, 1, 1)), GameParams(seed=0))


def test_maxcut_with_isolated_input_vertices():
    G = WeightedGraph(4, ((0, 1, 1),), b=(1, 1, 1, 1))
    res = recursive_bipart(G, GameParams(seed=0))
    assert res.value == 1  # the single edge is cut; isolated vertices free


def test_maxcut_value_matches_returned_side():
    rng = np.random.default_rng(77)
    for run in range(8):
        n = int(rng.integers(4, 11))
        G = random_test_graph(rng, n, w_max=3)
        res = recursive_bipart(G, GameParams(seed=200 + run))
        assert cut_value(G, res.S) == res.value
        assert 0 <= res.value <= 1


def test_maxcut_never_beats_brute():
    rng = np.random.default_rng(78)
    for run in range(6):
        n = int(rng.integers(4, 10))
        G = random_test_graph(rng, n, w_max=2)
        res = recursive_bipart(G, GameParams(seed=300 + run))
        assert res.value <= brute_maxcut(G)[0]


def test_uncut_bound_helper_monotonicity():
    # Sanity of the functions behind the uncut-fraction bound: x * ln(3/x)
    # increases on (0, 1), and x + ln(3 (1 - x) / eta) never exceeds
    # ln(3 / eta), which is what lets per-level losses telescope.
    import math

    xs = [i / 200 for i in range(1, 200)]
    f = [x * math.log(3.0 / x) for x in xs]
    assert all(a < b for a, b in zip(f, f[1:]))
    for eta in (0.5, 0.1, 0.01, 1e-4):
        for x in xs:
            assert x + math.log(3.0 * (1.0 - x) / eta) <= math.log(3.0 / eta) + 1e-12


def test_trace_accounting_fields():
    G, _ = planted_bipartite(12, 0.5, 0.15, seed=4)
    res = recursive_bipart(G, GameParams(seed=5))
    for level in res.trace:
        # The level uncut never exceeds internal + boundary/2 + deeper uncut;
        # recursive_bipart itself asserts the exact identity per level.
        assert level.uncut >= 0
        assert 2 * level.internal_weight + level.boundary_weight \
            == level.beta * level.volume


def _clustered_graph(index: int) -> WeightedGraph:
    """5-7 gnp blocks of 6-9 vertices, 0-2 bridges between neighbouring blocks."""
    shape = np.random.default_rng([index, 5])
    blocks = int(shape.integers(5, 8))
    sizes = [int(shape.integers(6, 10)) for _ in range(blocks)]
    probs = [float(shape.uniform(0.4, 0.7)) for _ in range(blocks)]
    bridges = [int(shape.integers(0, 3)) for _ in range(blocks - 1)]
    rng = np.random.default_rng([1, 3, index])
    edges, offsets, offset = [], [], 0
    for size, prob in zip(sizes, probs):
        block = gnp(size, prob, 3, seed=int(rng.integers(2**62)))
        edges += [(u + offset, v + offset, w) for u, v, w in block.edges]
        offsets.append(offset)
        offset += size
    for i, count in enumerate(bridges):
        for _ in range(count):
            u = offsets[i] + int(rng.integers(sizes[i]))
            v = offsets[i + 1] + int(rng.integers(sizes[i + 1]))
            edges.append((u, v, int(rng.integers(1, 4))))
    return WeightedGraph(offset, tuple(edges))


def test_maxcut_deep_recursion_on_clustered_graph():
    # End to end on a graph whose recursion can run many levels deep.
    G = _clustered_graph(18)
    assert G.n == 39
    res = recursive_bipart(G, GameParams(seed=1))
    assert res.value == cut_value(G, res.S)


def test_maxcut_depth_guard_counts_top_level_vertices(monkeypatch):
    # A sweep whose witness is always the first edge peels two vertices per
    # level, so on an 8-vertex path level 3 runs on a 2-vertex subgraph: the
    # depth guard must measure against the whole graph, not the subgraph.
    import bipratio.maxcut as maxcut
    from bipratio.game import SweepResult

    def first_edge_witness(G, params, seed_path):
        u, v, _ = G.edges[0]
        x = sign_vector(G.n, [u], [v])
        return SweepResult(x, evaluate_beta(G, x), None, ())

    monkeypatch.setattr(maxcut, "approx_bipartiteness", first_edge_witness)
    G = WeightedGraph(8, tuple((i, i + 1, 1) for i in range(7)))
    res = recursive_bipart(G, GameParams(seed=0))
    assert [len(t.L | t.R | t.Z) for t in res.trace] == [8, 6, 4, 2]
    assert res.value == 1 == cut_value(G, res.S)


def test_maxcut_level_frees_its_sweep_before_recursing(monkeypatch):
    # A level keeps only its witness: its sweep result, certificate and round
    # records included, is unreachable before the next level's sweep starts.
    import gc
    import weakref

    import bipratio.maxcut as maxcut

    real = maxcut.approx_bipartiteness
    sweeps = []

    def tracked(G, params, seed_path):
        gc.collect()
        assert [ref() for ref in sweeps] == [None] * len(sweeps)
        res = real(G, params, seed_path=seed_path)
        sweeps.append(weakref.ref(res))
        return res

    monkeypatch.setattr(maxcut, "approx_bipartiteness", tracked)
    res = recursive_bipart(gnp(12, 0.5, 3, seed=0), GameParams(seed=0))
    assert len(sweeps) == len(res.trace) == 2


def test_sweep_frees_each_witness_game_after_its_summary(monkeypatch):
    # The sweep keeps a witness's sign vector and ratio, not the game: its
    # round records are unreachable before the next game starts.
    import gc
    import weakref

    import bipratio.game as game

    real = game.cut_matching_game
    outcomes = []

    def tracked(G, k, params, seed_path):
        gc.collect()
        alive = [out.k for out in (ref() for ref in outcomes) if out is not None]
        assert alive == [], f"game k={k} starts while games {alive} live"
        out = real(G, k, params, seed_path)
        outcomes.append(weakref.ref(out))
        return out

    monkeypatch.setattr(game, "cut_matching_game", tracked)
    res = game.approx_bipartiteness(gnp(20, 0.3, 3, seed=8), GameParams(seed=6))
    assert [(g.k, g.outcome) for g in res.games] == [
        (1, "witness"), (2, "witness"), (4, "certificate")]


def test_maxcut_never_brute_forces_a_certificate(monkeypatch):
    # A level keeps only its sweep's witness, so the certificates that end
    # its sweeps are never asked for beta(H), and no search runs on a demand
    # union, although every graph here is small enough for it.  The one
    # search per level is the sweep's own beta(G).
    import bipratio.game as game
    import bipratio.maxcut as maxcut
    from bipratio import Certificate
    from bipratio.flow import DemandMultigraph

    searches, certificates, levels = [], [], []
    real_game, real_brute, real_sweep = (game.cut_matching_game, game.brute_beta,
                                         maxcut.approx_bipartiteness)

    def tracked(*args):
        out = real_game(*args)
        certificates.append(isinstance(out, Certificate))
        return out

    def level(G, params, seed_path):
        levels.append(G)
        return real_sweep(G, params, seed_path=seed_path)

    monkeypatch.setattr(game, "brute_beta", lambda *a: searches.append(a[0]) or real_brute(*a))
    monkeypatch.setattr(game, "cut_matching_game", tracked)
    monkeypatch.setattr(maxcut, "approx_bipartiteness", level)
    for seed in range(4):
        recursive_bipart(gnp(8, 0.5, 3, seed=seed), GameParams(seed=seed))
    assert sum(certificates) >= 4
    assert not any(isinstance(G, DemandMultigraph) for G in searches)
    assert all(G.n <= game.BRUTE_CERT_LIMIT for G in levels)
    assert [id(G) for G in searches] == [id(G) for G in levels]


def test_maxcut_plays_no_game_it_could_only_certificate(monkeypatch):
    # Max-cut reads no certificate, so on level graphs of at most
    # BRUTE_CERT_LIMIT vertices it never plays a game at k * beta >= 1.
    # Seeds 6 and 10 reach such a k; the others certificate before it.
    import bipratio.game as game
    import bipratio.maxcut as maxcut
    from bipratio import brute_beta

    played, deferred = [], []
    real_game, real_sweep = game.cut_matching_game, maxcut.approx_bipartiteness

    def tracked(G, k, params, seed_path):
        played.append((G, k))
        return real_game(G, k, params, seed_path)

    def level(G, params, seed_path):
        res = real_sweep(G, params, seed_path=seed_path)
        deferred.append(callable(res.cert_source))
        return res

    monkeypatch.setattr(game, "cut_matching_game", tracked)
    monkeypatch.setattr(maxcut, "approx_bipartiteness", level)
    for seed in range(12):
        recursive_bipart(gnp(8, 0.5, 3, seed=seed), GameParams(seed=seed))
    assert played and sum(deferred) == 2
    assert all(k * brute_beta(G)[0] < 1 for G, k in played)
