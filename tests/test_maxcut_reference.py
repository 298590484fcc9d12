"""The max-cut recursion against a frozen reference copy of its earlier code.

``_solve_level`` now returns one side of each level's bipartition in that
level's own vertex ids, with the promise that the side S, its value and every
``LevelTrace`` field stay the same.  The reference below is the earlier code,
which carried both sides of every level in top-level ids; it is kept as it
was apart from its names.  Both run on the same witnesses: the real sweep on
small graphs, and two cheap stub sweeps that reach deep recursions.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

import bipratio.maxcut as maxcut
from bipratio import GameParams, WeightedGraph, evaluate_beta, sign_vector
from bipratio.errors import EmptyGraphError
from bipratio.game import SweepResult, approx_bipartiteness
from bipratio.generators import planted_bipartite
from bipratio.graph import tripartition
from bipratio.maxcut import CutResult, LevelTrace, cut_value, induced_subgraph
from bipratio.verify import random_sign_vector, random_test_graph
from test_maxcut import _clustered_graph


# ---- reference copies ------------------------------------------------------

def _ref_split_isolated(vertices: Sequence[int]) -> tuple[set[int], set[int]]:
    # Isolated vertices touch no edge; place them deterministically by parity.
    left = {v for v in vertices if v % 2 == 0}
    right = {v for v in vertices if v % 2 == 1}
    return left, right


def _ref_bipartition_cut_weight(G: WeightedGraph, left: frozenset[int]) -> int:
    return sum(w for u, v, w in G.edges if (u in left) != (v in left))


def ref_recursive_bipart(G: WeightedGraph, params: GameParams | None = None) -> CutResult:
    if G.total_weight == 0:
        raise EmptyGraphError("max cut of an edgeless graph is undefined")
    params = params or GameParams()
    top = induced_subgraph(G, range(G.n))
    iso_left, _ = _ref_split_isolated(top.isolated)
    L, _, trace = _ref_solve_level(top.graph, top.ids, 0, params, top.graph.n)
    L = set(L) | iso_left
    value = cut_value(G, L)
    return CutResult(frozenset(L), value, tuple(trace))


def _ref_solve_level(G: WeightedGraph, ids: tuple[int, ...], level: int,
                     params: GameParams, n_top: int):
    # Every level removes at least one vertex of the top-level graph, so the
    # depth never exceeds that graph's vertex count.
    if level > n_top:
        raise AssertionError("recursion depth exceeded the vertex count")
    res: SweepResult = approx_bipartiteness(G, params, seed_path=(params.seed, 2, level))
    L_loc, R_loc, Z_loc = tripartition(res.x_best)
    w_internal = sum(w for u, v, w in G.edges
                     if (u in L_loc and v in L_loc) or (u in R_loc and v in R_loc))
    w_boundary = sum(w for u, v, w in G.edges if (u in Z_loc) != (v in Z_loc))
    vol = sum(G.deg[i] for i in L_loc | R_loc)
    # The witness ratio ties down exactly what this level can leave uncut.
    if Fraction(2 * w_internal + w_boundary) != res.beta * vol:
        raise AssertionError("level accounting disagrees with the witness ratio")
    L = {ids[i] for i in L_loc}
    R = {ids[i] for i in R_loc}
    if not Z_loc:
        uncut = Fraction(G.total_weight - _ref_bipartition_cut_weight(G, frozenset(L_loc)))
        trace = LevelTrace(frozenset(L), frozenset(R), frozenset(), res.beta,
                           w_internal, w_boundary, vol, uncut)
        return L, R, [trace]
    sub = induced_subgraph(G, Z_loc)
    iso_left, iso_right = _ref_split_isolated(tuple(ids[i] for i in sub.isolated))
    if sub.graph is None:
        L2, R2 = iso_left, iso_right
        sub_trace: list[LevelTrace] = []
        sub_uncut = Fraction(0)
    else:
        sub_ids = tuple(ids[i] for i in sub.ids)
        L2, R2, sub_trace = _ref_solve_level(sub.graph, sub_ids, level + 1, params, n_top)
        L2 = L2 | iso_left
        R2 = R2 | iso_right
        sub_uncut = sub_trace[0].uncut
    cand_a = L | L2
    cand_b = L | R2
    zmap = frozenset(ids[i] for i in Z_loc)
    wa = _ref_bipartition_cut_weight_from(G, ids, cand_a)
    wb = _ref_bipartition_cut_weight_from(G, ids, cand_b)
    chosen = cand_a if wa >= wb else cand_b
    chosen_other = (R | R2) if wa >= wb else (R | L2)
    uncut = Fraction(G.total_weight - max(wa, wb))
    bound = w_internal + Fraction(w_boundary, 2) + sub_uncut
    if uncut > bound:
        raise AssertionError("level accounting identity violated")
    trace = LevelTrace(frozenset(L), frozenset(R), zmap, res.beta,
                       w_internal, w_boundary, vol, uncut)
    return set(chosen), set(chosen_other), [trace] + sub_trace


def _ref_bipartition_cut_weight_from(G: WeightedGraph, ids: tuple[int, ...],
                                     left_orig: set[int]) -> int:
    left_local = frozenset(i for i, orig in enumerate(ids) if orig in left_orig)
    return _ref_bipartition_cut_weight(G, left_local)


# ---- stub sweeps -----------------------------------------------------------

def first_edge_witness(G, params, seed_path):
    """The witness {u} against {v} for the first edge: two vertices per level."""
    u, v, _ = G.edges[0]
    x = sign_vector(G.n, [u], [v])
    return SweepResult(x, evaluate_beta(G, x), None, ())


def random_witness(G, params, seed_path):
    """A random nonzero sign vector, fixed by the call's graph and seed path."""
    rng = np.random.default_rng([*seed_path, G.n, G.m])
    x = random_sign_vector(rng, G.n)
    return SweepResult(x, evaluate_beta(G, x), None, ())


# ---- corpus ----------------------------------------------------------------

def _with_isolated(rng, G: WeightedGraph, extra: int) -> WeightedGraph:
    """G spread over extra more vertices, which touch no edge; b explicit."""
    n = G.n + extra
    slots = sorted(int(i) for i in rng.choice(n, size=G.n, replace=False))
    edges = tuple((slots[u], slots[v], w) for u, v, w in G.edges)
    b = tuple(int(x) for x in rng.integers(1, 5, size=n))
    return WeightedGraph(n, edges, b)


def _solver_corpus():
    rng = np.random.default_rng([2025, 10])
    for run in range(16):
        n = int(rng.integers(4, 17))
        p = float(rng.uniform(0.15, 0.6))
        yield random_test_graph(rng, n, w_max=3, p=p), 400 + run
    for run in range(8):
        G = random_test_graph(rng, int(rng.integers(3, 11)), w_max=3)
        yield _with_isolated(rng, G, int(rng.integers(1, 5))), 500 + run
    for run in range(4):
        yield planted_bipartite(8 + 2 * run, 0.5, 0.1 * run, seed=run)[0], 600 + run
    yield _clustered_graph(18), 1


def _stub_corpus():
    rng = np.random.default_rng([2025, 11])
    yield WeightedGraph(8, tuple((i, i + 1, 1) for i in range(7))), 0
    for run in range(60):
        n = int(rng.integers(4, 17))
        p = float(rng.uniform(0.1, 0.5))
        edges = tuple((i, j, int(rng.integers(1, 4))) for i in range(n)
                      for j in range(i + 1, n) if rng.random() < p)
        if edges:
            yield WeightedGraph(n, edges, (1,) * n), 700 + run


# ---- the cases the corpus must reach ---------------------------------------

def _side(S, t: LevelTrace) -> frozenset[int]:
    """The level's own side: its vertices on the same side of S as its L."""
    V = t.L | t.R | t.Z
    anchor_in_S = next(iter(t.L)) in S if t.L else next(iter(t.R)) not in S
    return frozenset(v for v in V if (v in S) == anchor_in_S)


def _cases(G: WeightedGraph, res: CutResult) -> set[str]:
    """The branches of the recursion that a result went through, read off its
    trace: each level's Z splits into the vertices with an edge inside Z and
    the isolated rest, and the next level runs on the former."""
    found = set()
    for depth, t in enumerate(res.trace):
        if not t.Z:
            continue
        touched = {x for u, v, _ in G.edges if u in t.Z and v in t.Z for x in (u, v)}
        isolated = t.Z - touched
        if not touched:
            found.add("Z all isolated")
        elif isolated:
            found.add("Z mixed")
        local = {v: i for i, v in enumerate(sorted(t.L | t.R | t.Z))}
        if any(local[v] % 2 != v % 2 for v in isolated):
            found.add("parity differs")
        deeper = _side(res.S, res.trace[depth + 1]) if touched else frozenset()
        left = {v for v in isolated if v % 2 == 0} | deeper
        chosen = _side(res.S, t) & t.Z
        assert chosen in (left, t.Z - left)
        if chosen != left:
            found.add("second orientation")
    return found


REQUIRED = {"Z all isolated", "Z mixed", "parity differs", "second orientation"}


def _assert_same(G, seed):
    params = GameParams(seed=seed)
    got = maxcut.recursive_bipart(G, params)
    want = ref_recursive_bipart(G, params)
    assert got.S == want.S
    assert got.value == want.value == cut_value(G, got.S)
    assert got.trace == want.trace
    return want


def test_recursion_matches_reference_on_the_solver():
    seen = set()
    for G, seed in _solver_corpus():
        seen |= _cases(G, _assert_same(G, seed))
    # The real sweep must get past one level, or it checks no merge at all.
    assert "second orientation" in seen and "parity differs" in seen


@pytest.mark.parametrize("stub", [first_edge_witness, random_witness])
def test_recursion_matches_reference_on_stub_sweeps(monkeypatch, stub):
    monkeypatch.setattr(maxcut, "approx_bipartiteness", stub)
    monkeypatch.setattr(sys.modules[__name__], "approx_bipartiteness", stub)
    seen = set()
    deepest = 0
    for G, seed in _stub_corpus():
        res = _assert_same(G, seed)
        seen |= _cases(G, res)
        deepest = max(deepest, len(res.trace))
    assert seen == REQUIRED
    assert deepest >= 3
