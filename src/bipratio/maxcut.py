"""Recursive max-cut on top of the ratio solver.

Each level runs the ratio sweep with degree vertex weights, commits the
witness tripartition (L, R, Z), recurses on the subgraph induced by Z, and
merges the recursive bipartition in whichever of the two orientations cuts
more weight.  Uncut weight committed at a level is tied exactly to the
witness ratio: internal(L) + internal(R) + boundary/2 equals
beta(x) * vol(L u R) / 2, and the better orientation never leaves more than
half the boundary uncut.  Both identities are asserted on every run.

A perfectly bipartite input therefore ends with value exactly 1: every
witness has ratio zero, so no level commits any uncut weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import EmptyGraphError
from .game import GameParams, SweepResult, approx_bipartiteness
from .graph import Ratio, WeightedGraph, tripartition


def cut_value(G: WeightedGraph, S: Iterable[int]) -> Ratio:
    """Exact cut fraction w(E(S, complement)) / w(E)."""
    total = G.total_weight
    if total == 0:
        raise EmptyGraphError("cut value of an edgeless graph is undefined")
    S = frozenset(S)
    crossing = sum(w for u, v, w in G.edges if (u in S) != (v in S))
    return Fraction(crossing, total)


@dataclass(frozen=True)
class InducedSubgraph:
    """Subgraph on Z with degree weights; zero-degree vertices set aside.

    ``ids`` maps subgraph indices back to the parent graph; ``isolated``
    lists parent vertices of Z that have no incident edge inside Z (their
    degree weight would be zero, and they touch no cut edge anyway).
    ``graph`` is None when every vertex of Z is isolated.
    """

    graph: WeightedGraph | None
    ids: tuple[int, ...]
    isolated: tuple[int, ...]


def induced_subgraph(G: WeightedGraph, Z: Iterable[int]) -> InducedSubgraph:
    """Restrict G to Z, reindex densely, and recompute degree weights."""
    Z = sorted(set(Z))
    zset = frozenset(Z)
    touched = set()
    sub_edges = []
    for u, v, w in G.edges:
        if u in zset and v in zset:
            sub_edges.append((u, v, w))
            touched.add(u)
            touched.add(v)
    kept = [i for i in Z if i in touched]
    isolated = tuple(i for i in Z if i not in touched)
    if not kept:
        return InducedSubgraph(None, (), isolated)
    index = {orig: new for new, orig in enumerate(kept)}
    edges = tuple((index[u], index[v], w) for u, v, w in sub_edges)
    return InducedSubgraph(WeightedGraph(len(kept), edges), tuple(kept), isolated)


@dataclass(frozen=True)
class LevelTrace:
    """Per-level accounting of one recursion step (parent-graph vertex ids)."""

    L: frozenset[int]
    R: frozenset[int]
    Z: frozenset[int]
    beta: Ratio
    internal_weight: int
    boundary_weight: int
    volume: int
    uncut: Fraction


@dataclass(frozen=True)
class CutResult:
    """A bipartition side, its exact cut fraction, and the recursion trace."""

    S: frozenset[int]
    value: Ratio
    trace: tuple[LevelTrace, ...]


def _split_isolated(vertices: Sequence[int]) -> tuple[set[int], set[int]]:
    # Isolated vertices touch no edge; place them deterministically by parity.
    left = {v for v in vertices if v % 2 == 0}
    right = {v for v in vertices if v % 2 == 1}
    return left, right


def _bipartition_cut_weight(G: WeightedGraph, left: frozenset[int]) -> int:
    return sum(w for u, v, w in G.edges if (u in left) != (v in left))


def recursive_bipart(G: WeightedGraph, params: GameParams | None = None) -> CutResult:
    """Recursive bipartitioning max cut.  Needs at least one edge.

    Solves with degree vertex weights regardless of the graph's own weights
    (the cut objective does not involve them); isolated input vertices touch
    no edge and are placed by parity, like zero-degree vertices deeper in
    the recursion.  The seed is ``params.seed`` (default GameParams()).
    """
    if G.total_weight == 0:
        raise EmptyGraphError("max cut of an edgeless graph is undefined")
    params = params or GameParams()
    top = induced_subgraph(G, range(G.n))
    iso_left, _ = _split_isolated(top.isolated)
    L, _, trace = _solve_level(top.graph, top.ids, 0, params, top.graph.n)
    L = set(L) | iso_left
    value = cut_value(G, L)
    return CutResult(frozenset(L), value, tuple(trace))


def _solve_level(G: WeightedGraph, ids: tuple[int, ...], level: int,
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
        uncut = Fraction(G.total_weight - _bipartition_cut_weight(G, frozenset(L_loc)))
        trace = LevelTrace(frozenset(L), frozenset(R), frozenset(), res.beta,
                           w_internal, w_boundary, vol, uncut)
        return L, R, [trace]
    sub = induced_subgraph(G, Z_loc)
    iso_left, iso_right = _split_isolated(tuple(ids[i] for i in sub.isolated))
    if sub.graph is None:
        L2, R2 = iso_left, iso_right
        sub_trace: list[LevelTrace] = []
        sub_uncut = Fraction(0)
    else:
        sub_ids = tuple(ids[i] for i in sub.ids)
        L2, R2, sub_trace = _solve_level(sub.graph, sub_ids, level + 1, params, n_top)
        L2 = L2 | iso_left
        R2 = R2 | iso_right
        sub_uncut = sub_trace[0].uncut
    cand_a = L | L2
    cand_b = L | R2
    zmap = frozenset(ids[i] for i in Z_loc)
    wa = _bipartition_cut_weight_from(G, ids, cand_a)
    wb = _bipartition_cut_weight_from(G, ids, cand_b)
    chosen = cand_a if wa >= wb else cand_b
    chosen_other = (R | R2) if wa >= wb else (R | L2)
    uncut = Fraction(G.total_weight - max(wa, wb))
    bound = w_internal + Fraction(w_boundary, 2) + sub_uncut
    if uncut > bound:
        raise AssertionError("level accounting identity violated")
    trace = LevelTrace(frozenset(L), frozenset(R), zmap, res.beta,
                       w_internal, w_boundary, vol, uncut)
    return set(chosen), set(chosen_other), [trace] + sub_trace


def _bipartition_cut_weight_from(G: WeightedGraph, ids: tuple[int, ...],
                                 left_orig: set[int]) -> int:
    left_local = frozenset(i for i, orig in enumerate(ids) if orig in left_orig)
    return _bipartition_cut_weight(G, left_local)
