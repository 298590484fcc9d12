"""Recursive max-cut on top of the ratio solver.

Each level runs the ratio sweep with degree vertex weights, commits the
witness tripartition (L, R, Z), recurses on the subgraph induced by Z, and
returns one side of its bipartition in its own graph's vertex ids; the other
side is the complement.  The side is L plus a left part of Z: the recursive
side, mapped back, and the vertices that Z leaves isolated whose top-level
id is even.  The level keeps that, or L plus the rest of Z if it cuts
strictly more weight.  Uncut weight committed at a level is tied exactly to
the witness ratio: internal(L) + internal(R) + boundary/2 equals
beta(x) * vol(L u R) / 2, and the better orientation never leaves more than
half the boundary uncut.  Both identities are asserted on every run.

A perfectly bipartite input therefore ends with value exactly 1: every
witness has ratio zero, so no level commits any uncut weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import EmptyGraphError
from .game import GameParams, approx_bipartiteness
from .graph import Ratio, WeightedGraph, tripartition


def cut_value(G: WeightedGraph, S: Iterable[int]) -> Ratio:
    """Exact cut fraction w(E(S, complement)) / w(E)."""
    total = G.total_weight
    if total == 0:
        raise EmptyGraphError("cut value of an edgeless graph is undefined")
    return Fraction(_cut_weight(G, frozenset(S)), total)


def _cut_weight(G: WeightedGraph, side: frozenset[int]) -> int:
    return sum(w for u, v, w in G.edges if (u in side) != (v in side))


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
    """Per-level accounting of one recursion step (top-level vertex ids)."""

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
    side, trace = _solve_level(top.graph, top.ids, 0, params, top.graph.n)
    S = frozenset(top.ids[i] for i in side).union(v for v in top.isolated if v % 2 == 0)
    return CutResult(S, cut_value(G, S), tuple(trace))


def _solve_level(G: WeightedGraph, ids: tuple[int, ...], level: int,
                 params: GameParams, n_top: int):
    """One recursion step on G, whose vertex i is top-level vertex ids[i].

    Returns one side of G's bipartition, in G's own ids (the other side is
    its complement), and the traces of this level and the deeper ones.
    ``ids`` only names the trace's sets and places the vertices that Z
    leaves isolated, by the parity of their top-level id.
    """
    # Every level removes at least one vertex of the top-level graph, so the
    # depth never exceeds that graph's vertex count.
    if level > n_top:
        raise AssertionError("recursion depth exceeded the vertex count")
    # Only the witness is read here: dropping the sweep frees its certificate
    # before the deeper levels run.
    res = approx_bipartiteness(G, params, seed_path=(params.seed, 2, level))
    x_best, beta = res.x_best, res.beta
    del res
    L, R, Z = tripartition(x_best)
    w_internal = sum(w for u, v, w in G.edges
                     if (u in L and v in L) or (u in R and v in R))
    w_boundary = sum(w for u, v, w in G.edges if (u in Z) != (v in Z))
    vol = sum(G.deg[i] for i in L | R)
    # The witness ratio ties down exactly what this level can leave uncut.
    if Fraction(2 * w_internal + w_boundary) != beta * vol:
        raise AssertionError("level accounting disagrees with the witness ratio")
    side, deeper, sub_uncut = L, [], Fraction(0)
    if Z:
        sub = induced_subgraph(G, Z)
        left = {i for i in sub.isolated if ids[i] % 2 == 0}
        if sub.graph is not None:
            sub_side, deeper = _solve_level(sub.graph, tuple(ids[i] for i in sub.ids),
                                            level + 1, params, n_top)
            left.update(sub.ids[j] for j in sub_side)
            sub_uncut = deeper[0].uncut
        first, second = L | left, L | (Z - left)
        side = second if _cut_weight(G, second) > _cut_weight(G, first) else first
    uncut = Fraction(G.total_weight - _cut_weight(G, side))
    if uncut > w_internal + Fraction(w_boundary, 2) + sub_uncut:
        raise AssertionError("level accounting identity violated")
    trace = LevelTrace(frozenset(ids[i] for i in L), frozenset(ids[i] for i in R),
                       frozenset(ids[i] for i in Z), beta,
                       w_internal, w_boundary, vol, uncut)
    return side, [trace] + deeper
