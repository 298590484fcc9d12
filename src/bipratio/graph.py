"""Graph model: weighted multigraphs, sign vectors, and the doubled graph.

The central quantity is the vertex-weighted bipartiteness ratio of a sign
vector x in {-1, 0, +1}^V:

    beta_b(x) = sum_e w(e) * |x_u + x_v|  /  sum_i b(i) * |x_i|

It is zero exactly when the support of x induces a subgraph that x cuts
perfectly and that has no edge to the rest.  Everything in this module is
exact: weights are positive integers and ratios are `fractions.Fraction`
values, so comparisons never go through floating point.

The doubled graph places a "plus" and a "minus" copy of every vertex and
replaces each edge (u, v) by the pair (u+, v-) and (v+, u-).  For disjoint
L, R the set S made of the plus copies of L and the minus copies of R cuts
the doubled graph with ratio w(cut edges) / b(S) equal to beta_b of the sign
vector of (L, R); `aux_cut_ratio` computes that side of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import EmptySelectionError, ZeroVectorError

#: A sign vector is a plain tuple of n values in {-1, 0, +1}.
SignVector = tuple[int, ...]

#: Exact nonnegative rational; all cut ratios in this package use it.
Ratio = Fraction


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected multigraph with positive integer edge and vertex weights.

    Vertices are the indices 0..n-1.  Parallel edges are kept as distinct
    entries; self-loops are rejected.  The vertex weight vector ``b``
    defaults to the weighted degree, in which case a graph with an isolated
    vertex has no valid default and must be given explicit weights.
    Endpoints and weights may be ints, numpy integers or integral floats
    such as 2.0; a value that ``int`` would truncate raises ValueError.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    b: tuple[int, ...] | None = None
    deg: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        edges = []
        deg = [0] * self.n
        for x, y, z in self.edges:
            u, v, w = int(x), int(y), int(z)
            if u != x or v != y or w != z:  # int() truncates 2.5 and 0.9
                raise ValueError(f"edge ({x}, {y}, {z}) must hold integers")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} not allowed")
            if w < 1:
                raise ValueError(f"edge weight must be a positive integer, got {w}")
            edges.append((u, v, w))
            deg[u] += w
            deg[v] += w
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "deg", tuple(deg))
        if self.b is None:
            if min(deg, default=1) == 0:
                raise ValueError(
                    "default vertex weights are degrees, but an isolated vertex "
                    "has degree 0; pass explicit vertex weights"
                )
            object.__setattr__(self, "b", tuple(deg))
        else:
            given = tuple(self.b)
            b = tuple(int(x) for x in given)
            if b != given:
                raise ValueError(f"vertex weights must be integers, got {given!r}")
            if len(b) != self.n:
                raise ValueError(f"need {self.n} vertex weights, got {len(b)}")
            if min(b) < 1:
                raise ValueError("vertex weights must be positive integers")
            object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)

    def total_b(self) -> int:
        return sum(self.b)

    def weighted_edges(self) -> Iterator[tuple[int, int, int]]:
        """Iterate over (u, v, w) triples; shared interface with demand graphs."""
        return iter(self.edges)

    def with_b(self, b: Sequence[int]) -> "WeightedGraph":
        return WeightedGraph(self.n, self.edges, tuple(b))


def tripartition(x: Sequence[int]) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Split vertex indices into (L, R, Z) by the sign of their entry.

    L holds the +1 entries, R the -1 entries, Z the zeros.  Inverse of
    `sign_vector`.
    """
    L, R, Z = [], [], []
    for i, xi in enumerate(x):
        if xi == 1:
            L.append(i)
        elif xi == -1:
            R.append(i)
        elif xi == 0:
            Z.append(i)
        else:
            raise ValueError(f"sign vector entries must be -1, 0 or +1, got {xi}")
    return frozenset(L), frozenset(R), frozenset(Z)


def sign_vector(n: int, L: Iterable[int], R: Iterable[int]) -> SignVector:
    """Build the sign vector with +1 on L, -1 on R and 0 elsewhere."""
    x = [0] * n
    for i in L:
        x[i] = 1
    for i in R:
        if x[i] != 0:
            raise ValueError(f"vertex {i} appears in both L and R")
        x[i] = -1
    return tuple(x)


def evaluate_beta(G: WeightedGraph, x: Sequence[int]) -> Ratio:
    """Exact bipartiteness ratio of a nonzero sign vector under G's own
    vertex weights.  Raises ZeroVectorError on the all-zero vector.
    """
    if len(x) != G.n:
        raise ValueError(f"sign vector length {len(x)} != vertex count {G.n}")
    den = 0
    for bi, xi in zip(G.b, x):
        if xi not in (-1, 0, 1):
            raise ValueError(f"sign vector entries must be -1, 0 or +1, got {xi}")
        den += bi * abs(xi)
    if den == 0:
        raise ZeroVectorError("bipartiteness ratio of the zero vector is undefined")
    num = 0
    for u, v, w in G.edges:
        num += w * abs(x[u] + x[v])
    return Fraction(num, den)


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Doubled bipartite graph on plus/minus copies of the base vertices.

    Node ids: the plus copy of base vertex i is i, the minus copy is n + i.
    Each base edge (u, v, w) with index e contributes the two records
    (u+, v-, w, e) and (v+, u-, w, e), stored in that order, so record
    2*e + c is copy c of edge e.  The graph is bipartite between the plus
    and minus sides and invariant under swapping the two sides.
    """

    base: WeightedGraph
    aux_edges: tuple[tuple[int, int, int, int], ...]

    @property
    def n_aux(self) -> int:
        return 2 * self.base.n


def build_auxiliary_graph(G: WeightedGraph) -> AuxiliaryGraph:
    """Construct the doubled graph of G (2m records, weights inherited)."""
    n = G.n
    aux_edges = []
    for e, (u, v, w) in enumerate(G.edges):
        aux_edges.append((u, n + v, w, e))
        aux_edges.append((v, n + u, w, e))
    return AuxiliaryGraph(G, tuple(aux_edges))


def aux_cut_ratio(aux: AuxiliaryGraph, L: Iterable[int], R: Iterable[int]) -> Ratio:
    """Cut ratio w(cut) / b(S) of S = plus copies of L, minus copies of R.

    Equals evaluate_beta of the sign vector of (L, R); that identity is the
    reason the doubled graph exists and is what the test-suite fuzzes.
    """
    L = frozenset(L)
    R = frozenset(R)
    if L & R:
        raise ValueError("L and R must be disjoint")
    if not (L or R):
        raise EmptySelectionError("L and R are both empty")
    n = aux.base.n
    S = {i for i in L} | {n + i for i in R}
    num = 0
    for a, bnode, w, _ in aux.aux_edges:
        if (a in S) != (bnode in S):
            num += w
    den = sum(aux.base.b[i] for i in L) + sum(aux.base.b[i] for i in R)
    return Fraction(num, den)
