"""Brute-force ground truth for desk-scale instances.

Every theorem-level test checks the fast machinery against one of these
oracles: the bipartiteness ratio minimized over all 3^n - 1 sign vectors,
max cut over 2^(n-1) bipartitions, and well-linkedness over the symmetric
selection pairs (one max-flow each).  Each answer is the first optimum, or
the first violating pair, in a fixed ternary (or binary) counter order.
The ratio and cut searches meet in the middle: as an edge term is bilinear
in its endpoints' values, an edge sum is a vector over each vertex half's
table plus an integer matrix product, formed a block of most significant
rows at a time in row-major order (counter order) in O(3^(n/2)) memory.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
from typing import Iterator

import numpy as np

from .errors import EmptyGraphError, TooLargeError
from .flow import build_network, is_saturating, max_flow
from .graph import Ratio, SignVector, WeightedGraph, build_auxiliary_graph

_BLOCK = 3**11
_SIGNS = (0, 1, -1)  # ternary digits 0, 1, 2 as signs


def _table(k: int, digits) -> np.ndarray:
    """Every k-tuple over ``digits`` as an int8 row, row r spelling the code
    r in counter order (column 0 the most significant digit)."""
    d = np.asarray(digits, dtype=np.int8)
    table = np.empty((len(d),) * k + (k,), dtype=np.int8)
    for i in range(k):
        table[..., i] = d.reshape((-1,) + (1,) * (k - 1 - i))
    return table.reshape(len(d) ** k, k)


def _half_sums(edges, tables, term, dtype):
    """Per-row sums of w * term(x_u, x_v) over the edges inside each half,
    and the weights W[u, v - h] of the edges from [0, h) to [h, n)."""
    h = tables[0].shape[1]
    sums, W = [np.zeros(len(t), dtype) for t in tables], np.zeros((h, tables[1].shape[1]), dtype)
    for u, v, w in edges:
        u, v = min(u, v), max(u, v)
        if u < h <= v:
            W[u, v - h] += w
        else:
            s = int(u >= h)
            sums[s] += w * term(tables[s][:, u - s * h], tables[s][:, v - s * h]).astype(dtype)
    return sums, W


def _sum_dtype(bound: int):
    """int64 when every sum and product stays within ``bound``, else exact
    Python ints (numpy object arrays), since int64 wraps silently."""
    return np.int64 if bound < 2**63 else object


def brute_beta(graph, b=None) -> tuple[Ratio, SignVector]:
    """Exact minimum bipartiteness ratio and its first minimizer.

    ``graph`` may be a WeightedGraph or a DemandMultigraph (self-loops
    contribute |2 x_i|); n <= 16.  Vectors run in ternary counter order
    (digits 0, 1, 2 as 0, +1, -1; vertex 0 most significant), those whose
    first nonzero entry is -1 skipped (x ~ -x), and one replaces the best
    only when strictly smaller, by integer cross-multiplication: in int64
    while a numerator (at most 2 w(E), and at least 1 in the bound) times a
    denominator (at most b(V)) fits, else in Python ints.  The high half is vertices [0, n/2); an edge
    between the halves adds x_u x_v + |x_u| (1 - |x_v|) + |x_v|.
    """
    if (n := graph.n) > 16:
        raise TooLargeError(f"brute_beta enumerates 3^n vectors; n = {n} > 16")
    b_list = [int(x) for x in (graph.b if b is None else b)]
    # The denominators alone reach b(V), which must fit even with no edges.
    dtype = _sum_dtype(max(2 * sum(w for _, _, w in graph.weighted_edges()), 1) * sum(b_list))
    b_arr, h = np.asarray(b_list, dtype=dtype), n // 2
    hi, lo = _table(h, _SIGNS), _table(n - h, _SIGNS)
    (num_hi, num_lo), W = _half_sums(graph.weighted_edges(), (hi, lo),
                                     lambda s, t: np.abs(s + t), dtype)
    num_lo += np.abs(lo).astype(dtype) @ W.sum(axis=0)
    P = np.concatenate([hi, np.abs(hi)], axis=1).astype(dtype)
    Q = np.concatenate([lo.astype(dtype) @ W.T, (1 - np.abs(lo)).astype(dtype) @ W.T], axis=1)
    den_hi, den_lo = np.abs(hi).astype(dtype) @ b_arr[:h], np.abs(lo).astype(dtype) @ b_arr[h:]
    # Rows [3^j, 2 * 3^j) of a table start with +1.  The zero high row runs
    # with every low row: there -x ties with x, which comes first.
    rows = np.concatenate([[0], *(np.arange(3**j, 2 * 3**j) for j in range(h))])
    step = max(1, _BLOCK // len(lo))
    best_num, best_den, best = int(num_lo[1]), int(den_lo[1]), (0, 1)  # x = (0, ..., 0, 1)
    for start in range(0, len(rows), step):
        r = rows[start:start + step]
        num = ((num_hi[r, None] + num_lo) + P[r] @ Q.T).ravel()
        den = (den_hi[r, None] + den_lo).ravel()
        better = np.flatnonzero(num * best_den < best_num * den)
        while len(better):  # each pass takes the next strict improvement
            best_num, best_den = int(num[better[0]]), int(den[better[0]])
            best = (r[better[0] // len(lo)], better[0] % len(lo))
            better = better[num[better] * best_den < best_num * den[better]]
    x = np.concatenate([hi[best[0]], lo[best[1]]])
    return Fraction(best_num, best_den), tuple(int(s) for s in x)


def brute_maxcut(G: WeightedGraph) -> tuple[Ratio, frozenset[int]]:
    """Exact maximum cut fraction and its first maximizing side.

    Mask s puts vertex i in the side when bit i is set; vertex n-1 is pinned
    out, and masks 0..2^(n-1)-1 are scanned in order, one replacing the best
    only when its cut is strictly larger.  The low bits are vertices [0, h);
    an edge between the halves adds y_u (1 - y_v) + (1 - y_u) y_v.
    """
    if (n := G.n) > 20:
        raise TooLargeError(f"brute_maxcut enumerates 2^(n-1) sides; n = {n} > 20")
    if (total := G.total_weight) == 0:
        raise EmptyGraphError("max cut of an edgeless graph is undefined")
    dtype, h = _sum_dtype(total), (n - 1) // 2
    lo, hi = _table(h, (0, 1))[:, ::-1], _table(n - h, (0, 1))[:2 ** (n - 1 - h), ::-1]
    (cut_lo, cut_hi), W = _half_sums(G.weighted_edges(), (lo, hi), np.not_equal, dtype)
    P = np.concatenate([1 - hi, hi], axis=1).astype(dtype)
    Q = np.concatenate([lo.astype(dtype) @ W, (1 - lo).astype(dtype) @ W], axis=1)
    best_w, best_mask, step = -1, 0, max(1, _BLOCK // len(lo))
    for start in range(0, len(hi), step):
        cut = (cut_hi[start:start + step, None] + cut_lo) + P[start:start + step] @ Q.T
        idx = int(np.argmax(cut))
        if int(cut.flat[idx]) > best_w:
            best_w, best_mask = int(cut.flat[idx]), start * len(lo) + idx
    return Fraction(best_w, total), frozenset(i for i in range(n) if (best_mask >> i) & 1)


def iter_symmetric_pairs(n: int) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """All 3^n - 1 pairs of disjoint (L, R) with nonempty union, in the
    ternary counter order of ``brute_beta`` (+1 puts a vertex in L, -1 in R),
    each joining a row of the high half's table to one of the low half's."""
    h = n // 2
    halves = [[(frozenset(o + i for i, s in enumerate(row) if s == 1),
                frozenset(o + i for i, s in enumerate(row) if s == -1))
               for row in _table(k, _SIGNS).tolist()] for o, k in ((0, h), (h, n - h))]
    return ((a | c, b | d) for (a, b), (c, d) in islice(product(*halves), 1, None))


def brute_well_linked(G: WeightedGraph, k: int = 1):
    """Exhaustive well-linkedness of the doubled graph at ratio 1/k, under
    G's own vertex weights (pass ``G.with_b(b)`` for others).

    Returns (linked, violating_pair): violating_pair is the first (L, R) in
    counter order whose maximum flow falls short of saturating, or None.
    Only pairs whose smallest selected vertex lies in L are solved: swapping
    plus and minus copies maps the network of (L, R) onto that of (R, L),
    and the solved pair of the two comes first.  Limited to n <= 7.
    """
    if G.n > 7:
        raise TooLargeError(f"brute_well_linked runs 3^n max-flows; n = {G.n} > 7")
    # One network for every pair; the initial selection is a placeholder.
    net = build_network(build_auxiliary_graph(G), range(G.n), (), k)
    for L, R in iter_symmetric_pairs(G.n):
        if min(L | R) in L:
            net.select(L, R)
            if not is_saturating(max_flow(net)):
                return False, (L, R)
    return True, None
