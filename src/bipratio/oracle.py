"""Brute-force ground truth for desk-scale instances.

Every theorem-level test checks the fast machinery against one of these
oracles: the bipartiteness ratio minimized over all 3^n - 1 sign vectors,
max cut over 2^(n-1) bipartitions, and well-linkedness over the symmetric
selection pairs (one max-flow each).  The ratio search also yields the
one-sided ratio, which decides whether every one-sided selection (L, empty)
saturates; the ratio sweep reads it on desk-scale graphs.  Each answer is
the first optimum, or the first violating pair, in a fixed ternary (or
binary) counter order.
The ratio and cut searches meet in the middle: as an edge term is bilinear
in its endpoints' values, an edge sum is a vector over each vertex half's
table plus an integer matrix product, formed a block of most significant
rows at a time in row-major order (counter order) in O(3^(n/2)) memory.
Each block is one product, the half sums folded in as two extra columns.
Arithmetic: that product is a float64 BLAS product when max row-L1 of the
left table times max |entry| of the right one is below 2^53, so every
partial sum is an integer float64 holds exactly; otherwise it is numpy's
integer product in int64, or in Python ints once a sum may pass int64.
Ratios are compared by integer cross-multiplication, in int64 while every
numerator times every denominator fits, else in Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import islice, product
from typing import Iterator

import numpy as np

from .errors import EmptyGraphError, TooLargeError
from .flow import build_network, is_saturating, max_flow
from .graph import Ratio, SignVector, WeightedGraph, build_auxiliary_graph

# Entries per block (at least one row).  Each of a block's few temporaries
# takes about 0.5 MB and stays in cache; smaller blocks pay more per-block
# overhead at n = 15-16, larger ones run out of cache.
_BLOCK = 3**10
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


def _product_bound(A, B) -> int:
    """max row-L1(A) * max |B|, exactly: no partial sum of A @ B.T is larger."""
    # An int64 table's row holds one half sum below 2^63 plus a few entries
    # of at most 1, so its uint64 row sums cannot wrap.
    l1 = np.abs(A).sum(axis=1, dtype=None if A.dtype == object else np.uint64)
    return int(l1.max()) * int(np.abs(B).max())


def _block_sums(P, s_hi, Q, s_lo, dtype, ints: bool):
    """block(r) = s_hi[r, None] + s_lo + P[r] @ Q.T over integer tables,
    exactly, as the one product of A = [P | s_hi | 1] and B = [Q | 1 | s_lo].

    The route is decided once, from the tables: when max row-L1(A) times
    max |B| is below 2^53, every product and partial sum is an integer
    below 2^53, which float64 holds exactly in any summation order, so a
    BLAS product serves; its block is float64, or with ``ints`` converted
    through int64 to ``dtype`` (an object block holds Python ints).
    Otherwise the block is numpy's own product in ``dtype``, which has no
    BLAS kernel.
    """
    A = np.column_stack([P, s_hi, np.ones(len(P), dtype)]).astype(dtype)
    B = np.column_stack([Q, np.ones(len(Q), dtype), s_lo]).astype(dtype)
    if _product_bound(A, B) >= 2**53:
        Bt = B.T
        return lambda r: A[r] @ Bt
    A, Bt = A.astype(np.float64), B.T.astype(np.float64)
    if not ints:
        return lambda r: A[r] @ Bt
    return lambda r: (A[r] @ Bt).astype(np.int64).astype(dtype, copy=False)


def _checked_weights(graph, b) -> list[int]:
    """``b`` as n Python ints >= 1, or the graph's own weights when None.

    Raises ValueError for any other ``b``, and for a graph without weights
    of its own (a DemandMultigraph) when ``b`` is None.
    """
    if b is None:
        if not isinstance(graph, WeightedGraph):
            raise ValueError(f"a {type(graph).__name__} has no vertex weights; pass b")
        return list(graph.b)
    try:
        given = tuple(b)
        ints = [int(x) for x in given]
    except (TypeError, ValueError):
        given = ints = None
    if ints is None or len(ints) != graph.n or any(i != x or i < 1 for i, x in zip(ints, given)):
        raise ValueError(f"b must hold {graph.n} integers >= 1, got {b!r}")
    return ints


def brute_beta(graph, b=None) -> tuple[Ratio, SignVector]:
    """Exact minimum bipartiteness ratio and its first minimizer.

    ``graph`` may be a WeightedGraph or a DemandMultigraph (self-loops
    contribute |2 x_i|); n <= 16.  Vectors run in ternary counter order
    (digits 0, 1, 2 as 0, +1, -1; vertex 0 most significant), those whose
    first nonzero entry is -1 skipped (x ~ -x), and one replaces the best
    only when strictly smaller, by integer cross-multiplication: in int64
    while a numerator (at most 2 w(E), and at least 1 in the bound) times a
    denominator (at most b(V)) fits, else in Python ints.  The high half
    is vertices [0, n/2); an edge between the halves adds
    x_u x_v + |x_u| (1 - |x_v|) + |x_v|.  Each block's numerators are one
    product: float64 BLAS while max row-L1 times max entry of its tables is
    below 2^53, else int64 or Python ints; a float block is converted
    through int64, never through Python floats, before it is compared.

    ``b`` defaults to a WeightedGraph's own weights; ValueError unless it
    holds n integers >= 1, or when a DemandMultigraph comes without it.
    """
    return _brute_ratio(graph, b, one_sided=False)


def brute_beta_one_sided(graph) -> tuple[Ratio, SignVector]:
    """Exact one-sided ratio beta_1 and its first minimizer, under the
    graph's own vertex weights (pass ``G.with_b(b)`` for others).

    beta_1 = min over x != 0 of sum_e w |x_u + x_v| / max(b(P_x), b(N_x)),
    with P_x and N_x the +1 and -1 supports of x: the search of
    ``brute_beta``, same order, tables, numerators and arithmetic, with
    the larger support's weight as the denominator.  The selection
    network (L, empty) at ratio 1/k has consistent cut value
    b(L) - sum_{i in L} b_i x_i + k sum_e w |x_u + x_v| at x, so every
    one-sided selection saturates exactly when k * beta_1 >= 1.  As
    max(b(P), b(N)) lies between b(P ∪ N) / 2 and b(P ∪ N),
    beta <= beta_1 <= 2 beta.
    """
    return _brute_ratio(graph, None, one_sided=True)


def _brute_ratio(graph, b, one_sided: bool) -> tuple[Ratio, SignVector]:
    if (n := graph.n) > 16:
        raise TooLargeError(f"brute_beta enumerates 3^n vectors; n = {n} > 16")
    b_list = _checked_weights(graph, b)
    # The denominators alone reach b(V), which must fit even with no edges.
    dtype = _sum_dtype(max(2 * sum(w for _, _, w in graph.weighted_edges()), 1) * sum(b_list))
    b_arr, h = np.asarray(b_list, dtype=dtype), n // 2
    hi, lo = _table(h, _SIGNS), _table(n - h, _SIGNS)
    (num_hi, num_lo), W = _half_sums(graph.weighted_edges(), (hi, lo),
                                     lambda s, t: np.abs(s + t), dtype)
    num_lo += np.abs(lo).astype(dtype) @ W.sum(axis=0)
    Q = np.concatenate([lo.astype(dtype) @ W.T, (1 - np.abs(lo)).astype(dtype) @ W.T], axis=1)
    block = _block_sums(np.concatenate([hi, np.abs(hi)], axis=1), num_hi, Q, num_lo, dtype,
                        ints=True)
    # Each support's weight as a sum of its two halves' weights: b(P ∪ N),
    # or b(P) and b(N) when one-sided, whose larger one is the denominator.
    supports = (lambda t: t == 1, lambda t: t == -1) if one_sided else (np.abs,)
    dens = [(s(hi).astype(dtype) @ b_arr[:h], s(lo).astype(dtype) @ b_arr[h:])
            for s in supports]
    # Rows [3^j, 2 * 3^j) of a table start with +1.  The zero high row runs
    # with every low row: there -x ties with x, which comes first.
    rows = np.concatenate([[0], *(np.arange(3**j, 2 * 3**j) for j in range(h))])
    step = max(1, _BLOCK // len(lo))
    best_num, best = int(num_lo[1]), (0, 1)  # x = (0, ..., 0, 1)
    best_den = max(int(d_hi[0] + d_lo[1]) for d_hi, d_lo in dens)
    for start in range(0, len(rows), step):
        r = rows[start:start + step]
        num = block(r).ravel()
        den = reduce(np.maximum, [d_hi[r, None] + d_lo for d_hi, d_lo in dens]).ravel()
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
    an edge between the halves adds y_u (1 - y_v) + (1 - y_u) y_v.  Each
    block's cut weights are one product: float64 BLAS while max row-L1
    times max entry of its tables is below 2^53 (its argmax read on the
    exact float block), else int64 or Python ints.
    """
    if (n := G.n) > 20:
        raise TooLargeError(f"brute_maxcut enumerates 2^(n-1) sides; n = {n} > 20")
    if (total := G.total_weight) == 0:
        raise EmptyGraphError("max cut of an edgeless graph is undefined")
    dtype, h = _sum_dtype(total), (n - 1) // 2
    lo, hi = _table(h, (0, 1))[:, ::-1], _table(n - h, (0, 1))[:2 ** (n - 1 - h), ::-1]
    (cut_lo, cut_hi), W = _half_sums(G.weighted_edges(), (lo, hi), np.not_equal, dtype)
    Q = np.concatenate([lo.astype(dtype) @ W, (1 - lo).astype(dtype) @ W], axis=1)
    block = _block_sums(np.concatenate([1 - hi, hi], axis=1), cut_hi, Q, cut_lo, dtype,
                        ints=False)
    best_w, best_mask, step = -1, 0, max(1, _BLOCK // len(lo))
    for start in range(0, len(hi), step):
        cut = block(slice(start, start + step))
        idx = int(np.argmax(cut))
        if int(cut.flat[idx]) > best_w:
            best_w, best_mask = int(cut.flat[idx]), start * len(lo) + idx
    return Fraction(best_w, total), frozenset(i for i in range(n) if (best_mask >> i) & 1)


def _half_pairs(n: int):
    """Each half's table rows as (L, R, first nonzero sign, or 0), with
    vertex offsets: the high half [0, n/2), then the low half."""
    h = n // 2
    return [[(frozenset(o + i for i, s in enumerate(row) if s == 1),
              frozenset(o + i for i, s in enumerate(row) if s == -1),
              next((s for s in row if s), 0))
             for row in _table(k, _SIGNS).tolist()] for o, k in ((0, h), (h, n - h))]


def iter_symmetric_pairs(n: int) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """All 3^n - 1 pairs of disjoint (L, R) with nonempty union, in the
    ternary counter order of ``brute_beta`` (+1 puts a vertex in L, -1 in R),
    each joining a row of the high half's table to one of the low half's."""
    return ((a | c, b | d) for (a, b, _), (c, d, _) in islice(product(*_half_pairs(n)), 1, None))


def brute_well_linked(G: WeightedGraph, k: int = 1):
    """Exhaustive well-linkedness of the doubled graph at ratio 1/k, under
    G's own vertex weights (pass ``G.with_b(b)`` for others).

    Returns (linked, violating_pair): violating_pair is the first (L, R) in
    counter order whose maximum flow falls short of saturating, or None.
    Only pairs whose smallest selected vertex lies in L (first nonzero digit
    +1) are built and solved: swapping plus and minus copies maps the
    network of (L, R) onto that of (R, L), and the solved pair of the two
    comes first.  Limited to n <= 7.
    """
    if G.n > 7:
        raise TooLargeError(f"brute_well_linked runs 3^n max-flows; n = {G.n} > 7")
    # One network for every pair; the initial selection is a placeholder.
    net = build_network(build_auxiliary_graph(G), range(G.n), (), k)
    high, low = _half_pairs(G.n)
    for a, b, s in high:
        for c, d, t in low:
            if (s or t) == 1:  # the high row's sign leads unless it is zero
                net.select(a | c, b | d)
                if not is_saturating(max_flow(net)):
                    return False, (a | c, b | d)
    return True, None
