"""Brute-force ground truth for desk-scale instances.

Every theorem-level test checks the fast machinery against one of these
oracles: the bipartiteness ratio minimized over all 3^n - 1 sign vectors,
max cut over 2^(n-1) bipartitions, and well-linkedness over the symmetric
selection pairs, read by max-flow/min-cut off the cut values of all 4^n
copy sets of the doubled graph (one max-flow then confirms a violating
pair).  The ratio search also yields the one-sided ratio, which decides
whether every one-sided selection (L, empty) saturates; the ratio sweep
reads it on desk-scale graphs.  Each answer is the first optimum, or the
first violating pair, in a fixed ternary (or binary) counter order.
The ratio and cut searches meet in the middle: as an edge term is bilinear
in its endpoints' values, an edge sum is a vector over each vertex half's
table plus an integer matrix product, formed a block of most significant
rows at a time in row-major order (counter order) in O(3^(n/2)) memory.
Each block is one product, the half sums folded in as two extra columns.
Each search chooses its arithmetic once, from a bound on every value it
forms, known before any table is built: below 2^53 its tables, blocks and
denominators are float64, whose integers are exact in any summation order,
so a block is one BLAS product; otherwise they are numpy object arrays of
Python ints.  Ratios are compared by cross-multiplication in Python ints;
in float64, a block's float ratios first pick out the few entries that can
be its least.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import islice, product
from typing import Iterator

import numpy as np

from .errors import EmptyGraphError, TooLargeError
from .flow import _checked_k, build_network, is_saturating, max_flow
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


def _exact_dtype(bound: int):
    """float64 when no partial sum a search forms passes ``bound`` < 2^53,
    so every sum is an exact integer in any order; else Python ints."""
    return np.float64 if bound < 2**53 else object


def _block_sums(P, s_hi, Q, s_lo, dtype):
    """block(r) = s_hi[r, None] + s_lo + P[r] @ Q.T, as the one product of
    A = [P | s_hi | 1] and B = [Q | 1 | s_lo] in ``dtype``: a BLAS product
    in float64, numpy's own product over Python ints in object arrays."""
    A = np.column_stack([P, s_hi, np.ones(len(P), dtype)]).astype(dtype)
    Bt = np.column_stack([Q, np.ones(len(Q), dtype), s_lo]).astype(dtype).T
    return lambda r: A[r] @ Bt


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
    only when strictly smaller, by integer cross-multiplication in Python
    ints.  The high half is vertices [0, n/2); an edge between the halves
    adds x_u x_v + |x_u| (1 - |x_v|) + |x_v|.  The tables, each block's
    numerators (one product) and the denominators are float64 while
    max(3 w(E), b(V)) is below 2^53, else Python ints.  In float64 the
    ratios num / den are within 2^-53 of the exact ones, and only the
    entries within 2^-48 of the block's least, which alone can be least,
    are compared exactly.  In Python ints, every entry below the best is.

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
    # No partial sum passes max(3 w(E), b(V)) in size: an edge within a
    # half adds at most 2 w to a numerator, one between the halves x_u x_v,
    # |x_u| (1 - |x_v|) and |x_v|, at most w each; a denominator is <= b(V).
    dtype = _exact_dtype(max(3 * sum(w for _, _, w in graph.weighted_edges()), sum(b_list)))
    b_arr, h = np.asarray(b_list, dtype=dtype), n // 2
    hi, lo = _table(h, _SIGNS), _table(n - h, _SIGNS)
    (num_hi, num_lo), W = _half_sums(graph.weighted_edges(), (hi, lo),
                                     lambda s, t: np.abs(s + t), dtype)
    num_lo += np.abs(lo).astype(dtype) @ W.sum(axis=0)
    Q = np.concatenate([lo.astype(dtype) @ W.T, (1 - np.abs(lo)).astype(dtype) @ W.T], axis=1)
    by_floats = dtype is np.float64  # float ratios narrow each block first
    block = _block_sums(np.concatenate([hi, np.abs(hi)], axis=1), num_hi, Q, num_lo, dtype)
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
        if by_floats:
            with np.errstate(invalid="ignore"):  # x = 0 is 0 / 0, which fmin skips
                q = num / den
            near = np.flatnonzero(q <= np.fmin.reduce(q) * (1 + 2**-48))
        else:
            near = np.flatnonzero(num * best_den < best_num * den)
        for i in near.tolist():
            if (v := int(num[i])) * best_den < best_num * (d := int(den[i])):
                best_num, best_den, best = v, d, (r[i // len(lo)], i % len(lo))
    x = np.concatenate([hi[best[0]], lo[best[1]]])
    return Fraction(best_num, best_den), tuple(int(s) for s in x)


def brute_maxcut(G: WeightedGraph) -> tuple[Ratio, frozenset[int]]:
    """Exact maximum cut fraction and its first maximizing side.

    Mask s puts vertex i in the side when bit i is set; vertex n-1 is pinned
    out, and masks 0..2^(n-1)-1 are scanned in order, one replacing the best
    only when its cut is strictly larger.  The low bits are vertices [0, h);
    an edge between the halves adds y_u (1 - y_v) + (1 - y_u) y_v.  The
    tables and each block's cut weights (one product) are float64 while
    2 w(E) is below 2^53, the argmax read on the exact float block, else
    Python ints.
    """
    if (n := G.n) > 20:
        raise TooLargeError(f"brute_maxcut enumerates 2^(n-1) sides; n = {n} > 20")
    if (total := G.total_weight) == 0:
        raise EmptyGraphError("max cut of an edgeless graph is undefined")
    # Every term is nonnegative, and an edge adds at most w to its half's
    # sum or to each of Q's two columns of its high end: no sum passes 2 w(E).
    dtype, h = _exact_dtype(2 * total), (n - 1) // 2
    lo, hi = _table(h, (0, 1))[:, ::-1], _table(n - h, (0, 1))[:2 ** (n - 1 - h), ::-1]
    (cut_lo, cut_hi), W = _half_sums(G.weighted_edges(), (lo, hi), np.not_equal, dtype)
    Q = np.concatenate([lo.astype(dtype) @ W, (1 - lo).astype(dtype) @ W], axis=1)
    block = _block_sums(np.concatenate([1 - hi, hi], axis=1), cut_hi, Q, cut_lo, dtype)
    best_w, best_mask, step = -1, 0, max(1, _BLOCK // len(lo))
    for start in range(0, len(hi), step):
        cut = block(slice(start, start + step))
        idx = int(np.argmax(cut))
        if int(cut.flat[idx]) > best_w:
            best_w, best_mask = int(cut.flat[idx]), start * len(lo) + idx
    return Fraction(best_w, total), frozenset(i for i in range(n) if (best_mask >> i) & 1)


def iter_symmetric_pairs(n: int) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """All 3^n - 1 pairs of disjoint (L, R) with nonempty union, in the
    ternary counter order of ``brute_beta`` (+1 puts a vertex in L, -1 in R)."""
    for x in islice(product(_SIGNS, repeat=n), 1, None):
        yield (frozenset(i for i, s in enumerate(x) if s == 1),
               frozenset(i for i, s in enumerate(x) if s == -1))


# A vertex's two copies against a copy set X as the digit [i+ in X] + 2 [i- in X],
# so that y_i = [i+ in X] - [i- in X] reads 0, +1, -1, 0.  An edge (u, v) of G
# becomes (u+, v-) and (v+, u-); it cuts [u+ in X] != [v- in X] plus the mirror.
_PLUS, _MINUS = np.arange(4) & 1, np.arange(4) >> 1
_CROSS = (_PLUS[:, None] != _MINUS).astype(np.int8)
_EDGE_CUT = _CROSS + _CROSS.T


def _cut_values(G: WeightedGraph, dtype) -> np.ndarray:
    """c(y) = min of cut_H(X) over the copy sets X of the doubled graph H with
    y(X) = y, for every y in {0, 1, -1}^n in ternary counter order."""
    n = G.n
    cut, edge_cut = np.zeros((4,) * n, dtype), _EDGE_CUT.astype(dtype)
    for u, v, w in G.weighted_edges():
        shape = [1] * n
        shape[u] = shape[v] = 4
        cut += w * edge_cut.reshape(shape)
    for i in range(n):  # vertex i's digits 0 and 3 both give y_i = 0
        c = cut.reshape(3**i, 4, -1)
        cut = np.concatenate([np.minimum(c[:, :1], c[:, 3:]), c[:, 1:3]], axis=1)
    return cut.ravel()


def brute_well_linked(G: WeightedGraph, k: int = 1):
    """Exhaustive well-linkedness of the doubled graph H at ratio 1/k, under
    G's own vertex weights (pass ``G.with_b(b)`` for others).

    Returns (linked, violating_pair): violating_pair is the first (L, R) in
    counter order whose maximum flow falls short of saturating, or None.
    No flow is needed to find it.  By max-flow/min-cut, the selection with
    sign vector x saturates iff no source-side set X of copies cuts less
    than b(A); X cuts b(A) - sum_i b_i x_i y_i + k cut_H(X), with
    y_i = [i+ in X] - [i- in X].  So with c(y) the least cut_H(X) over the
    X of pattern y, folded from all 4^n copy sets, x saturates iff
    (b∘x)·y <= k c(y) for every y, and G is linked iff
    sum_i b_i |y_i| <= k c(y) for every y.  Otherwise the x whose first
    nonzero entry is +1 are tested in counter order, a block at a time,
    against the violated y alone; (R, L) comes later than (L, R) and has
    the same maximum flow, as c(y) = c(-y).  The first violating pair is
    confirmed by one max-flow on its selection network: AssertionError if
    that flow saturates.

    A y with k c(y) >= b(V) is never violated and is dropped first.  The
    cut table and each block (one product) are float64 while
    2 max(w(E), b(V)) is below 2^53, else Python ints.  ValueError unless
    k is a positive integer; n <= 7.
    """
    if (n := G.n) > 7:
        raise TooLargeError(f"brute_well_linked enumerates 4^n copy sets; n = {n} > 7")
    k, b_V = _checked_k(k), sum(G.b)
    # A cut of H is at most 2 w(E), and every sum compared below is under
    # 2 b(V): |(b∘x)·y| <= b(V), and a kept y has k c(y) < b(V).
    dtype = _exact_dtype(2 * max(G.total_weight, b_V))
    c = _cut_values(G, dtype)
    # Only a y with k c(y) < b(V) can be violated; past b(V), k changes nothing.
    kk = min(k, b_V)
    kept = np.flatnonzero(c < -(-b_V // kk))
    b, Y = np.asarray(G.b, dtype), _table(n, _SIGNS)
    kc = kk * c[kept]
    over = np.abs(Y[kept]).astype(dtype) @ b > kc
    if not over.any():
        return True, None
    ys, kc = Y[kept[over]], kc[over]
    # Rows [3^j, 2 * 3^j) are the x whose first nonzero entry is +1.
    rows = np.concatenate([np.arange(3**j, 2 * 3**j) for j in range(n)])
    block = _block_sums(Y[rows].astype(dtype) * b, np.zeros(len(rows), dtype), ys, -kc, dtype)
    step = max(1, _BLOCK // len(ys))
    for start in range(0, len(rows), step):
        hit = np.flatnonzero((block(slice(start, start + step)) > 0).any(axis=1))
        if len(hit):
            break
    x = Y[rows[start + hit[0]]]
    L, R = (frozenset(np.flatnonzero(x == s).tolist()) for s in (1, -1))
    if is_saturating(max_flow(build_network(build_auxiliary_graph(G), L, R, k))):
        raise AssertionError(f"the selection ({sorted(L)}, {sorted(R)}) violates a cut "
                             "but its maximum flow saturates")
    return False, (L, R)
