"""Brute-force ground truth for desk-scale instances.

Every theorem-level test in the suite checks the fast machinery against one
of these oracles: exhaustive minimization of the bipartiteness ratio over
all 3^n - 1 sign vectors, exhaustive max cut over 2^(n-1) bipartitions, and
exhaustive well-linkedness over every symmetric selection pair (one max-flow
each).  Enumeration follows a fixed ternary (or binary) counter so argmin
tie-breaking is reproducible; the sign-flip symmetry x ~ -x halves the ratio
search by keeping only vectors whose first nonzero entry is +1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import Iterator

import numpy as np

from .errors import EmptyGraphError, TooLargeError
from .flow import build_network, is_saturating, max_flow
from .graph import Ratio, SignVector, WeightedGraph, build_auxiliary_graph

_CHUNK = 3**11
_INT64_MAX = int(np.iinfo(np.int64).max)
_DIGIT_SIGN = np.array([0, 1, -1], dtype=np.int8)


def _sign_chunks(n: int) -> Iterator[np.ndarray]:
    """Yield int8 sign blocks, one row per nonzero ternary code, in order.

    Code digits are read most-significant-first as vertex 0..n-1 and map
    0 -> 0, 1 -> +1, 2 -> -1.  Each vertex's digit column is written straight
    into the int8 sign array, so no (rows x n) int64 array is formed.
    """
    total = 3**n
    for start in range(1, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        signs = np.empty((len(codes), n), dtype=np.int8)
        for j in range(n):
            signs[:, n - 1 - j] = _DIGIT_SIGN[(codes // 3**j) % 3]
        yield signs


def _edge_arrays(graph, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    us, vs, ws = [], [], []
    for u, v, w in graph.weighted_edges():
        us.append(u)
        vs.append(v)
        ws.append(w)
    return (np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64),
            np.asarray(ws, dtype=dtype))


def _sum_dtype(bound: int):
    """int64 when every sum and product stays within ``bound``, else exact
    Python ints (numpy object arrays), since int64 wraps silently."""
    return np.int64 if bound <= _INT64_MAX else object


def brute_beta(graph, b=None) -> tuple[Ratio, SignVector]:
    """Exact minimum bipartiteness ratio and its first minimizer.

    ``graph`` may be a WeightedGraph or a DemandMultigraph (self-loops
    contribute |2 x_i|).  Limited to n <= 16; comparisons stay exact through
    integer cross-multiplication, in int64 while a numerator (at most
    2 w(E)) times a denominator (at most b(V)) fits, else in Python ints.
    """
    n = graph.n
    if n > 16:
        raise TooLargeError(f"brute_beta enumerates 3^n vectors; n = {n} > 16")
    b_list = [int(x) for x in (graph.b if b is None else b)]
    w_total = sum(w for _, _, w in graph.weighted_edges())
    dtype = _sum_dtype(2 * w_total * sum(b_list))
    b_arr = np.asarray(b_list, dtype=dtype)
    us, vs, ws = _edge_arrays(graph, dtype)
    best_num = best_den = None
    best_signs = None
    for signs in _sign_chunks(n):
        first = np.argmax(signs != 0, axis=1)
        canonical = signs[np.arange(len(signs)), first] == 1
        if not canonical.any():
            continue
        S = signs[canonical]
        # One row per vertex, so each edge adds |x_u + x_v| * w as a single
        # pass over two rows, with no (rows x m) temporaries.
        T = S.T.astype(dtype)
        num = np.zeros(len(S), dtype=dtype)
        for u, v, w in zip(us, vs, ws):
            num += np.abs(T[u] + T[v]) * w
        den = np.abs(S) @ b_arr
        if best_num is None:
            best_num, best_den = int(num[0]), int(den[0])
            best_signs = S[0]
        better = np.nonzero(num * best_den < best_num * den)[0]
        for idx in better:
            if int(num[idx]) * best_den < best_num * int(den[idx]):
                best_num, best_den = int(num[idx]), int(den[idx])
                best_signs = S[idx]
    return Fraction(best_num, best_den), tuple(int(s) for s in best_signs)


def brute_maxcut(G: WeightedGraph) -> tuple[Ratio, frozenset[int]]:
    """Exact maximum cut fraction and a witness side (vertex n-1 pinned out)."""
    n = G.n
    if n > 20:
        raise TooLargeError(f"brute_maxcut enumerates 2^(n-1) sides; n = {n} > 20")
    total = G.total_weight
    if total == 0:
        raise EmptyGraphError("max cut of an edgeless graph is undefined")
    dtype = _sum_dtype(total)
    us, vs, ws = _edge_arrays(G, dtype)
    best_w = -1
    best_mask = 0
    chunk = 1 << 18
    for start in range(0, 1 << (n - 1), chunk):
        masks = np.arange(start, min(start + chunk, 1 << (n - 1)), dtype=np.int64)
        cut = np.zeros(len(masks), dtype=dtype)
        for u, v, w in zip(us, vs, ws):
            cut += w * (((masks >> int(u)) ^ (masks >> int(v))) & 1).astype(dtype, copy=False)
        idx = int(np.argmax(cut))
        if int(cut[idx]) > best_w:
            best_w = int(cut[idx])
            best_mask = int(masks[idx])
    S = frozenset(i for i in range(n) if (best_mask >> i) & 1)
    return Fraction(best_w, total), S


def iter_symmetric_pairs(n: int) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """All 3^n - 1 pairs of disjoint (L, R) with nonempty union.

    Follows the ternary counter of ``_sign_chunks``: +1 puts a vertex in L,
    -1 in R, 0 leaves it out.
    """
    vertices = range(n)
    for signs in _sign_chunks(n):
        for plus, minus in zip((signs == 1).tolist(), (signs == -1).tolist()):
            yield frozenset(compress(vertices, plus)), frozenset(compress(vertices, minus))


def brute_well_linked(G: WeightedGraph, b=None, k: int = 1):
    """Exhaustive well-linkedness of the doubled graph at ratio 1/k.

    Returns (linked, violating_pair): linked is True when every symmetric
    selection admits a saturating flow; otherwise violating_pair is the
    first (L, R) in counter order whose maximum flow falls short.
    Limited to n <= 7 (one max-flow per pair).
    """
    if G.n > 7:
        raise TooLargeError(f"brute_well_linked runs 3^n max-flows; n = {G.n} > 7")
    graph = G if b is None else G.with_b(b)
    # One network for every pair; the initial selection is a placeholder.
    net = build_network(build_auxiliary_graph(graph), range(graph.n), (), k)
    for L, R in iter_symmetric_pairs(graph.n):
        net.select(L, R)
        flow = max_flow(net)
        if not is_saturating(net, flow):
            return False, (L, R)
    return True, None
