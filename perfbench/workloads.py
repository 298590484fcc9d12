"""Seeded inputs, the timed operation, and the output checks of each workload.

Every workload turns ``--seed`` into a fixed list of items.  An item is one
call into bipratio (a sweep, a recursive max-cut, or one oracle call).  The
benchmark times ``solve(item)`` and keeps only ``record(item, out)``, the
exact answer in canonical form, so that retained results do not inflate the
peak memory.  Afterwards, outside the timed region, ``check(item, rec)``
recomputes the answer's key figures from the edge list with this module's
own exact arithmetic.  The library only ever sees the generated graphs and
a solver seed drawn from ``--seed``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Any, Callable

import numpy as np

from bipratio import game, maxcut, oracle
from bipratio.generators import gnp
from bipratio.graph import WeightedGraph

HEAVY_W = 10**9


def int64_safe_weight(m: int) -> int:
    """The largest weight bound under which brute_beta's int64 products fit.

    A ratio's numerator and denominator are each at most 2 * m * w_max, and
    brute_beta compares two ratios by multiplying one of each.
    """
    return math.isqrt(2**63 - 1) // (2 * m)


@dataclass(frozen=True)
class Item:
    """One timed call: which operation, on which graph, with which argument."""

    op: str
    graph: WeightedGraph
    arg: int = 0


def _subseed(seed: int, *path: int) -> int:
    return int(np.random.default_rng([seed, *path]).integers(2**62))


# -- the benchmark's own exact arithmetic -------------------------------------

def exact_beta(G: WeightedGraph, x) -> Fraction:
    """sum_e w |x_u + x_v| / sum_i b_i |x_i|, straight from the edge list."""
    num = sum(w * abs(x[u] + x[v]) for u, v, w in G.edges)
    return Fraction(num, sum(b * abs(xi) for b, xi in zip(G.b, x)))


def exact_cut(G: WeightedGraph, S) -> Fraction:
    """Weight crossing (S, complement) over the total weight."""
    S = set(S)
    crossing = sum(w for u, v, w in G.edges if (u in S) != (v in S))
    return Fraction(crossing, sum(w for _, _, w in G.edges))


def exact_min_beta(G: WeightedGraph) -> Fraction:
    """Minimum ratio over all sign vectors whose first nonzero entry is +1."""
    best = None
    for x in product((0, 1, -1), repeat=G.n):
        first = next((xi for xi in x if xi), 0)
        if first == 1:
            r = exact_beta(G, x)
            if best is None or r < best:
                best = r
    return best


def _mean(values) -> float:
    """Mean of the values, or 1 (the neutral figure) when there are none."""
    return float(statistics.fmean(values)) if values else 1.0


# -- workloads ----------------------------------------------------------------

def gnm(n: int, m: int, w_max: int, seed: int, odd_cycle: bool = False) -> WeightedGraph:
    """n vertices and exactly m edges, weights uniform in 1..w_max.

    The work of a sweep round or an oracle enumeration grows with m, so a
    fixed count keeps it the same for every seed.  Draws with an isolated
    vertex (no degree weight) and, when ``odd_cycle`` is set, bipartite draws
    (beta = 0) are redrawn.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for attempt in range(1000):
        rng = np.random.default_rng([seed, 11, attempt])
        chosen = sorted(rng.choice(len(pairs), size=m, replace=False))
        edges = [(*pairs[i], int(rng.integers(1, w_max + 1))) for i in chosen]
        if len({v for e in edges for v in e[:2]}) < n:
            continue
        G = WeightedGraph(n, tuple(edges))
        if not odd_cycle or exact_min_beta(G) > 0:
            return G
    raise RuntimeError(f"no suitable draw of {m} edges on {n} vertices")


class Workload:
    """Base: subclasses give the items, the call, the check and the figures."""

    def items(self, seed: int) -> list[Item]:
        raise NotImplementedError

    def solve(self, item: Item) -> Any:
        raise NotImplementedError

    def record(self, item: Item, out: Any) -> tuple:
        """The exact answer, canonically ordered: what is checked and digested."""
        raise NotImplementedError

    def check(self, item: Item, rec: tuple) -> str | None:
        """None when the answer is right, else what is wrong with it."""
        raise NotImplementedError

    def quality(self, done: list[tuple[Item, tuple]]) -> dict[str, float]:
        """beta_found, bracket and cut_value over the first pass's answers.

        A figure a workload has no meaning for is reported as 1.
        """
        raise NotImplementedError


class Sweep(Workload):
    """approx_bipartiteness on G(n, m) graphs, weights 1..3."""

    def __init__(self, n: int, m: int, count: int):
        self.n, self.m, self.count = n, m, count

    def items(self, seed):
        return [Item("sweep", gnm(self.n, self.m, 3, _subseed(seed, 1, i)),
                     _subseed(seed, 2, i)) for i in range(self.count)]

    def solve(self, item):
        return game.approx_bipartiteness(item.graph, game.GameParams(seed=item.arg))

    def record(self, item, res):
        return (res.x_best, res.beta, res.r_cert)

    def check(self, item, rec):
        x, beta, r_cert = rec
        if exact_beta(item.graph, x) != beta:
            return f"returned beta {beta} is not beta(x) = {exact_beta(item.graph, x)}"
        if r_cert is not None and beta > 2 * r_cert:
            return f"beta {beta} exceeds 2 * r_cert = {2 * r_cert}"
        return None

    def quality(self, done):
        # Means, not medians: the ratios cluster tightly near their lower end
        # and have a long upper tail, so a median of a dozen jumps between
        # the two from seed to seed.
        return {
            "beta_found": _mean([float(beta) for _, (_, beta, _) in done]),
            "bracket": _mean([float(beta / r_cert) for _, (_, beta, r_cert) in done
                              if r_cert is not None]),
            "cut_value": 1.0,
        }


class MaxCut(Workload):
    """recursive_bipart on G(n, m) graphs, weights 1..3.

    Every level of the recursion removes at least two vertices (a witness has
    beta < 1, which no single vertex reaches), so on n <= 7 vertices it stops
    within three levels.  The faulty depth guard of ``depth_guard_defect``
    first fires on a fourth level of two vertices, which needs n >= 8.
    """

    def __init__(self, n: int, m: int, count: int):
        self.n, self.m, self.count = n, m, count

    def items(self, seed):
        return [Item("maxcut", gnm(self.n, self.m, 3, _subseed(seed, 3, i)),
                     _subseed(seed, 4, i)) for i in range(self.count)]

    def solve(self, item):
        return maxcut.recursive_bipart(item.graph, game.GameParams(seed=item.arg))

    def record(self, item, res):
        return (tuple(sorted(res.S)), res.value, tuple(t.beta for t in res.trace))

    def check(self, item, rec):
        S, value, _ = rec
        if exact_cut(item.graph, S) != value:
            return f"returned cut value {value} is not the cut of S = {exact_cut(item.graph, S)}"
        return None

    def quality(self, done):
        return {
            "beta_found": 1.0,
            "bracket": 1.0,
            "cut_value": _mean([float(value) for _, (_, value, _) in done]),
        }


class Oracle(Workload):
    """brute_beta, brute_maxcut and brute_well_linked; some with heavy weights.

    The heavy brute_beta graphs stay under ``int64_safe_weight``: above it
    the minimum comes out wrong (see ``KNOWN_DEFECTS``).  brute_maxcut only
    adds weights, so its heavy graphs go up to 1e9.
    """

    def items(self, seed):
        # Half of all vertex pairs are edges, except 13 of 21 for the n = 7 graphs.
        items = [Item("beta", gnm(n, n * (n - 1) // 4, 3, _subseed(seed, 5, n)))
                 for n in (12, 13, 14)]
        items += [Item("beta", gnm(8, 14, int64_safe_weight(14), _subseed(seed, 6, i)))
                  for i in range(6)]
        items += [Item("maxcut", gnm(20, 95, 3, _subseed(seed, 7, i))) for i in range(8)]
        items += [Item("maxcut", gnm(20, 95, HEAVY_W, _subseed(seed, 8, i))) for i in range(2)]
        for i in range(3):
            G = gnm(7, 13, 3, _subseed(seed, 9, i), odd_cycle=True)
            k = math.ceil(1 / exact_min_beta(G))
            items += [Item("well_linked", G, max(k - 1, 1)), Item("well_linked", G, k)]
        return items

    def solve(self, item):
        if item.op == "beta":
            return oracle.brute_beta(item.graph)
        if item.op == "maxcut":
            return oracle.brute_maxcut(item.graph)
        return oracle.brute_well_linked(item.graph, k=item.arg)

    def record(self, item, out):
        value, extra = out
        if item.op == "maxcut":
            extra = tuple(sorted(extra))
        elif item.op == "well_linked" and extra is not None:
            extra = tuple(tuple(sorted(side)) for side in extra)
        return (item.op, item.arg, value, extra)

    def check(self, item, rec):
        G = item.graph
        _, _, value, extra = rec
        if item.op == "beta":
            if exact_beta(G, extra) != value:
                return f"brute_beta value {value} is not beta(x) = {exact_beta(G, extra)}"
            if G.n <= 8 and (best := exact_min_beta(G)) != value:
                return f"brute_beta returned {value}, the exact minimum is {best}"
        elif item.op == "maxcut":
            if exact_cut(G, extra) != value:
                return f"brute_maxcut value {value} is not the cut of S = {exact_cut(G, extra)}"
        else:
            beta = exact_min_beta(G)
            if value != (beta >= Fraction(1, item.arg)):
                return f"well-linked at 1/{item.arg} is {value}, but beta = {beta}"
        return None

    def quality(self, done):
        return {"beta_found": 1.0, "bracket": 1.0, "cut_value": 1.0}


# -- known defects ------------------------------------------------------------
# Inputs on which the library raises or answers wrongly.  A workload must run
# without failures, so they are kept out of the timed items; instead, every
# end-to-end run of the matching workload tries them once, after the timed
# phase, and records whether each defect still shows.  When one stops showing,
# its probe reports so, and the workload can take such inputs back.

def clustered(seed: int, index: int) -> WeightedGraph:
    """5-7 gnp blocks of 6-9 vertices, 0-2 bridges between neighbouring blocks."""
    shape = np.random.default_rng([index, 5])
    blocks = int(shape.integers(5, 8))
    sizes = [int(shape.integers(6, 10)) for _ in range(blocks)]
    probs = [float(shape.uniform(0.4, 0.7)) for _ in range(blocks)]
    bridges = [int(shape.integers(0, 3)) for _ in range(blocks - 1)]
    rng = np.random.default_rng([seed, 3, index])
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


def depth_guard_defect() -> str | None:
    """recursive_bipart compares its depth with the current subgraph's size."""
    failures = []
    for index in (18, 24, 28):  # 39, 54 and 48 vertices
        try:
            maxcut.recursive_bipart(clustered(1, index), game.GameParams(seed=1))
        except AssertionError as exc:
            failures.append(f"clustered graph {index}: AssertionError: {exc}")
    return "; ".join(failures) or None


def int64_defect() -> str | None:
    """brute_beta cross-multiplies ratios in int64, which overflows above
    ``int64_safe_weight``."""
    wrong = []
    for i in range(4):
        G = gnm(8, 14, HEAVY_W, i)
        value, _ = oracle.brute_beta(G)
        if value != (best := exact_min_beta(G)):
            wrong.append(f"heavy n=8 graph {i}: brute_beta returned {value}, "
                         f"the exact minimum is {best}")
    return "; ".join(wrong) or None


KNOWN_DEFECTS: dict[str, list[Callable[[], str | None]]] = {
    "maxcut-small": [depth_guard_defect],
    "oracle-exact": [int64_defect],
}


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[], Workload]] = {
    "sweep-dense": lambda: Sweep(n=60, m=60 * 59 // 4, count=18),
    "sweep-sparse": lambda: Sweep(n=300, m=900, count=3),
    "maxcut-small": lambda: MaxCut(n=7, m=14, count=1200),
    "oracle-exact": Oracle,
}
