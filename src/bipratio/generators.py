"""Seeded graph generators emitting the library's WeightedGraph."""

from __future__ import annotations

import numpy as np

from .graph import WeightedGraph


def _patch_isolated(n: int, edges: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    # Degree vertex weights need every vertex touched; link stragglers to
    # their cyclic successor.
    deg = [0] * n
    for u, v, _ in edges:
        deg[u] += 1
        deg[v] += 1
    for i in range(n):
        if deg[i] == 0:
            j = (i + 1) % n
            edges.append((min(i, j), max(i, j), 1))
            deg[i] += 1
            deg[j] += 1
    return edges


def gnp(n: int, p: float, w_max: int = 1, seed: int = 0) -> WeightedGraph:
    """Erdos-Renyi graph with uniform integer weights in 1..w_max; a vertex
    left isolated is joined to its cyclic successor by a unit edge."""
    if n < 2:
        raise ValueError("gnp needs at least two vertices")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    if w_max < 1:
        raise ValueError("w_max must be at least 1")
    rng = np.random.default_rng([seed, 3, 1])
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = int(rng.integers(1, w_max + 1))
                edges.append((i, j, w))
    return WeightedGraph(n, tuple(_patch_isolated(n, edges)))


def planted_bipartite(n: int, p_cross: float, p_noise: float,
                      seed: int = 0) -> tuple[WeightedGraph, dict]:
    """Bipartite graph plus unit-weight noise edges inside the sides.

    Side 0 is vertices 0..ceil(n/2)-1, side 1 the rest.  Returns the graph
    and a metadata dict recording the noise weight fraction, which upper
    bounds the uncut fraction of the planted bipartition.
    """
    if n < 2:
        raise ValueError("planted_bipartite needs at least two vertices")
    for name, p in (("p_cross", p_cross), ("p_noise", p_noise)):
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    rng = np.random.default_rng([seed, 3, 2])
    half = (n + 1) // 2
    side = [0 if i < half else 1 for i in range(n)]
    edges = []
    noise_weight = 0
    for i in range(n):
        for j in range(i + 1, n):
            cross = side[i] != side[j]
            p = p_cross if cross else p_noise
            if rng.random() < p:
                edges.append((i, j, 1))
                if not cross:
                    noise_weight += 1
    # Patch isolated vertices with a cross edge so the noise accounting and
    # the degree-weight default both stay intact.
    deg = [0] * n
    for u, v, _ in edges:
        deg[u] += 1
        deg[v] += 1
    for i in range(n):
        if deg[i] == 0:
            j = half + (i % (n - half)) if side[i] == 0 else i - half
            edges.append((min(i, j), max(i, j), 1))
            deg[i] += 1
            deg[j] += 1
    total = sum(w for _, _, w in edges)
    meta = {
        "n": n,
        "sides": side,
        "noise_weight": noise_weight,
        "total_weight": total,
        "noise_fraction": noise_weight / total if total else 0.0,
    }
    return WeightedGraph(n, tuple(edges)), meta


def cycle(n: int) -> WeightedGraph:
    """Unit-weight cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    edges = tuple((i, (i + 1) % n, 1) for i in range(n))
    return WeightedGraph(n, edges)


def complete(n: int) -> WeightedGraph:
    """Unit-weight complete graph on n >= 2 vertices."""
    if n < 2:
        raise ValueError("complete graph needs at least two vertices")
    edges = tuple((i, j, 1) for i in range(n) for j in range(i + 1, n))
    return WeightedGraph(n, edges)
