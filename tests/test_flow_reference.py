"""The flow round against a frozen reference copy of its earlier code.

``max_flow``, ``decompose_flow`` (with its cycle cancelling), ``demand_graph``
and ``demand_matrix`` were rewritten to do less interpreter work, with the
promise that every residual, path, dict order and matrix bit stays the same:
the game's random stream depends on all of them.  The reference below is the
earlier, plainer code (a full-depth BFS with an arc scan per step, one DFS
for every phase, an indexed peel for every path length, numpy scalar
accumulation), kept as it was apart from its names, its error types and its
counters: cancelled cycles, the sink depths of each solve's phases, the cut
position of each five-arc peel, and the peels of seven or more arcs.  It
still records a path as its nodes and middle-edge tags (``RefPath``); the
library's arc walks are compared with it through ``net.head`` and
``net.arc_tag``, which name every arc of a walk uniquely.  The counters show
that the seeded cases reach the straight-line paths of ``max_flow`` (a
depth-3 first phase, alone or before deeper phases, beside first phases
deeper than 3) and every peel of ``decompose_flow`` (five-arc peels cut at
every position, with and without ties, and the generic peel).  Besides
random networks of up to 12 vertices, the round is replayed on every solve
of a seeded sweep on a 40-vertex graph and of seeded max-cut recursions on
8-vertex graphs.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

from bipratio import (
    DegreeOverflowError,
    DemandMultigraph,
    GameParams,
    WeightedGraph,
    build_auxiliary_graph,
)
from bipratio.flow import (
    FlowAssignment,
    FlowPath,
    build_network,
    cut_capacity,
    decompose_flow,
    demand_graph,
    max_flow,
)
from bipratio.generators import gnp
from bipratio.maxcut import recursive_bipart
from bipratio.spectral import demand_matrix
from bipratio.verify import random_test_graph


# ---- reference copies ------------------------------------------------------

def _ref_bfs_levels(net):
    adj, head, cap = net.adj, net.head, net.cap
    level = [-1] * net.n_nodes
    level[net.source] = 0
    queue = [net.source]
    for u in queue:  # the loop also visits the nodes appended below
        nxt = level[u] + 1
        for a in adj[u]:
            if cap[a] > 0:
                v = head[a]
                if level[v] < 0:
                    level[v] = nxt
                    queue.append(v)
    return level


def ref_max_flow(net, stats=None):
    if net.solved:
        raise RuntimeError("network already solved; select() a pair before solving again")
    adj, head, cap = net.adj, net.head, net.cap
    s, t = net.source, net.sink
    total = 0
    depths = []  # sink level of each phase that carries flow
    while True:
        level = _ref_bfs_levels(net)
        if level[t] < 0:
            break
        depths.append(level[t])
        it = [0] * net.n_nodes
        path = []
        u = s
        while True:
            if u == t:
                aug, cut = cap[path[0]], 0
                for idx in range(1, len(path)):
                    c = cap[path[idx]]
                    if c < aug:
                        aug, cut = c, idx
                total += aug
                for a in path:
                    cap[a] -= aug
                    cap[a ^ 1] += aug
                u = head[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs = adj[u]
            i, end, nxt = it[u], len(arcs), level[u] + 1
            while i < end:
                a = arcs[i]
                if cap[a] > 0 and level[head[a]] == nxt:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(a)
                u = head[a]
                continue
            if u == s:
                break
            level[u] = -1
            a = path.pop()
            u = head[a ^ 1]
            it[u] += 1
    net.solved = True
    if stats is not None and depths:
        stats["phase_shapes"][
            "depth3_only" if depths == [3] else
            "depth3_then_deeper" if depths[0] == 3 else "deeper_first"] += 1
    X = frozenset(v for v, lv in enumerate(level) if lv >= 0)
    if cut_capacity(net, X) != total:
        raise AssertionError("max-flow/min-cut audit failed")
    return FlowAssignment(net, total, X)


def _ref_flow_graph(net):
    cap0, cap, head = net.cap0, net.cap, net.head
    flows = [0] * len(cap)
    out = [[] for _ in range(net.n_nodes)]
    for a in range(0, len(cap), 2):
        f = cap0[a] - cap[a]
        if f > 0:
            flows[a] = f
            out[head[a + 1]].append(a)
        elif f < 0:
            flows[a + 1] = -f
            out[head[a]].append(a + 1)
    return flows, out


def _ref_find_cycle(net, flows, out):
    head = net.head
    color = [0] * net.n_nodes
    for start in range(net.n_nodes):
        if color[start]:
            continue
        stack = [(start, 0)]
        trail = []
        color[start] = 1
        while stack:
            node, idx = stack[-1]
            arcs = out[node]
            if idx >= len(arcs):
                color[node] = 2
                stack.pop()
                if trail:
                    trail.pop()
                continue
            stack[-1] = (node, idx + 1)
            a = arcs[idx]
            if not flows[a]:
                continue
            v = head[a]
            c = color[v]
            if c == 1:
                cycle = [a]
                for arc in reversed(trail):
                    if head[cycle[-1] ^ 1] == v:
                        break
                    cycle.append(arc)
                cycle.reverse()
                return cycle
            if c == 0:
                color[v] = 1
                trail.append(a)
                stack.append((v, 0))
    return None


def _ref_cancel_cycles(net, flows, out):
    cancelled = 0
    while True:
        cycle = _ref_find_cycle(net, flows, out)
        if cycle is None:
            return cancelled
        c = min(flows[a] for a in cycle)
        for a in cycle:
            flows[a] -= c
        cancelled += 1


class RefPath(NamedTuple):
    """The reference's path record: the arc heads but the sink's, the units,
    and the tags of the middle arcs."""

    nodes: tuple
    units: int
    middle: tuple


def ref_decompose_flow(net, flow, stats=None):
    head, arc_tag = net.head, net.arc_tag
    flows, out = _ref_flow_graph(net)
    cancelled = _ref_cancel_cycles(net, flows, out)
    if stats is not None:
        stats["cycles"] += cancelled
    ptr = [0] * net.n_nodes
    paths = []
    remaining = flow.value
    arcs = []
    u = net.source
    while remaining > 0:
        while u != net.sink:
            out_u = out[u]
            i, end = ptr[u], len(out_u)
            while i < end and not flows[out_u[i]]:
                i += 1
            if i == end:
                raise AssertionError("flow walk stalled before the sink")
            ptr[u] = i
            a = out_u[i]
            arcs.append(a)
            u = head[a]
        units, cut = flows[arcs[0]], 0
        for idx in range(1, len(arcs)):
            f = flows[arcs[idx]]
            if f < units:
                units, cut = f, idx
        if stats is not None and len(arcs) == 5:
            tied = sum(flows[a] == units for a in arcs) > 1
            stats["five_arc_cuts"][cut, tied] += 1
        if stats is not None and len(arcs) >= 7:
            stats["seven_plus_arcs"] += 1
        for a in arcs:
            flows[a] -= units
        nodes = tuple([head[a] for a in arcs[:-1]])
        middle = tuple([tag for tag in map(arc_tag.__getitem__, arcs[1:-1])
                        if tag is not None])
        paths.append(RefPath(nodes, units, middle))
        remaining -= units
        u = head[arcs[cut] ^ 1]
        del arcs[cut:]
    if any(flows):
        raise AssertionError("leftover flow after path extraction")
    return paths


def ref_demand_graph(paths, net):
    n = net.n_base
    pairs = {}
    usage = {}
    for p in paths:
        if not p.nodes:
            raise AssertionError("path has no interior nodes")
        entry, exit_ = p.nodes[0], p.nodes[-1]
        if entry not in net.A or exit_ not in net.B:
            raise AssertionError("path endpoints are not a source/sink pair")
        i = entry if entry < n else entry - n
        j = exit_ if exit_ < n else exit_ - n
        key = (i, j) if i <= j else (j, i)
        pairs[key] = pairs.get(key, 0) + p.units
        for tag in p.middle:
            usage[tag] = usage.get(tag, 0) + p.units
    # No copy of a doubled-graph edge carries more than its capacity w * k.
    for (e, _), units in usage.items():
        assert units <= net.aux.base.edges[e][2] * net.k
    return DemandMultigraph(n, pairs)


def ref_demand_matrix(M, b):
    b = np.asarray(b, dtype=float)
    degs = M.degrees()
    for i in range(M.n):
        if degs[i] > 2 * b[i]:
            raise DegreeOverflowError("degree cap")
    F = np.zeros((M.n, M.n))
    inv_sqrt = 1.0 / np.sqrt(b)
    for (i, j), c in M.pairs.items():
        if i == j:
            F[i, i] += 4.0 * c * inv_sqrt[i] ** 2
        else:
            F[i, i] += c * inv_sqrt[i] ** 2
            F[j, j] += c * inv_sqrt[j] ** 2
            F[i, j] += c * inv_sqrt[i] * inv_sqrt[j]
            F[j, i] += c * inv_sqrt[i] * inv_sqrt[j]
    return F


# ---- cases -----------------------------------------------------------------

def _random_graph(rng):
    n = int(rng.integers(2, 13))
    G = random_test_graph(rng, n, w_max=int(rng.integers(1, 5)),
                          p=float(rng.uniform(0.2, 0.8)), random_b=True, b_max=6)
    extra = [e for e in G.edges if rng.random() < 0.2]  # parallel edges
    return WeightedGraph(n, G.edges + tuple(extra), G.b)


def _random_selection(rng, n):
    while True:
        side = rng.integers(-1, 2, size=n)
        L = [i for i in range(n) if side[i] == 1]
        R = [i for i in range(n) if side[i] == -1]
        if L or R:
            return L, R


def _inject_circulation(rng, nets):
    """Push one unit around a residual cycle of middle arcs, the same on
    every network of ``nets`` (same layout, same residuals)."""
    net = nets[0]
    middle = 8 * net.n_base  # arcs below this id are terminal arcs
    u = int(rng.integers(0, 2 * net.n_base))
    seen, walk, prev = {u: 0}, [], None
    for _ in range(4 * net.n_nodes):
        options = [a for a in net.adj[u]
                   if a >= middle and net.cap[a] > 0 and a != prev]
        if not options:
            return False
        a = options[int(rng.integers(0, len(options)))]
        walk.append(a)
        prev, u = a ^ 1, net.head[a]
        if u in seen:
            for x in nets:
                for arc in walk[seen[u]:]:
                    x.cap[arc] -= 1
                    x.cap[arc ^ 1] += 1
            return True
        seen[u] = len(walk)
    return False


def _as_ref_paths(paths, net):
    """The library's walks as the reference's (nodes, units, middle) records:
    each arc's head but the sink's, and the tags of the middle arcs."""
    head, arc_tag = net.head, net.arc_tag
    return [RefPath(tuple([head[a] for a in p.arcs[:-1]]), p.units,
                    tuple([arc_tag[a] for a in p.arcs[1:-1]])) for p in paths]


def _solve_both(net, ref, stats=None):
    flow, ref_flow = max_flow(net), ref_max_flow(ref, stats)
    assert net.cap == ref.cap
    assert flow.value == ref_flow.value
    assert flow.source_side == ref_flow.source_side
    return flow, ref_flow


def test_flow_round_matches_reference():
    rng = np.random.default_rng(90125)
    stats = {"cycles": 0, "long_paths": 0, "circulations": 0, "seven_plus_arcs": 0,
             "phase_shapes": Counter(), "five_arc_cuts": Counter()}
    for _ in range(60):
        G = _random_graph(rng)
        aux = build_auxiliary_graph(G)
        k = int(rng.integers(1, 5))
        net, ref = (build_network(aux, range(G.n), (), k) for _ in range(2))
        for _ in range(4):
            L, R = _random_selection(rng, G.n)
            net.select(L, R)
            ref.select(L, R)
            flow, ref_flow = _solve_both(net, ref, stats)
            if rng.random() < 0.5:
                stats["circulations"] += _inject_circulation(rng, [net, ref])
            paths = decompose_flow(flow)
            ref_paths = ref_decompose_flow(ref, ref_flow, stats)
            assert _as_ref_paths(paths, net) == ref_paths
            assert all(type(p) is FlowPath and type(p.arcs) is tuple for p in paths)
            stats["long_paths"] += sum(len(p.arcs) >= 5 for p in paths)
            M, ref_M = demand_graph(paths, net), ref_demand_graph(ref_paths, ref)
            assert list(M.pairs.items()) == list(ref_M.pairs.items())
            F = demand_matrix(M, G.b)
            assert F.tobytes() == ref_demand_matrix(ref_M, G.b).tobytes()
    # The cases reach the cycle cancelling, paths of five or more arcs and
    # the generic peel of seven or more.
    assert stats["circulations"] >= 20 and stats["cycles"] >= 20
    assert stats["long_paths"] >= 20
    assert stats["seven_plus_arcs"] >= 20
    # Every shape of phase sequence the straight-line first phase meets, and
    # five-arc peels cut at each position, alone and as the first of tied
    # minima (the last arc cannot be a tied first minimum).
    shapes = stats["phase_shapes"]
    assert min(shapes[shape] for shape in
               ("depth3_only", "depth3_then_deeper", "deeper_first")) >= 10
    cuts = stats["five_arc_cuts"]
    assert all(cuts[pos, False] for pos in range(5))
    assert all(cuts[pos, True] for pos in range(4))


def test_max_flow_matches_reference_on_selection_sweeps():
    # Every symmetric pair of small graphs, on one re-selected network each,
    # as the exact oracle runs them.
    from bipratio.oracle import iter_symmetric_pairs

    rng = np.random.default_rng(77)
    for _ in range(12):
        n = int(rng.integers(2, 6))
        G = random_test_graph(rng, n, w_max=3, random_b=bool(rng.integers(0, 2)))
        aux = build_auxiliary_graph(G)
        k = int(rng.integers(1, 5))
        net, ref = (build_network(aux, range(n), (), k) for _ in range(2))
        for L, R in iter_symmetric_pairs(n):
            net.select(L, R)
            ref.select(L, R)
            _solve_both(net, ref)


@pytest.mark.parametrize("pairs", [
    {},
    {(0, 0): 2},
    {(0, 1): 1, (1, 0): 2},
    {(1, 0): 1, (2, 2): 1, (0, 1): 3, (0, 2): 1},
    {(2, 1): 2, (1, 1): 1, (0, 2): 1, (1, 2): 1, (2, 0): 1},
])
def test_demand_matrix_matches_reference_by_hand(pairs):
    # Hand-built graphs hold self-loops or nothing; one holding a reversed
    # key (j, i), with or without (i, j) beside it, is refused.
    if any(i > j for i, j in pairs):
        with pytest.raises(ValueError, match=r"range\(3\)"):
            DemandMultigraph(3, pairs)
        return
    M = DemandMultigraph(3, pairs)
    for b in [(3, 5, 7), (4, 4, 4), (6, 3, 11)]:
        assert demand_matrix(M, b).tobytes() == ref_demand_matrix(M, b).tobytes()


def test_demand_matrix_matches_reference_random():
    rng = np.random.default_rng(5)
    nonempty = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        b = tuple(int(x) for x in rng.integers(1, 7, size=n))
        pairs: dict[tuple[int, int], int] = {}
        budget = [2 * x for x in b]
        for _ in range(int(rng.integers(0, 3 * n + 1))):
            i, j = sorted(int(v) for v in rng.integers(0, n, size=2))
            c = int(rng.integers(1, 4))
            need = [0] * n
            need[i] += c
            need[j] += c
            if all(need[v] <= budget[v] for v in range(n)):
                for v in range(n):
                    budget[v] -= need[v]
                pairs[(i, j)] = pairs.get((i, j), 0) + c
        M = DemandMultigraph(n, pairs)
        nonempty += bool(M.pairs)
        assert demand_matrix(M, b).tobytes() == ref_demand_matrix(M, b).tobytes()
    assert nonempty >= 150  # the draws compare real graphs, not empty ones
    M = DemandMultigraph(2, {(0, 1): 3})
    with pytest.raises(DegreeOverflowError):
        demand_matrix(M, (1, 2))


def _restore(net, cap, cap0, A, B, b_A):
    net.cap[:], net.cap0[:] = cap, cap0
    net.A, net.B, net.b_A, net.solved = A, B, b_A, False


def _sweep_traffic():
    from bipratio import game

    game.approx_bipartiteness(gnp(40, 0.51, w_max=3, seed=7), GameParams(seed=7))


def _maxcut_traffic():
    for seed in range(20):
        recursive_bipart(gnp(8, 0.5, 3, seed=seed), GameParams(seed=seed))


@pytest.mark.parametrize("traffic", ["sweep", "maxcut"])
def test_flow_round_matches_reference_on_game_traffic(traffic, monkeypatch):
    # The random cases above stop at n = 12 and k = 4.  Replay every solve
    # of a seeded sweep on G(40, ~400), whose networks hold about 1,960
    # arcs, or of seeded max-cut recursions on twenty G(8, 1/2) graphs,
    # whose games reach k = 8 and 16.  The game re-selects one network per
    # game, so the spy keeps a snapshot of everything a selection writes.
    from bipratio import game

    solves = []
    real_max_flow = game.max_flow

    def spy(net):
        solves.append((net, list(net.cap), list(net.cap0), net.A, net.B, net.b_A))
        return real_max_flow(net)

    monkeypatch.setattr(game, "max_flow", spy)
    {"sweep": _sweep_traffic, "maxcut": _maxcut_traffic}[traffic]()
    monkeypatch.undo()
    stats = {"cycles": 0, "seven_plus_arcs": 0, "phase_shapes": Counter(),
             "five_arc_cuts": Counter()}
    unsaturated = 0
    for net, *snapshot in solves:
        _restore(net, *snapshot)
        flow = max_flow(net)
        cap = list(net.cap)
        paths = decompose_flow(flow)
        M = demand_graph(paths, net)
        _restore(net, *snapshot)
        ref_flow = ref_max_flow(net, stats)
        assert net.cap == cap
        assert flow.value == ref_flow.value
        assert flow.source_side == ref_flow.source_side
        unsaturated += flow.value < net.b_A
        ref_paths = ref_decompose_flow(net, ref_flow, stats)
        assert _as_ref_paths(paths, net) == ref_paths
        ref_M = ref_demand_graph(ref_paths, net)
        assert list(M.pairs.items()) == list(ref_M.pairs.items())
    if traffic == "sweep":
        # Over a hundred solves, each a depth-3 first phase and deeper ones,
        # and peels of every shape: five arcs, and (rarely) seven or more.
        assert stats["phase_shapes"]["depth3_then_deeper"] >= 100
        assert sum(stats["five_arc_cuts"].values()) >= 1000
        assert stats["seven_plus_arcs"] >= 3
    else:
        # Ratio guesses beyond the random cases, and cuts as well as flows.
        assert max(net.k for net, *_ in solves) >= 8
        assert unsaturated >= 20
