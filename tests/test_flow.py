from collections import Counter
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from bipratio import (
    DemandMultigraph,
    EmptySelectionError,
    MalformedPathError,
    SaturatingFlowError,
    WeightedGraph,
    build_auxiliary_graph,
    build_network,
    consistent_min_cut,
    decompose_flow,
    demand_graph,
    evaluate_beta,
    is_saturating,
    max_flow,
)
from bipratio.flow import FlowPath, cut_capacity
from bipratio.game import cut_matching_game
from bipratio.oracle import brute_well_linked, iter_symmetric_pairs
from bipratio.verify import random_test_graph


def _tail(net, arc):
    return net.head[arc ^ 1]


def _arc_flow(flow, arc):
    """Net flow in the stored direction of ``arc`` (negative = reverse)."""
    return flow.network.cap0[arc] - flow.network.cap[arc]


def _max_conservation_violation(flow):
    """Largest absolute flow imbalance over the non-terminal nodes."""
    net = flow.network
    balance = [0] * net.n_nodes
    for a in range(0, len(net.head), 2):
        f = _arc_flow(flow, a)
        balance[_tail(net, a)] -= f
        balance[net.head[a]] += f
    return max(abs(balance[node]) for node in range(net.n_nodes)
               if node not in (net.source, net.sink))


def _layout(net):
    """Arc ids of a selection network's fixed layout: the selected (positive
    capacity) source arcs and sink arcs, and every middle arc."""
    n = net.n_base
    source = [a for a in range(0, 4 * n, 2) if net.cap0[a] > 0]
    sink = [a for a in range(4 * n, 8 * n, 2) if net.cap0[a] > 0]
    middle = list(range(8 * n, len(net.head), 2))
    assert all(net.head[a ^ 1] == net.source for a in source)
    assert all(net.head[a] == net.sink for a in sink)
    assert all(net.arc_tag[a] is not None for a in middle)
    return source, sink, middle


def test_network_shape_single_edge(single_edge):
    aux = build_auxiliary_graph(single_edge)
    net = build_network(aux, {0}, set(), 1)
    assert net.b_A == 1
    source, sink, middle = _layout(net)
    assert len(source) == 1 and len(sink) == 1
    assert len(middle) == 2
    assert all(net.cap0[a] == 1 for a in middle)
    net3 = build_network(aux, {0}, set(), 3)
    source3, _, middle3 = _layout(net3)
    assert all(net3.cap0[a] == 3 for a in middle3)
    assert net3.cap0[source3[0]] == 1  # source caps do not scale


def test_network_shape_k3(k3):
    aux = build_auxiliary_graph(k3)
    net = build_network(aux, {0, 1, 2}, set(), 2)
    source, sink, middle = _layout(net)
    assert len(source) == 3 and len(sink) == 3
    assert all(net.cap0[a] == 2 for a in source)
    assert all(net.cap0[a] == 2 for a in middle)


def test_network_rejects_bad_selection(k3):
    aux = build_auxiliary_graph(k3)
    with pytest.raises(EmptySelectionError):
        build_network(aux, set(), set(), 1)
    with pytest.raises(ValueError):
        build_network(aux, {0}, {0}, 1)


@pytest.mark.parametrize("k", [float("inf"), float("nan"), 1.5, 0, -1])
def test_every_entry_point_rejects_a_k_that_is_not_a_positive_integer(k, k3):
    aux = build_auxiliary_graph(k3)
    for call in (lambda: build_network(aux, [0], [], k), lambda: cut_matching_game(k3, k),
                 lambda: brute_well_linked(k3, k)):
        with pytest.raises(ValueError):
            call()


def test_bottleneck_path_network():
    # One unit edge with b = (2, 2) and L = {0, 1}: two routes
    # s -> i+ (cap 2), i+ -- j- (cap w * k), j- -> t (cap 2), so the middle
    # edges bound the flow at k = 1 and the terminals at k = 2.
    G = WeightedGraph(2, ((0, 1, 1),), (2, 2))
    aux = build_auxiliary_graph(G)
    net = build_network(aux, {0, 1}, set(), 1)
    flow = max_flow(net)
    assert flow.value == 2 and net.b_A == 4
    assert not is_saturating(flow)
    net2 = build_network(aux, {0, 1}, set(), 2)
    assert max_flow(net2).value == 4


def test_single_edge_singleton_not_saturating(single_edge):
    aux = build_auxiliary_graph(single_edge)
    net = build_network(aux, {0}, set(), 1)
    flow = max_flow(net)
    assert flow.value == 0
    assert not is_saturating(flow)


def test_k3_singleton_saturates_at_k2(k3):
    aux = build_auxiliary_graph(k3)
    net = build_network(aux, {0}, set(), 2)
    flow = max_flow(net)
    assert flow.value == 2
    assert is_saturating(flow)
    assert _max_conservation_violation(flow) == 0


def test_consistent_cut_single_edge(single_edge):
    aux = build_auxiliary_graph(single_edge)
    net = build_network(aux, {0}, set(), 1)
    flow = max_flow(net)
    x = consistent_min_cut(flow)
    assert x == (1, -1)
    assert evaluate_beta(single_edge, x) == 0


def test_consistent_cut_rejects_saturating(k3):
    aux = build_auxiliary_graph(k3)
    net = build_network(aux, {0}, set(), 3)
    flow = max_flow(net)
    assert is_saturating(flow)
    with pytest.raises(SaturatingFlowError):
        consistent_min_cut(flow)


def test_consistent_cut_keeps_min_cut_value():
    rng = np.random.default_rng(42)
    seen = 0
    while seen < 40:
        n = int(rng.integers(2, 7))
        G = random_test_graph(rng, n, w_max=3, random_b=True)
        aux = build_auxiliary_graph(G)
        k = int(rng.integers(1, 4))
        for L, R in iter_symmetric_pairs(n):
            net = build_network(aux, L, R, k)
            flow = max_flow(net)
            if is_saturating(flow):
                continue
            x = consistent_min_cut(flow)
            reduced = {net.source}
            reduced.update(i for i in range(n) if x[i] == 1)
            reduced.update(n + i for i in range(n) if x[i] == -1)
            assert cut_capacity(net, reduced) == flow.value
            assert evaluate_beta(G, x) * k < 1
            seen += 1
            if seen >= 40:
                break


def test_consistent_cut_always_audits_the_ratio(monkeypatch):
    # The reduced cut's ratio is re-checked against 1/k on every network:
    # a ratio that does not beat the guess must fail the audit.
    import bipratio.flow as flow_mod

    G = WeightedGraph(2, ((0, 1, 1),), (1, 1))
    net = build_network(build_auxiliary_graph(G), {0}, set(), 1)
    flow = max_flow(net)
    assert not is_saturating(flow)
    monkeypatch.setattr(flow_mod, "evaluate_beta", lambda graph, x: Fraction(1))
    with pytest.raises(AssertionError):
        consistent_min_cut(flow)


def test_consistent_cut_reuses_the_last_search(monkeypatch):
    # consistent_min_cut reads the residual source side that max_flow's final
    # search found; it runs no search of its own.  max_flow's every search
    # goes through the patched helper, so an empty call list proves it.
    import bipratio.flow as flow_mod

    calls = []
    real_bfs = flow_mod._bfs_levels
    monkeypatch.setattr(flow_mod, "_bfs_levels",
                        lambda net: calls.append(1) or real_bfs(net))
    rng = np.random.default_rng(7)
    seen = 0
    while seen < 10:
        n = int(rng.integers(2, 7))
        G = random_test_graph(rng, n, w_max=3, random_b=True)
        net = build_network(build_auxiliary_graph(G), range(n), (), 1)
        calls.clear()
        flow = max_flow(net)
        assert calls
        if is_saturating(flow):
            continue
        level = real_bfs(net)
        assert net.sink not in flow.source_side
        assert flow.source_side == {v for v, lv in enumerate(level) if lv >= 0}
        calls.clear()
        consistent_min_cut(flow)
        assert calls == []
        seen += 1


@pytest.mark.parametrize("cases", ["random", "selection-sweeps", "game-traffic"])
def test_first_phase_runs_one_search_fewer_than_the_reference(cases, monkeypatch):
    # The first phase reads its levels from the selection.  So a solve runs
    # one BFS fewer than the reference of tests/test_flow_reference.py,
    # which searches before every phase, when the reference's first phase
    # reaches the sink at depth 3, and as many otherwise; replayed on that
    # file's seeded cases, each network freshly selected.  No search the
    # library runs finds the sink at depth 3 (Dinic's lemma), which is why
    # only the first phase is walked at that depth.
    import bipratio.flow as flow_mod
    import bipratio.game as game
    import test_flow_reference as ref

    lib_calls, ref_calls = [], []  # the library's: each search's sink level
    real_bfs, real_ref_bfs = flow_mod._bfs_levels, ref._ref_bfs_levels

    def lib_bfs(net):
        level = real_bfs(net)
        lib_calls.append(level[net.sink])
        return level

    monkeypatch.setattr(flow_mod, "_bfs_levels", lib_bfs)
    monkeypatch.setattr(ref, "_ref_bfs_levels",
                        lambda net: ref_calls.append(1) or real_ref_bfs(net))
    first_depth3 = Counter()

    def solve_both(net, snapshot):
        depth3 = real_ref_bfs(net)[net.sink] == 3
        lib_calls.clear()
        ref_calls.clear()
        max_flow(net)
        cap = list(net.cap)
        ref._restore(net, *snapshot)
        ref.ref_max_flow(net)
        assert net.cap == cap
        assert len(lib_calls) == len(ref_calls) - depth3
        assert 3 not in lib_calls
        first_depth3[depth3] += 1

    def snapshot(net):
        return list(net.cap), list(net.cap0), net.A, net.B, net.b_A

    if cases == "random":  # test_flow_round_matches_reference's draws
        rng = np.random.default_rng(90125)
        for _ in range(60):
            G = ref._random_graph(rng)
            net = build_network(build_auxiliary_graph(G), range(G.n), (),
                                int(rng.integers(1, 5)))
            for _ in range(4):
                net.select(*ref._random_selection(rng, G.n))
                solve_both(net, snapshot(net))
                if rng.random() < 0.5:
                    ref._inject_circulation(rng, [net])
    elif cases == "selection-sweeps":  # test_max_flow_matches_reference_on_selection_sweeps'
        rng = np.random.default_rng(77)
        for _ in range(12):
            n = int(rng.integers(2, 6))
            G = random_test_graph(rng, n, w_max=3, random_b=bool(rng.integers(0, 2)))
            net = build_network(build_auxiliary_graph(G), range(n), (),
                                int(rng.integers(1, 5)))
            for L, R in iter_symmetric_pairs(n):
                net.select(L, R)
                solve_both(net, snapshot(net))
    else:  # every solve of the seeded sweep and max-cut recursions
        solves = []
        real_max_flow = game.max_flow

        def spy(net):
            solves.append((net, snapshot(net)))
            return real_max_flow(net)

        monkeypatch.setattr(game, "max_flow", spy)
        ref._sweep_traffic()
        ref._maxcut_traffic()
        monkeypatch.setattr(game, "max_flow", real_max_flow)
        for net, snap in solves:
            ref._restore(net, *snap)
            solve_both(net, snap)
    assert min(first_depth3[True], first_depth3[False]) >= 10


def test_decompose_zero_flow(single_edge):
    aux = build_auxiliary_graph(single_edge)
    net = build_network(aux, {0}, set(), 1)
    flow = max_flow(net)
    assert decompose_flow(flow) == []


def test_decompose_k3_saturating(k3):
    aux = build_auxiliary_graph(k3)
    net = build_network(aux, {0}, set(), 2)
    flow = max_flow(net)
    paths = decompose_flow(flow)
    assert sum(p.units for p in paths) == 2
    for p in paths:
        assert net.head[p.arcs[0]] == 0  # enters at the plus copy of 0
        assert net.head[p.arcs[-1] ^ 1] == 3  # leaves at the minus copy of 0
        assert len(p.arcs) % 2 == 1  # an odd number of middle arcs


def test_decompose_two_parallel_unit_paths():
    # Two disjoint unit source->sink routes decompose into exactly those two:
    # 0+ -> 1- over copy 0 of the edge, and 1+ -> 0- over copy 1.
    G = WeightedGraph(2, ((0, 1, 1),), (1, 1))
    net = build_network(build_auxiliary_graph(G), {0, 1}, set(), 1)
    flow = max_flow(net)
    assert flow.value == 2
    paths = decompose_flow(flow)
    # Arcs 0 and 2 leave the source for 0+ and 1+, arcs 8 and 10 enter the
    # sink from 0- and 1-, and arcs 16 and 18 run copies 0 and 1 of the edge.
    assert sorted(paths) == [FlowPath((0, 16, 10), 1), FlowPath((2, 18, 8), 1)]
    assert [net.arc_tag[p.arcs[1]] for p in sorted(paths)] == [(0, 0), (0, 1)]
    assert [(net.head[p.arcs[1] ^ 1], net.head[p.arcs[1]]) for p in sorted(paths)] == [
        (0, 3), (1, 2)]


def test_demand_graph_k3_self_loop(k3):
    aux = build_auxiliary_graph(k3)
    net = build_network(aux, {0}, set(), 2)
    flow = max_flow(net)
    M = demand_graph(decompose_flow(flow), net)
    assert M.pairs == {(0, 0): 2}
    degs = M.degrees()
    assert degs[0] == 4 == 2 * k3.b[0]
    assert degs[1] == 0


def test_demand_graph_empty_and_entry_exit(single_edge):
    aux = build_auxiliary_graph(single_edge)
    net = build_network(aux, {0}, set(), 1)
    flow = max_flow(net)
    assert demand_graph([], net).pairs == {}
    paths = decompose_flow(flow)
    assert demand_graph(paths, net).pairs == {}


def test_demand_graph_cross_pair():
    # Saturating selection on a single edge: L = {0, 1} at k = 1 routes one
    # unit each way, giving the demand edge {0, 1} with multiplicity 2.
    G = WeightedGraph(2, ((0, 1, 1),), (1, 1))
    aux = build_auxiliary_graph(G)
    net = build_network(aux, {0, 1}, set(), 1)
    flow = max_flow(net)
    assert is_saturating(flow)
    M = demand_graph(decompose_flow(flow), net)
    assert M.pairs == {(0, 1): 2}
    assert M.degrees() == [2, 2]


def test_demand_graph_rejects_malformed(k3):
    aux = build_auxiliary_graph(k3)
    net = build_network(aux, {0, 1}, set(), 2)  # A = {0+, 1+}, B = {0-, 1-}
    walk = decompose_flow(max_flow(net))[0].arcs
    source_arcs, sink_arcs, middle_arcs = _layout(net)
    demand_graph([FlowPath(walk, 1)], net)
    # A walk entering at 2+, which is not a source-side copy here.
    wrong_entry = (4,) + walk[1:]
    assert net.head[4] == 2 and _tail(net, 4) == net.source
    # Walks of one or two arcs whose ends pass the endpoint test: the middle
    # arc from 1- to 0+, and the arcs into 0+ from the source and out of 0-
    # to the sink.
    back = next(a for a in middle_arcs + [a ^ 1 for a in middle_arcs]
                if net.head[a] == 0 and _tail(net, a) == 4)
    # A three-arc walk whose interior is a terminal arc: into 0+ from the
    # source, then out of 0- and out of 1- to the sink.
    terminal_inside = (source_arcs[0], sink_arcs[0], sink_arcs[1])
    assert terminal_inside == (0, 12, 14)
    for bad in [wrong_entry, (back,), (), (source_arcs[0], sink_arcs[0]),
                terminal_inside]:
        with pytest.raises(MalformedPathError):
            demand_graph([FlowPath(bad, 1)], net)


def test_per_copy_congestion_bounded():
    rng = np.random.default_rng(7)
    seen = 0
    while seen < 25:
        n = int(rng.integers(2, 7))
        G = random_test_graph(rng, n, w_max=2)
        aux = build_auxiliary_graph(G)
        k = int(rng.integers(1, 4))
        size = int(rng.integers(1, n + 1))
        L = frozenset(int(i) for i in rng.choice(n, size=size, replace=False))
        net = build_network(aux, L, frozenset(), k)
        flow = max_flow(net)
        if not is_saturating(flow):
            continue
        load: dict[tuple[int, int], int] = {}
        for arcs, units in decompose_flow(flow):
            for a in arcs[1:-1]:
                load[net.arc_tag[a]] = load.get(net.arc_tag[a], 0) + units
        for e, (_, _, w) in enumerate(G.edges):
            assert load.get((e, 0), 0) <= w * k and load.get((e, 1), 0) <= w * k
        seen += 1


def test_degrees_follow_the_read_only_pairs():
    # The graph keeps no dict and no degree list: every read is built anew
    # from the ledger tuples, so writing into a returned dict changes nothing.
    given = {(0, 1): 2, (2, 2): 1}
    M = DemandMultigraph(3, given)
    given[(0, 0)] = 5
    assert M.degrees() == [2, 2, 2]
    first, second = M.pairs, M.pairs
    assert first == second == {(0, 1): 2, (2, 2): 1} and first is not second
    first[(0, 1)] = 7
    first[(1, 1)] = 1
    assert M.pairs == {(0, 1): 2, (2, 2): 1}
    assert M.degrees() == [2, 2, 2]


@pytest.mark.parametrize("pairs", [{(0, -1): 1}, {(0, 3): 1}, {(-1, 2): 1, (0, 1): 1},
                                   {(1, 0): 1}, {(2, 1): 1, (0, 1): 1}])
def test_demand_pairs_outside_the_vertex_range_are_rejected(pairs):
    # A negative index would wrap to another vertex, and one past the end
    # would fail later with a bare IndexError.  A pair has one key form,
    # (i, j) with i <= j, so a reversed key is refused too.
    with pytest.raises(ValueError, match=r"range\(3\)"):
        DemandMultigraph(3, pairs)
    assert DemandMultigraph(3, {(0, 2): 1, (1, 1): 2}).degrees() == [1, 4, 1]


@pytest.mark.parametrize("units", [-3, 0, 1.5])
def test_demand_multiplicities_must_be_positive_integers(units):
    # A negative count gave negative degrees and a negative brute-force
    # ratio; a fractional one was ignored by the brute-force ratio.
    with pytest.raises(ValueError, match="not an integer >= 1"):
        DemandMultigraph(3, {(0, 2): 1, (0, 1): units})


def test_demand_union():
    a = DemandMultigraph(3, {(0, 1): 1})
    b = DemandMultigraph(3, {(0, 1): 2, (2, 2): 1})
    u = DemandMultigraph.union([a, b], 3)
    assert u.pairs == {(0, 1): 3, (2, 2): 1}
    assert list(u.pairs) == [(0, 1), (2, 2)]  # keys in first-seen order
    assert u.degrees()[2] == 2
    assert DemandMultigraph.union([], 5).n == 5
    with pytest.raises(ValueError):
        DemandMultigraph.union([a, DemandMultigraph(4)], 3)


def test_flow_value_equals_enumerated_min_cut():
    # Cross-check the solver against exhaustive cut enumeration.
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        G = random_test_graph(rng, n, w_max=3, random_b=True)
        aux = build_auxiliary_graph(G)
        k = int(rng.integers(1, 4))
        L = frozenset(int(i) for i in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                                 replace=False))
        net = build_network(aux, L, frozenset(), k)
        value = max_flow(net).value
        nodes = [v for v in range(net.n_nodes) if v not in (net.source, net.sink)]
        best = None
        for mask in range(1 << len(nodes)):
            X = {net.source}
            X.update(v for i, v in enumerate(nodes) if (mask >> i) & 1)
            cap = cut_capacity(net, X)
            best = cap if best is None else min(best, cap)
        assert best == value


def _networkx_flow_value(G, aux, L, R, k):
    """Max-flow value of the selection network, built and solved by networkx."""
    D = nx.DiGraph()

    def add(u, v, c):
        if D.has_edge(u, v):
            D[u][v]["capacity"] += c
        else:
            D.add_edge(u, v, capacity=c)

    n = G.n
    for i in L:
        add("s", i, G.b[i])
        add(n + i, "t", G.b[i])
    for i in R:
        add("s", n + i, G.b[i])
        add(i, "t", G.b[i])
    for a, b_node, w, _ in aux.aux_edges:
        add(a, b_node, w * k)
        add(b_node, a, w * k)
    return nx.maximum_flow_value(D, "s", "t")


def _check_paths_against_arc_flows(net, flow, paths):
    # Each pair's net flow must be the path units routed along it plus what
    # cycle cancellation removed: a circulation running with the flow.
    # Replaying the peel on the routed units, every path must leave each node
    # along its lowest-id out-arc that still carries units.
    # Each walk runs from a selected source arc over contiguous middle arcs
    # to a selected sink arc.
    source_arcs, sink_arcs, _ = _layout(net)
    walks = [p.arcs for p in paths]
    for arcs in walks:
        assert type(arcs) is tuple and len(arcs) >= 3
        assert arcs[0] in source_arcs and arcs[-1] in sink_arcs
        assert all(net.arc_tag[a] is not None for a in arcs[1:-1])
        assert all(net.head[a] == _tail(net, b) for a, b in zip(arcs, arcs[1:]))
    routed = [0] * len(net.head)
    for p, arcs in zip(paths, walks):
        for a in arcs:
            routed[a] += p.units
    balance = [0] * net.n_nodes
    for a in range(0, len(net.head), 2):
        f = _arc_flow(flow, a)
        r = routed[a] - routed[a + 1]
        if net.arc_tag[a] is None:
            assert r == f
            continue
        assert not (routed[a] and routed[a + 1])
        assert 0 <= r * (1 if f >= 0 else -1) <= abs(f)
        balance[_tail(net, a)] -= f - r
        balance[net.head[a]] += f - r
    assert not any(balance)
    for p, arcs in zip(paths, walks):
        for a in arcs:
            assert a == min(x for x in net.adj[_tail(net, a)] if routed[x] > 0)
        for a in arcs:
            routed[a] -= p.units


def test_reselected_network_matches_fresh_builds():
    # One network re-selected for every symmetric pair must give the flows,
    # paths and demand graphs of a fresh network per pair, and the flow value
    # networkx finds on the same network.
    rng = np.random.default_rng(2024)
    for _ in range(8):
        n = int(rng.integers(2, 7))
        G = random_test_graph(rng, n, w_max=3, random_b=bool(rng.integers(0, 2)))
        aux = build_auxiliary_graph(G)
        k = int(rng.integers(1, 4))
        shared = build_network(aux, range(n), (), k)
        for L, R in iter_symmetric_pairs(n):
            shared.select(L, R)
            fresh = build_network(aux, L, R, k)
            flow, fresh_flow = max_flow(shared), max_flow(fresh)
            assert flow.value == fresh_flow.value == _networkx_flow_value(G, aux, L, R, k)
            assert shared.b_A == fresh.b_A and shared.A == fresh.A and shared.B == fresh.B
            paths = decompose_flow(flow)
            assert paths == decompose_flow(fresh_flow)
            assert sum(p.units for p in paths) == flow.value
            _check_paths_against_arc_flows(shared, flow, paths)
            M, M_fresh = demand_graph(paths, shared), demand_graph(paths, fresh)
            assert list(M.pairs.items()) == list(M_fresh.pairs.items())


def test_max_flow_twice_needs_select(k3):
    aux = build_auxiliary_graph(k3)
    net = build_network(aux, {0}, set(), 2)
    assert max_flow(net).value == 2
    with pytest.raises(RuntimeError):
        max_flow(net)
    net.select({0}, set())
    assert max_flow(net).value == 2
    net.select({1}, {2})
    source, sink, _ = _layout(net)
    assert len(source) == len(sink) == 2
    assert max_flow(net).value == max_flow(build_network(aux, {1}, {2}, 2)).value
    with pytest.raises(EmptySelectionError):
        net.select(set(), set())
    with pytest.raises(ValueError):
        net.select({0}, {0})
