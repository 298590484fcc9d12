import networkx as nx
import numpy as np
import pytest

from bipratio import (
    DemandMultigraph,
    EmptySelectionError,
    FlowNetwork,
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
from bipratio.flow import cut_capacity
from bipratio.oracle import iter_symmetric_pairs
from bipratio.verify import random_test_graph


def test_network_shape_single_edge(single_edge):
    aux = build_auxiliary_graph(single_edge)
    net = build_network(aux, {0}, set(), 1)
    assert net.b_A == 1
    assert len(net.source_arcs) == 1 and len(net.sink_arcs) == 1
    assert len(net.middle_arcs) == 2
    assert all(net.cap0[a] == 1 for a in net.middle_arcs)
    net3 = build_network(aux, {0}, set(), 3)
    assert all(net3.cap0[a] == 3 for a in net3.middle_arcs)
    assert net3.cap0[net3.source_arcs[0]] == 1  # source caps do not scale


def test_network_shape_k3(k3):
    aux = build_auxiliary_graph(k3)
    net = build_network(aux, {0, 1, 2}, set(), 2)
    assert len(net.source_arcs) == 3 and len(net.sink_arcs) == 3
    assert all(net.cap0[a] == 2 for a in net.source_arcs)
    assert all(net.cap0[a] == 2 for a in net.middle_arcs)


def test_network_rejects_bad_selection(k3):
    aux = build_auxiliary_graph(k3)
    with pytest.raises(EmptySelectionError):
        build_network(aux, set(), set(), 1)
    with pytest.raises(ValueError):
        build_network(aux, {0}, {0}, 1)


def test_bottleneck_path_network():
    # s -> a (cap 2), a -- b (cap 1), b -> t (cap 2): value 1.
    net = FlowNetwork(4, source=0, sink=3)
    net.add_source_arc(1, 2)
    net.add_middle_edge(1, 2, 1)
    net.add_sink_arc(2, 2)
    assert max_flow(net).value == 1


def test_single_edge_singleton_not_saturating(single_edge):
    aux = build_auxiliary_graph(single_edge)
    net = build_network(aux, {0}, set(), 1)
    flow = max_flow(net)
    assert flow.value == 0
    assert not is_saturating(net, flow)


def test_k3_singleton_saturates_at_k2(k3):
    aux = build_auxiliary_graph(k3)
    net = build_network(aux, {0}, set(), 2)
    flow = max_flow(net)
    assert flow.value == 2
    assert is_saturating(net, flow)
    assert flow.max_conservation_violation() == 0


def test_consistent_cut_single_edge(single_edge):
    aux = build_auxiliary_graph(single_edge)
    net = build_network(aux, {0}, set(), 1)
    flow = max_flow(net)
    x = consistent_min_cut(net, flow)
    assert x == (1, -1)
    assert evaluate_beta(single_edge, x) == 0


def test_consistent_cut_rejects_saturating(k3):
    aux = build_auxiliary_graph(k3)
    net = build_network(aux, {0}, set(), 3)
    flow = max_flow(net)
    assert is_saturating(net, flow)
    with pytest.raises(SaturatingFlowError):
        consistent_min_cut(net, flow)


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
            if is_saturating(net, flow):
                continue
            x = consistent_min_cut(net, flow)
            reduced = {net.source}
            reduced.update(i for i in range(n) if x[i] == 1)
            reduced.update(n + i for i in range(n) if x[i] == -1)
            assert cut_capacity(net, reduced) == flow.value
            assert evaluate_beta(G, x) * k < 1
            seen += 1
            if seen >= 40:
                break


def test_consistent_cut_reuses_the_last_search(monkeypatch):
    # consistent_min_cut reads the residual source side that max_flow's final
    # search found; it runs no search of its own.
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
        flow = max_flow(net)
        if is_saturating(net, flow):
            continue
        level = real_bfs(net)
        assert flow.source_side == {v for v, lv in enumerate(level) if lv >= 0}
        calls.clear()
        consistent_min_cut(net, flow)
        assert calls == []
        seen += 1


def test_decompose_zero_flow(single_edge):
    aux = build_auxiliary_graph(single_edge)
    net = build_network(aux, {0}, set(), 1)
    flow = max_flow(net)
    assert decompose_flow(net, flow) == []


def test_decompose_k3_saturating(k3):
    aux = build_auxiliary_graph(k3)
    net = build_network(aux, {0}, set(), 2)
    flow = max_flow(net)
    paths = decompose_flow(net, flow)
    assert sum(p.units for p in paths) == 2
    for p in paths:
        assert p.nodes[0] == 0  # enters at the plus copy of 0
        assert p.nodes[-1] == 3  # leaves at the minus copy of 0
        assert len(p.middle) % 2 == 1


def test_decompose_two_parallel_unit_paths():
    # Two disjoint unit source->sink routes decompose into exactly those two.
    net = FlowNetwork(6, source=0, sink=5)
    net.add_source_arc(1, 1)
    net.add_source_arc(2, 1)
    net.add_middle_edge(1, 3, 1)
    net.add_middle_edge(2, 4, 1)
    net.add_sink_arc(3, 1)
    net.add_sink_arc(4, 1)
    flow = max_flow(net)
    assert flow.value == 2
    paths = decompose_flow(net, flow)
    assert sorted((p.nodes, p.units) for p in paths) == [((1, 3), 1), ((2, 4), 1)]


def test_demand_graph_k3_self_loop(k3):
    aux = build_auxiliary_graph(k3)
    net = build_network(aux, {0}, set(), 2)
    flow = max_flow(net)
    M = demand_graph(decompose_flow(net, flow), net)
    assert M.pairs == {(0, 0): 2}
    assert M.degree(0) == 4 == 2 * k3.b[0]
    assert M.degree(1) == 0


def test_demand_graph_empty_and_entry_exit(single_edge):
    aux = build_auxiliary_graph(single_edge)
    net = build_network(aux, {0}, set(), 1)
    flow = max_flow(net)
    assert demand_graph([], net).pairs == {}
    paths = decompose_flow(net, flow)
    assert demand_graph(paths, net).pairs == {}


def test_demand_graph_cross_pair():
    # Saturating selection on a single edge: L = {0, 1} at k = 1 routes one
    # unit each way, giving the demand edge {0, 1} with multiplicity 2.
    G = WeightedGraph(2, ((0, 1, 1),), (1, 1))
    aux = build_auxiliary_graph(G)
    net = build_network(aux, {0, 1}, set(), 1)
    flow = max_flow(net)
    assert is_saturating(net, flow)
    M = demand_graph(decompose_flow(net, flow), net)
    assert M.pairs == {(0, 1): 2}
    assert M.degree(0) == 2 and M.degree(1) == 2


def test_demand_graph_rejects_malformed(k3):
    from bipratio.flow import FlowPath

    aux = build_auxiliary_graph(k3)
    net = build_network(aux, {0}, set(), 2)
    max_flow(net)
    bad = FlowPath((1, 4), 1, ())
    with pytest.raises(MalformedPathError):
        demand_graph([bad], net)


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
        if not is_saturating(net, flow):
            continue
        M = demand_graph(decompose_flow(net, flow), net)
        for e, (_, _, w) in enumerate(G.edges):
            c0, c1 = M.copy_usage(e)
            assert c0 <= w * k and c1 <= w * k
        seen += 1


def test_demand_union():
    a = DemandMultigraph(3, {(0, 1): 1}, {(0, 0): 1})
    b = DemandMultigraph(3, {(0, 1): 2, (2, 2): 1}, {(0, 0): 2})
    u = DemandMultigraph.union([a, b])
    assert u.pairs == {(0, 1): 3, (2, 2): 1}
    assert list(u.pairs) == [(0, 1), (2, 2)]  # keys in first-seen order
    assert u.usage == {(0, 0): 3}
    assert u.degree(2) == 2
    assert DemandMultigraph.union([], n=5).n == 5
    with pytest.raises(ValueError):
        DemandMultigraph.union([a, DemandMultigraph(4)])


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
    source_arc = {net.head[a]: a for a in net.source_arcs}
    sink_arc = {net.tail(a): a for a in net.sink_arcs}
    middle_arc = {net.arc_tag[a]: a for a in net.middle_arcs}
    walks = []
    for p in paths:
        arcs = [source_arc[p.nodes[0]]]
        for u, tag in zip(p.nodes, p.middle):
            a = middle_arc[tag]
            arcs.append(a if net.tail(a) == u else a ^ 1)
        arcs.append(sink_arc[p.nodes[-1]])
        assert tuple(net.head[a] for a in arcs[:-1]) == p.nodes
        walks.append(arcs)
    routed = [0] * len(net.head)
    for p, arcs in zip(paths, walks):
        for a in arcs:
            routed[a] += p.units
    balance = [0] * net.n_nodes
    for a in range(0, len(net.head), 2):
        f = flow.arc_flow(a)
        r = routed[a] - routed[a + 1]
        if net.arc_tag[a] is None:
            assert r == f
            continue
        assert not (routed[a] and routed[a + 1])
        assert 0 <= r * (1 if f >= 0 else -1) <= abs(f)
        balance[net.tail(a)] -= f - r
        balance[net.head[a]] += f - r
    assert not any(balance)
    for p, arcs in zip(paths, walks):
        for a in arcs:
            assert a == min(x for x in net.adj[net.tail(a)] if routed[x] > 0)
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
            paths = decompose_flow(shared, flow)
            assert paths == decompose_flow(fresh, fresh_flow)
            assert sum(p.units for p in paths) == flow.value
            _check_paths_against_arc_flows(shared, flow, paths)
            M, M_fresh = demand_graph(paths, shared), demand_graph(paths, fresh)
            assert list(M.pairs.items()) == list(M_fresh.pairs.items())
            assert list(M.usage.items()) == list(M_fresh.usage.items())


def test_max_flow_twice_needs_select(k3):
    aux = build_auxiliary_graph(k3)
    net = build_network(aux, {0}, set(), 2)
    assert max_flow(net).value == 2
    with pytest.raises(RuntimeError):
        max_flow(net)
    net.select({0}, set())
    assert max_flow(net).value == 2
    net.select({1}, {2})
    assert len(net.source_arcs) == len(net.sink_arcs) == 2
    assert max_flow(net).value == max_flow(build_network(aux, {1}, {2}, 2)).value
    with pytest.raises(EmptySelectionError):
        net.select(set(), set())
    with pytest.raises(ValueError):
        net.select({0}, {0})
