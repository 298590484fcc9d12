"""Flow side of the machinery: networks over the doubled graph, blocking-flow
max-flow, consistent minimum cuts, path decomposition and demand graphs.

A selection network for disjoint (L, R) wires a super source into the plus
copies of L and the minus copies of R (arc capacity b there), the mirror
copies into a super sink, and keeps every doubled-graph edge as an undirected
middle edge of capacity w(e) * k, where the integer k is the reciprocal of
the ratio guess being tested.  A feasible flow is *saturating* when it meets
the full source capacity b(A); the selection is then called well-linked at
ratio 1/k.  When the maximum flow falls short, the residual cut can always be
reduced to a *consistent* one (at most one copy of each vertex on the source
side) of equal value, and that cut reads off a sign vector whose ratio is
strictly below 1/k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    EmptySelectionError,
    MalformedPathError,
    SaturatingFlowError,
)
from .graph import AuxiliaryGraph, SignVector, evaluate_beta


class FlowNetwork:
    """Integer-capacity s-t network stored as paired residual arcs.

    Arc a and arc a ^ 1 are each other's reverses.  A directed arc is a pair
    with reverse capacity 0; an undirected edge is a pair whose two residual
    capacities both start at the edge capacity, so the two directions share
    one capacity (net flow in [-c, +c]).

    Middle arcs carry a (base edge id, copy) tag, stored under both arc ids
    of the pair, so that path decompositions can account congestion per
    doubled-graph edge.  A selection network from ``build_network`` is built
    once per graph and k; ``select`` re-targets it at another (L, R) by
    rewriting the terminal capacities and restoring every residual, and
    each selection is solved once.
    """

    def __init__(self, n_nodes: int, source: int, sink: int, n_base: int = 0):
        self.n_nodes = n_nodes
        self.source = source
        self.sink = sink
        self.n_base = n_base
        self.aux: AuxiliaryGraph | None = None
        self.k: int | None = None
        self.head: list[int] = []
        self.cap: list[int] = []
        self.cap0: list[int] = []
        self.arc_tag: list[tuple[int, int] | None] = []
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.source_arcs: list[int] = []
        self.sink_arcs: list[int] = []
        self.middle_arcs: list[int] = []
        self.A: frozenset[int] = frozenset()
        self.B: frozenset[int] = frozenset()
        self.b_A = 0
        self.solved = False

    def _add_pair(self, u: int, v: int, cap_uv: int, cap_vu: int) -> int:
        a = len(self.head)
        self.head += (v, u)
        self.cap += (cap_uv, cap_vu)
        self.cap0 += (cap_uv, cap_vu)
        self.arc_tag += (None, None)
        self.adj[u].append(a)
        self.adj[v].append(a + 1)
        return a

    def add_source_arc(self, node: int, cap: int) -> int:
        a = self._add_pair(self.source, node, cap, 0)
        self.source_arcs.append(a)
        self.b_A += cap
        return a

    def add_sink_arc(self, node: int, cap: int) -> int:
        a = self._add_pair(node, self.sink, cap, 0)
        self.sink_arcs.append(a)
        return a

    def add_middle_edge(self, u: int, v: int, cap: int, tag: tuple[int, int] | None = None) -> int:
        a = self._add_pair(u, v, cap, cap)
        self.middle_arcs.append(a)
        self.arc_tag[a] = self.arc_tag[a + 1] = tag
        return a

    def tail(self, arc: int) -> int:
        return self.head[arc ^ 1]

    def select(self, L: Iterable[int], R: Iterable[int]) -> None:
        """Re-target a ``build_network`` network at the disjoint pair (L, R).

        Writes the 4n terminal capacities (b on the selected arcs, 0 on the
        rest), restores every residual capacity, and clears the solved flag.
        """
        L = frozenset(L)
        R = frozenset(R)
        if L & R:
            raise ValueError("L and R must be disjoint")
        if not (L or R):
            raise EmptySelectionError("L and R are both empty")
        n = self.n_base
        if min(L | R) < 0 or max(L | R) >= n:
            raise ValueError(f"selected vertices must lie in range({n})")
        b = self.aux.base.b
        cap0 = self.cap0
        # Terminal pair ids, in build_network's layout: source -> plus copy i
        # is pair i, source -> minus copy n + i is n + i, minus copy n + i
        # -> sink is 2n + i, plus copy i -> sink is 3n + i.
        for i in range(n):
            on_L = b[i] if i in L else 0
            on_R = b[i] if i in R else 0
            cap0[2 * i] = cap0[2 * (2 * n + i)] = on_L
            cap0[2 * (n + i)] = cap0[2 * (3 * n + i)] = on_R
        self.cap[:] = cap0
        left, right = sorted(L), sorted(R)
        self.source_arcs = [2 * i for i in left] + [2 * (n + i) for i in right]
        self.sink_arcs = [2 * (2 * n + i) for i in left] + [2 * (3 * n + i) for i in right]
        self.A = frozenset(left + [n + i for i in right])
        self.B = frozenset([n + i for i in left] + right)
        self.b_A = sum(b[i] for i in left) + sum(b[i] for i in right)
        self.solved = False


def build_network(aux: AuxiliaryGraph, L: Iterable[int], R: Iterable[int], k: int) -> FlowNetwork:
    """Selection network for disjoint (L, R) at congestion parameter k >= 1.

    Source side A is the plus copies of L plus the minus copies of R; sink
    side B mirrors it.  Source/sink arcs carry the vertex weights, middle
    edges carry w(e) * k.  Terminal arcs are laid out for all 2n copies
    (source to plus copies, source to minus copies, minus copies to sink,
    plus copies to sink), unselected ones at capacity 0, so that
    ``FlowNetwork.select`` can re-target the network without rebuilding
    the middle edges; every scan meets the positive-capacity arcs in the
    order of a network holding the selected arcs alone.
    """
    if k < 1 or int(k) != k:
        raise ValueError(f"k must be a positive integer, got {k}")
    n = aux.base.n
    net = FlowNetwork(2 * n + 2, source=2 * n, sink=2 * n + 1, n_base=n)
    for copy in range(2 * n):
        net._add_pair(net.source, copy, 0, 0)
    for copy in (*range(n, 2 * n), *range(n)):
        net._add_pair(copy, net.sink, 0, 0)
    for idx, (a, bnode, w, e) in enumerate(aux.aux_edges):
        net.add_middle_edge(a, bnode, w * k, tag=(e, idx % 2))
    net.aux = aux
    net.k = int(k)
    net.select(L, R)
    return net


@dataclass
class FlowAssignment:
    """An integral feasible flow, read out of the solved network residuals;
    it is valid until the network is re-selected.  ``source_side`` holds the
    nodes reachable from the source in the final residual network."""

    network: FlowNetwork
    value: int
    source_side: frozenset[int]

    def arc_flow(self, arc: int) -> int:
        """Net flow in the stored direction of ``arc`` (negative = reverse)."""
        return self.network.cap0[arc] - self.network.cap[arc]

    def max_conservation_violation(self) -> int:
        """Largest absolute flow imbalance over non-terminal nodes (audit)."""
        net = self.network
        balance = [0] * net.n_nodes
        for a in range(0, len(net.head), 2):
            f = self.arc_flow(a)
            balance[net.tail(a)] -= f
            balance[net.head[a]] += f
        worst = 0
        for node in range(net.n_nodes):
            if node in (net.source, net.sink):
                continue
            worst = max(worst, abs(balance[node]))
        return worst


def _bfs_levels(net: FlowNetwork) -> list[int]:
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


def max_flow(net: FlowNetwork) -> FlowAssignment:
    """Maximum integral source-sink flow via blocking flows on level graphs.

    The solve mutates the network residuals in place, so a network is solved
    once per selection (``FlowNetwork.select`` restores it), and audits
    itself: the residual source-side cut must have capacity equal to the
    flow value.
    """
    if net.solved:
        raise RuntimeError("network already solved; select() a pair before solving again")
    adj, head, cap = net.adj, net.head, net.cap
    s, t = net.source, net.sink
    total = 0
    while True:
        level = _bfs_levels(net)
        if level[t] < 0:
            break
        it = [0] * net.n_nodes
        path: list[int] = []
        u = s
        while True:
            if u == t:
                # The first arc of least residual is the first one saturated.
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
    # The last search could not reach the sink: what it reached is the
    # residual source side.
    X = frozenset(v for v, lv in enumerate(level) if lv >= 0)
    if cut_capacity(net, X) != total:
        raise AssertionError("max-flow/min-cut audit failed")
    return FlowAssignment(net, total, X)


def cut_capacity(net: FlowNetwork, X: Iterable[int]) -> int:
    """Capacity of the cut (X, complement); X must contain the source only."""
    X = set(X)
    if net.source not in X or net.sink in X:
        raise ValueError("X must contain the source and not the sink")
    head, cap0 = net.head, net.cap0
    return sum(cap0[a] for u in X for a in net.adj[u]
               if cap0[a] > 0 and head[a] not in X)


def is_saturating(net: FlowNetwork, flow: FlowAssignment) -> bool:
    """True when the flow meets the full source capacity b(A)."""
    return flow.value == net.b_A


def consistent_min_cut(net: FlowNetwork, flow: FlowAssignment) -> SignVector:
    """Sign vector read from the consistency-reduced residual minimum cut.

    Requires a maximum flow that does not saturate.  Takes the source-side
    residual cut, drops both copies of every vertex present twice, and maps
    the surviving plus copies to +1 and minus copies to -1.  Dropping copies
    never increases the cut value, so the reduced cut is still minimum and
    the resulting vector has ratio strictly below 1/k; both facts are
    enforced here.
    """
    if is_saturating(net, flow):
        raise SaturatingFlowError("flow saturates; no cut below b(A) exists")
    X = flow.source_side
    n = net.n_base
    x = [0] * n
    for i in range(n):
        in_plus = i in X
        in_minus = (n + i) in X
        if in_plus and in_minus:
            continue
        if in_plus:
            x[i] = 1
        elif in_minus:
            x[i] = -1
    if not any(x):
        raise AssertionError("consistency reduction emptied a non-saturating cut")
    reduced = {net.source}
    reduced.update(i for i in range(n) if x[i] == 1)
    reduced.update(n + i for i in range(n) if x[i] == -1)
    if cut_capacity(net, reduced) != flow.value:
        raise AssertionError("consistency reduction changed the cut value")
    if net.aux is not None and net.k is not None:
        beta = evaluate_beta(net.aux.base, tuple(x))
        if beta * net.k >= 1:
            raise AssertionError("reduced cut does not beat the ratio guess")
    return tuple(x)


class FlowPath(NamedTuple):
    """One source-to-sink path with an integral multiplicity.

    ``nodes`` lists the doubled-graph nodes in order, terminals excluded, so
    nodes[0] is the entry vertex (source side) and nodes[-1] the exit vertex
    (sink side).  ``middle`` lists the traversed middle edges as
    (base edge id, copy) tags.  A named tuple, because a decomposition
    builds one per path and a tuple is the cheapest immutable record.
    """

    nodes: tuple[int, ...]
    units: int
    middle: tuple[tuple[int, int], ...]


def _flow_graph(net: FlowNetwork) -> tuple[list[int], list[list[int]]]:
    """Flow per arc id (each pair's net flow sits on the arc it runs along),
    and each node's flow-carrying out-arcs in increasing arc id."""
    cap0, cap, head = net.cap0, net.cap, net.head
    flows = [0] * len(cap)
    out: list[list[int]] = [[] for _ in range(net.n_nodes)]
    for a in range(0, len(cap), 2):
        f = cap0[a] - cap[a]
        if f > 0:
            flows[a] = f
            out[head[a + 1]].append(a)
        elif f < 0:
            flows[a + 1] = -f
            out[head[a]].append(a + 1)
    return flows, out


def _find_cycle(net: FlowNetwork, flows: list[int],
                out: list[list[int]]) -> list[int] | None:
    head = net.head
    color = [0] * net.n_nodes
    for start in range(net.n_nodes):
        if color[start]:
            continue
        stack = [(start, 0)]
        trail: list[int] = []
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


def _cancel_cycles(net: FlowNetwork, flows: list[int], out: list[list[int]]) -> None:
    # Flow cycles carry no source-sink value; strip them so the remaining
    # flow graph is acyclic and walks from the source must reach the sink.
    while True:
        cycle = _find_cycle(net, flows, out)
        if cycle is None:
            return
        c = min(flows[a] for a in cycle)
        for a in cycle:
            flows[a] -= c


def decompose_flow(net: FlowNetwork, flow: FlowAssignment) -> list[FlowPath]:
    """Split a feasible flow into source-to-sink paths with multiplicities.

    Cycles are cancelled first; paths are then peeled greedily, always
    leaving a node along its lowest-id out-arc that still carries flow, and
    each peel subtracts the path bottleneck.  Flows only decrease, so a
    per-node pointer past the emptied out-arcs finds that arc without a
    rescan, and the next walk keeps the prefix up to the first arc the peel
    emptied.  Multiplicities sum to the flow value and the number of
    distinct paths is at most the number of flow-carrying arcs.
    """
    head, arc_tag = net.head, net.arc_tag
    flows, out = _flow_graph(net)
    _cancel_cycles(net, flows, out)
    ptr = [0] * net.n_nodes
    paths: list[FlowPath] = []
    remaining = flow.value
    arcs: list[int] = []
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
        for a in arcs:
            flows[a] -= units
        nodes = tuple([head[a] for a in arcs[:-1]])
        middle = tuple([tag for tag in map(arc_tag.__getitem__, arcs[1:-1])
                        if tag is not None])
        paths.append(FlowPath(nodes, units, middle))
        remaining -= units
        u = head[arcs[cut] ^ 1]
        del arcs[cut:]
    if any(flows):
        raise AssertionError("leftover flow after path extraction")
    return paths


class DemandMultigraph:
    """Multiset of vertex pairs recording flow-path endpoints.

    Self-loops (a path entering the plus copy and leaving the minus copy of
    one vertex) are allowed and count twice toward the degree.  The usage
    ledger maps a base edge id to the flow units routed through each of its
    two doubled copies.
    """

    def __init__(self, n: int, pairs: dict[tuple[int, int], int] | None = None,
                 usage: dict[tuple[int, int], int] | None = None):
        self.n = n
        self.pairs: dict[tuple[int, int], int] = dict(pairs or {})
        self.usage: dict[tuple[int, int], int] = dict(usage or {})

    def degree(self, i: int) -> int:
        d = 0
        for (a, b), c in self.pairs.items():
            if a == i:
                d += c
            if b == i:
                d += c
        return d

    def degrees(self) -> list[int]:
        d = [0] * self.n
        for (a, b), c in self.pairs.items():
            d[a] += c
            d[b] += c
        return d

    def total_multiplicity(self) -> int:
        return sum(self.pairs.values())

    def weighted_edges(self) -> Iterator[tuple[int, int, int]]:
        for (a, b) in sorted(self.pairs):
            yield a, b, self.pairs[(a, b)]

    def copy_usage(self, base_edge: int) -> tuple[int, int]:
        return (self.usage.get((base_edge, 0), 0), self.usage.get((base_edge, 1), 0))

    @staticmethod
    def union(graphs: Sequence["DemandMultigraph"], n: int | None = None) -> "DemandMultigraph":
        """Sum of the graphs' multiplicities and usage, keys in first-seen order."""
        if not graphs:
            if n is None:
                raise ValueError("empty union needs an explicit vertex count")
            return DemandMultigraph(n)
        n = graphs[0].n
        pairs: dict[tuple[int, int], int] = {}
        usage: dict[tuple[int, int], int] = {}
        for g in graphs:
            if g.n != n:
                raise ValueError("demand graphs live on different vertex sets")
            for key, c in g.pairs.items():
                pairs[key] = pairs.get(key, 0) + c
            for key, c in g.usage.items():
                usage[key] = usage.get(key, 0) + c
        return DemandMultigraph(n, pairs, usage)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DemandMultigraph) and self.n == other.n
                and self.pairs == other.pairs and self.usage == other.usage)

    def __repr__(self) -> str:
        return f"DemandMultigraph(n={self.n}, pairs={self.pairs!r})"


def demand_graph(paths: Sequence[FlowPath], net: FlowNetwork) -> DemandMultigraph:
    """Demand graph of a path multiset: one parallel edge {i, j} per path unit
    entering at a copy of i and leaving at a copy of j, plus the per-copy
    usage ledger of every traversed middle edge."""
    n = net.n_base
    pairs: dict[tuple[int, int], int] = {}
    usage: dict[tuple[int, int], int] = {}
    for p in paths:
        if not p.nodes:
            raise MalformedPathError("path has no interior nodes")
        entry, exit_ = p.nodes[0], p.nodes[-1]
        if entry not in net.A or exit_ not in net.B:
            raise MalformedPathError(
                f"path endpoints ({entry}, {exit_}) are not a source/sink pair")
        i = entry if entry < n else entry - n
        j = exit_ if exit_ < n else exit_ - n
        key = (i, j) if i <= j else (j, i)
        pairs[key] = pairs.get(key, 0) + p.units
        for tag in p.middle:
            usage[tag] = usage.get(tag, 0) + p.units
    return DemandMultigraph(n, pairs, usage)
