"""Flow side of the machinery: networks over the doubled graph, blocking-flow
max-flow, consistent minimum cuts, decomposition into arc walks (each kept as
the arc ids it was peeled from) and the demand graphs read off those walks.

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
    """Selection network of the doubled graph at congestion parameter k >= 1,
    stored as paired residual arcs.

    Arc a and arc a ^ 1 are each other's reverses.  Node i is the plus copy
    and n + i the minus copy of base vertex i; 2n is the super source and
    2n + 1 the super sink.  The layout is fixed at construction: pair c is
    source -> copy c for c < 2n, pairs 2n + i and 3n + i lead minus copy
    n + i and plus copy i to the sink, and the doubled-graph edges follow as
    undirected middle edges of capacity w(e) * k, both residuals starting at
    that capacity (net flow in [-c, +c]).  Terminal arcs start at capacity 0
    in both directions; ``select`` writes the forward capacities of a
    selection (L, R) and restores every residual, and each selection is
    solved once.

    Middle arcs carry a (base edge id, copy) tag, stored under both arc ids
    of the pair, and terminal arcs carry None: ``demand_graph`` reads it to
    refuse a walk that crosses a terminal arc between its ends, and
    ``verify.check_flow_decomposition`` to count each doubled-graph edge's
    load from the walks.  ``pair_keys`` maps each
    demand pair recorded on this network to its one key tuple, which the
    demand graphs of every round share; it lives as long as the network,
    that is, one game.
    """

    def __init__(self, aux: AuxiliaryGraph, k: int):
        if k < 1 or int(k) != k:
            raise ValueError(f"k must be a positive integer, got {k}")
        n = aux.base.n
        self.aux = aux
        self.k = int(k)
        self.n_base = n
        self.n_nodes = 2 * n + 2
        self.source = 2 * n
        self.sink = 2 * n + 1
        self.head: list[int] = []
        self.cap: list[int] = []
        self.cap0: list[int] = []
        self.arc_tag: list[tuple[int, int] | None] = []
        self.pair_keys: dict[tuple[int, int], tuple[int, int]] = {}
        self.adj: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for copy in range(2 * n):
            self._add_pair(self.source, copy, 0, None)
        for copy in (*range(n, 2 * n), *range(n)):
            self._add_pair(copy, self.sink, 0, None)
        self.sink_arc = {self.head[a]: a ^ 1 for a in self.adj[self.sink]}  # copy -> arc to sink
        for idx, (u, v, w, e) in enumerate(aux.aux_edges):
            self._add_pair(u, v, w * self.k, (e, idx % 2))
        self.A: frozenset[int] = frozenset()
        self.B: frozenset[int] = frozenset()
        self.b_A = 0
        self.solved = False

    def _add_pair(self, u: int, v: int, cap: int, tag: tuple[int, int] | None) -> None:
        a = len(self.head)
        self.head += (v, u)
        self.cap += (cap, cap)
        self.cap0 += (cap, cap)
        self.arc_tag += (tag, tag)
        self.adj[u].append(a)
        self.adj[v].append(a + 1)

    def select(self, L: Iterable[int], R: Iterable[int]) -> None:
        """Re-target the network at the disjoint pair (L, R).

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
        for i in range(n):
            on_L = b[i] if i in L else 0
            on_R = b[i] if i in R else 0
            cap0[2 * i] = cap0[2 * (2 * n + i)] = on_L
            cap0[2 * (n + i)] = cap0[2 * (3 * n + i)] = on_R
        self.cap[:] = cap0
        left, right = sorted(L), sorted(R)
        self.A = frozenset(left + [n + i for i in right])
        self.B = frozenset([n + i for i in left] + right)
        self.b_A = sum(b[i] for i in left) + sum(b[i] for i in right)
        self.solved = False


def build_network(aux: AuxiliaryGraph, L: Iterable[int], R: Iterable[int], k: int) -> FlowNetwork:
    """Selection network for disjoint (L, R) at congestion parameter k >= 1.

    Source side A is the plus copies of L plus the minus copies of R; sink
    side B mirrors it.  Source/sink arcs carry the vertex weights, middle
    edges carry w(e) * k.  Unselected terminal arcs sit at capacity 0, so
    every scan meets the positive-capacity arcs in the order of a network
    holding the selected arcs alone.  Raises ValueError unless k is a
    positive integer.
    """
    net = FlowNetwork(aux, k)
    net.select(L, R)
    return net


@dataclass
class FlowAssignment:
    """An integral feasible flow of ``network``, read out of its residuals and
    valid until it is re-selected; readers of the flow take the network from
    here.  ``source_side``: the nodes the final residual search reached."""

    network: FlowNetwork
    value: int
    source_side: frozenset[int]


def _bfs_levels(net: FlowNetwork) -> list[int]:
    """Residual BFS levels up to the first level holding a copy with a
    residual sink arc, the sink one deeper; unreached nodes stay at -1."""
    adj, head, cap, sink_arc = net.adj, net.head, net.cap, net.sink_arc
    level = [-1] * net.n_nodes
    level[net.source] = depth = 0
    frontier = [net.source]
    while frontier:
        depth += 1
        reached = []
        for u in frontier:
            for a in adj[u]:
                if cap[a] > 0:
                    v = head[a]
                    if level[v] < 0:
                        level[v] = depth
                        reached.append(v)
        if any(cap[sink_arc[v]] > 0 for v in reached):
            level[net.sink] = depth + 1
            break
        frontier = reached
    return level


def max_flow(net: FlowNetwork) -> FlowAssignment:
    """Maximum integral source-sink flow via blocking flows on level graphs.

    Plain Dinic: each phase's BFS stops at the first level with a residual
    sink arc, and the blocking flow takes the arcs of ``adj`` in order that
    have residual and a head one level deeper; below that level lies only
    the sink, so the augmenting paths are those of a full-depth search.  A
    phase with the sink at level 3 (source -> source-side copy -> middle arc
    -> sink-side copy -> sink) is walked in straight-line code; deeper
    phases use a DFS.  The first phase reads its levels from the selection
    instead of searching: on the fresh residuals that ``select`` leaves,
    level 1 is the source side A (every selected source arc holds b >= 1)
    and level 2 every other copy that a middle arc reaches, so it is walked
    as a level-3 phase.  When the sink lies deeper, no level-2 copy has a
    residual sink arc and that walk pushes nothing; the BFS then finds the
    first phase as if it had run first.  The solve mutates the residuals in
    place, so a network is solved once per selection (``FlowNetwork.select``
    restores it), and audits itself: the residual source-side cut must equal
    the flow.
    """
    if net.solved:
        raise RuntimeError("network already solved; select() a pair before solving again")
    adj, head, cap, sink_arc = net.adj, net.head, net.cap, net.sink_arc
    s, t = net.source, net.sink
    total = 0
    level = [2] * net.n_nodes  # the first phase's levels, as read from A
    for v in net.A:
        level[v] = 1
    level[s], level[t] = 0, 3
    while True:
        if level[t] == 3:
            # The DFS's paths, without its stack: each source-side copy
            # pushes along its middle arcs in order until its source arc is
            # saturated, skipping heads whose sink arc is empty (dead).
            for a0 in adj[s]:
                room = cap[a0]
                if not room:
                    continue
                for a1 in adj[head[a0]]:
                    if not cap[a1] or level[head[a1]] != 2:
                        continue
                    a2 = sink_arc[head[a1]]
                    c2 = cap[a2]
                    if c2:
                        c1 = cap[a1]
                        aug = room if room < c1 else c1
                        if c2 < aug:
                            aug = c2
                        cap[a1] = c1 - aug
                        cap[a1 ^ 1] += aug
                        cap[a2] = c2 - aug
                        cap[a2 ^ 1] += aug
                        room -= aug
                        if not room:
                            break
                pushed = cap[a0] - room
                cap[a0] = room
                cap[a0 ^ 1] += pushed
                total += pushed
        else:
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
        level = _bfs_levels(net)
        if level[t] < 0:
            break
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


def is_saturating(flow: FlowAssignment) -> bool:
    """True when the flow meets its network's full source capacity b(A)."""
    return flow.value == flow.network.b_A


def consistent_min_cut(flow: FlowAssignment) -> SignVector:
    """Sign vector read from the consistency-reduced residual minimum cut.

    Requires a maximum flow that does not saturate.  Takes the source-side
    residual cut, drops both copies of every vertex present twice, and maps
    the surviving plus copies to +1 and minus copies to -1.  Dropping copies
    never increases the cut value, so the reduced cut is still minimum and
    the resulting vector has ratio strictly below 1/k; both facts are
    enforced here.
    """
    if is_saturating(flow):
        raise SaturatingFlowError("flow saturates; no cut below b(A) exists")
    net, X = flow.network, flow.source_side
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
    if evaluate_beta(net.aux.base, tuple(x)) * net.k >= 1:
        raise AssertionError("reduced cut does not beat the ratio guess")
    return tuple(x)


class FlowPath(NamedTuple):
    """One source-to-sink walk in arc ids of the flow's network, with an
    integral multiplicity: the source arc, the middle arcs (a walk meets the
    terminals only at its ends), then the sink arc.  The entry vertex is
    ``head[arcs[0]]``, the exit vertex ``head[arcs[-1] ^ 1]``; ``arc_tag``
    over ``arcs[1:-1]`` names the traversed middle edges.  A named tuple,
    the cheapest record, since a decomposition builds one per path.
    """

    arcs: tuple[int, ...]
    units: int


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
    state = [0] * net.n_nodes  # 0 unseen, -1 done, else 1 + trail position
    for start in range(net.n_nodes):
        if state[start]:
            continue
        state[start] = 1
        stack = [(start, iter(out[start]))]
        trail: list[int] = []
        while stack:
            for a in stack[-1][1]:
                if flows[a]:
                    v = head[a]
                    if state[v] > 0:
                        return trail[state[v] - 1:] + [a]
                    if not state[v]:
                        trail.append(a)
                        state[v] = len(trail) + 1
                        stack.append((v, iter(out[v])))
                        break
            else:
                state[stack.pop()[0]] = -1
                if trail:
                    trail.pop()
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


def decompose_flow(flow: FlowAssignment) -> list[FlowPath]:
    """Split a feasible flow into source-to-sink walks with multiplicities.

    Cycles are cancelled first; walks are then peeled greedily, always
    leaving a node along its lowest-id out-arc that still carries flow, and
    each peel subtracts the walk bottleneck, first minimum first (in
    straight-line code for the common three- and five-arc walks).  Flows
    only decrease, so a node keeps that arc until it empties, then a pointer
    skips the emptied ones; the next walk keeps the prefix up to the first
    arc the peel emptied.  Each path keeps its walk as peeled; multiplicities
    sum to the flow value, over at most as many paths as flow-carrying arcs.
    """
    net = flow.network
    head, sink = net.head, net.sink
    flows, out = _flow_graph(net)
    _cancel_cycles(net, flows, out)
    flows.append(0)  # index -1: the empty current arc of a node without out-arcs
    cur = [arcs[0] if arcs else -1 for arcs in out]
    ptr = [0] * net.n_nodes
    paths: list[FlowPath] = []
    remaining = flow.value
    arcs: list[int] = []
    u = net.source
    while remaining > 0:
        while u != sink:
            a = cur[u]
            if not flows[a]:
                out_u = out[u]
                i, end = ptr[u] + 1, len(out_u)
                while i < end and not flows[out_u[i]]:
                    i += 1
                if i >= end:
                    raise AssertionError("flow walk stalled before the sink")
                ptr[u], cur[u] = i, out_u[i]
                a = cur[u]
            arcs.append(a)
            u = head[a]
        if len(arcs) == 3:  # source -> entry -> exit -> sink
            a0, a1, a2 = arcs
            f0, f1, f2 = flows[a0], flows[a1], flows[a2]
            if f0 <= f1 and f0 <= f2:
                units, cut = f0, 0
            elif f1 <= f2:
                units, cut = f1, 1
            else:
                units, cut = f2, 2
            flows[a0], flows[a1], flows[a2] = f0 - units, f1 - units, f2 - units
            walk = (a0, a1, a2)
        elif len(arcs) == 5:  # source -> entry -> two more copies -> exit -> sink
            a0, a1, a2, a3, a4 = arcs
            f0, f1, f2, f3, f4 = flows[a0], flows[a1], flows[a2], flows[a3], flows[a4]
            units, cut = f0, 0
            if f1 < units:
                units, cut = f1, 1
            if f2 < units:
                units, cut = f2, 2
            if f3 < units:
                units, cut = f3, 3
            if f4 < units:
                units, cut = f4, 4
            flows[a0], flows[a1], flows[a2], flows[a3], flows[a4] = (
                f0 - units, f1 - units, f2 - units, f3 - units, f4 - units)
            walk = (a0, a1, a2, a3, a4)
        else:
            carried = [flows[a] for a in arcs]
            units = min(carried)
            cut = carried.index(units)
            for a in arcs:
                flows[a] -= units
            walk = tuple(arcs)
        paths.append(tuple.__new__(FlowPath, (walk, units)))  # skips FlowPath.__new__
        remaining -= units
        u = head[arcs[cut] ^ 1]
        del arcs[cut:]
    if any(flows):
        raise AssertionError("leftover flow after path extraction")
    return paths


class DemandMultigraph:
    """Multiset of vertex pairs recording flow-path endpoints: an immutable
    value on ``n`` vertices.

    Self-loops (a path entering the plus copy and leaving the minus copy of
    one vertex) are allowed and count twice toward the degree.  The graph
    holds its pairs alone: the certificate bound reads only the endpoints,
    and the network's capacities w(e) * k already cap the units crossing
    each doubled-graph edge.  The pair dict is read once, at construction,
    into two parallel tuples, keys and multiplicities in the given dict's
    order, which hold a round in far less memory than a hash table; the
    graph keeps no dict, so a caller may reuse the one it passed.  ``pairs``
    returns a fresh dict built from the tuples, and ``pair_items`` walks
    them without building one.  A pair has one key form, (i, j) with
    0 <= i <= j < n, and multiplicities are integers >= 1 (ValueError
    otherwise).  The keys may be the very tuples that other demand graphs
    of one network hold (``FlowNetwork.pair_keys``); tuples are immutable,
    so the sharing cannot be observed.
    """

    __slots__ = ("n", "_pair_keys", "_pair_units")

    def __init__(self, n: int, pairs: dict[tuple[int, int], int] | None = None):
        pairs = pairs or {}
        for (i, j), c in pairs.items():
            if not 0 <= i <= j < n:
                raise ValueError(f"demand pair {(i, j)} is not i <= j in range({n})")
            if not (isinstance(c, int) and c >= 1):
                raise ValueError(f"demand pair {(i, j)} has multiplicity {c!r}, "
                                 "not an integer >= 1")
        self.n = n
        self._pair_keys: tuple[tuple[int, int], ...] = tuple(pairs)
        self._pair_units: tuple[int, ...] = tuple(pairs.values())

    @property
    def pairs(self) -> dict[tuple[int, int], int]:
        """The pair multiplicities as a new dict, keys in first-entry order."""
        return dict(self.pair_items())

    def pair_items(self) -> Iterator[tuple[tuple[int, int], int]]:
        """(pair, multiplicity) in first-entry order, read off the tuples."""
        return zip(self._pair_keys, self._pair_units)

    def degrees(self) -> list[int]:
        """Weighted degree of each vertex, a new list counted from the pair
        ledger on every call."""
        d = [0] * self.n
        for (a, b), c in self.pair_items():
            d[a] += c
            d[b] += c
        return d

    def weighted_edges(self) -> Iterator[tuple[int, int, int]]:
        for (a, b), c in self.pair_items():
            yield a, b, c

    @staticmethod
    def union(graphs: Sequence["DemandMultigraph"], n: int) -> "DemandMultigraph":
        """Sum of the graphs' multiplicities on n vertices, keys in first-seen
        order; every graph must live on those n vertices."""
        pairs: dict[tuple[int, int], int] = {}
        for g in graphs:
            if g.n != n:
                raise ValueError("demand graphs live on different vertex sets")
            for key, c in g.pair_items():
                pairs[key] = pairs.get(key, 0) + c
        return DemandMultigraph(n, pairs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DemandMultigraph) and self.n == other.n
                and self.pairs == other.pairs)

    def __repr__(self) -> str:
        return f"DemandMultigraph(n={self.n}, pairs={self.pairs!r})"


def demand_graph(paths: Sequence[FlowPath], net: FlowNetwork) -> DemandMultigraph:
    """Demand graph of a path multiset: one parallel edge {i, j} per path unit
    entering at a copy of i and leaving at a copy of j, read off ``net``; a
    pair's key is the tuple ``net.pair_keys`` holds for it.  The pairs are
    summed in a dict, in first-entry order, which the graph reads once into
    its tuples and drops.  Every interior arc of a walk must be a middle arc
    (MalformedPathError otherwise)."""
    n = net.n_base
    head, arc_tag, pair_keys = net.head, net.arc_tag, net.pair_keys
    A, B = net.A, net.B
    pairs: dict[tuple[int, int], int] = {}
    for arcs, units in paths:
        middle = arcs[1:-1]
        if not middle:
            raise MalformedPathError("a walk needs at least three arcs")
        entry, exit_ = head[arcs[0]], head[arcs[-1] ^ 1]
        if entry not in A or exit_ not in B:
            raise MalformedPathError(
                f"path endpoints ({entry}, {exit_}) are not a source/sink pair")
        for a in middle:
            if arc_tag[a] is None:
                raise MalformedPathError("a walk uses a terminal arc between its ends")
        i, j = entry % n, exit_ % n
        key = (i, j) if i <= j else (j, i)
        c = pairs.get(key)
        if c is None:  # first entry this round: the network's shared key
            pairs[pair_keys.setdefault(key, key)] = units
        else:
            pairs[key] = c + units
    return DemandMultigraph(n, pairs)
