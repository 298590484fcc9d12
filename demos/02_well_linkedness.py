"""Flows in the doubled graph characterize the ratio exactly.

For a guess r = 1/k, connect a super source into the plus copies of L and
minus copies of R (capacity b), mirror into a super sink, and give every
doubled edge capacity w * k.  The graph has ratio >= 1/k if and only if
every such selection admits a flow saturating the source.  When a selection
falls short, the residual cut - after dropping vertices present with both
copies - reads off a sign vector with ratio strictly below 1/k.
"""

from fractions import Fraction

from bipratio import (
    brute_beta,
    brute_well_linked,
    build_auxiliary_graph,
    build_network,
    consistent_min_cut,
    decompose_flow,
    demand_graph,
    evaluate_beta,
    is_saturating,
    max_flow,
)
from bipratio.generators import complete, cycle

k3 = complete(3)
aux = build_auxiliary_graph(k3)

print("triangle has exhaustive ratio", brute_beta(k3)[0])
for k in (2, 3, 4):
    linked, pair = brute_well_linked(k3, k=k)
    print(f"  every selection saturates at r = 1/{k}?  {linked}"
          + (f"  (violator: L={sorted(pair[0])}, R={sorted(pair[1])})"
             if pair else ""))

# A saturating selection and its demand graph.
net = build_network(aux, L={0}, R=set(), k=2)
flow = max_flow(net)
print("\nselect L={0} at k=2: flow", flow.value, "of", net.b_A,
      "-> saturating:", is_saturating(flow))
paths = decompose_flow(flow)
for p in paths:
    nodes = tuple(net.head[a] for a in p.arcs[:-1])  # the head of every arc but the sink arc
    print("  path through doubled nodes", nodes, "x", p.units)
M = demand_graph(paths, net)
print("  demand graph:", M.pairs, " degree of 0:", M.degrees()[0], "= 2*b(0)")

# A failing selection on the 4-cycle hands back a perfect bipartition.
c4 = cycle(4)
aux4 = build_auxiliary_graph(c4)
net4 = build_network(aux4, L={0}, R=set(), k=1)
flow4 = max_flow(net4)
print("\n4-cycle, select L={0} at k=1: flow", flow4.value, "(not saturating)")
x = consistent_min_cut(flow4)
print("  consistent residual cut gives x =", x,
      "with ratio", evaluate_beta(c4, x))
assert evaluate_beta(c4, x) < Fraction(1, 1)
