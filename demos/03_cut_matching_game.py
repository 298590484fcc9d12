"""The cut-versus-matching game and the geometric ratio sweep.

The cut player proposes selections by Gaussian-rounding Gram vectors of a
multiplicative-weights density matrix; the flow player either defeats a
selection (witness: a sign vector with ratio < 1/k) or matches it with a
saturating flow whose demand graph feeds the density update.  Surviving all
rounds yields a certificate multigraph H whose own ratio, divided by 2kT,
lower bounds the input ratio.
"""

import math

import numpy as np

from bipratio import (
    Certificate,
    GameParams,
    WeightedGraph,
    Witness,
    approx_bipartiteness,
    brute_beta,
    cut_matching_game,
)
from bipratio.generators import complete
from bipratio.spectral import DELTA, demand_matrix

k3 = complete(3)
print("triangle, exhaustive ratio:", brute_beta(k3)[0])

for k in (1, 2, 3):
    out = cut_matching_game(k3, k, GameParams(seed=5))
    if isinstance(out, Witness):
        print(f"  guess 1/{k}: witness x={out.x} with ratio {out.beta} < 1/{k}")
    else:
        print(f"  guess 1/{k}: certificate after {out.rounds} rounds, "
              f"lambda_min={out.lambda_min:.3f}, ratio(H)={out.beta_H}, "
              f"input ratio >= {out.ratio_lower_bound():.4f}")

# The regret guarantee, checked on the certificate run.
out = cut_matching_game(k3, 3, GameParams(seed=5))
assert isinstance(out, Certificate)
inners = [r.inner for r in out.records]
F_sum = sum((demand_matrix(r.demand, k3.b) for r in out.records),
            np.zeros((3, 3)))
lam = float(np.linalg.eigvalsh(F_sum)[0])
rhs = 0.5 * sum(inners) - math.log(3) / DELTA
print(f"\nregret bound: lambda_min = {lam:.3f} >= "
      f"0.5 * sum(tr F X) - 8 ln n = {rhs:.3f}")
assert lam >= rhs - 1e-6

# Watch the density matrix steer toward the violating bipartition: on a
# single edge the only saturating selection is both endpoints, and its
# demand pushes the next rounds toward picking one endpoint alone.
edge = WeightedGraph(2, ((0, 1, 1),), (1, 1))
res = approx_bipartiteness(edge, GameParams(seed=0))
print("\nsingle edge sweep:", [(g.k, g.outcome) for g in res.games],
      "-> best witness ratio", res.beta)

# Full sweep on the triangle: witness below 1, certificate at the next guess.
res = approx_bipartiteness(k3, GameParams(seed=3))
print("triangle sweep: witness ratio", res.beta, "certified r =", res.r_cert)
assert res.beta <= 2 * res.r_cert
