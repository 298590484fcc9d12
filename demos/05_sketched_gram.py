"""Sketched Gram vectors: sign projection plus a truncated Taylor series.

The exact route to Gram vectors of D^{-1/2} X D^{-1/2} eigendecomposes the
density matrix.  The sketched route never forms X: it draws a d x n random
sign matrix U, pushes U^T through the Taylor series of exp(A/2) column by
column, rescales rows by b^{-1/2} and normalizes by the sketched trace.
Norms and pairwise-sum norms survive within (1 +- eps) plus a tiny additive
term, which is all the Gaussian rounding step consumes.
"""

import numpy as np

from bipratio.spectral import (
    DELTA,
    MmwuState,
    approx_gram_vectors,
    density_matrix,
    jl_sign_matrix,
    sym_expm,
    taylor_apply_exp_half,
)

rng = np.random.default_rng(2024)
n = 16
B = rng.standard_normal((n, n))
accumulated = B @ B.T
accumulated *= 4.0 / float(np.linalg.eigvalsh(accumulated)[-1])
b = rng.integers(1, 5, size=n)

# Exact reference quantities straight from the density matrix.
X = density_matrix(MmwuState(accumulated))
scale = 1.0 / np.sqrt(b.astype(float))
Y = X * scale[:, None] * scale[None, :]
exact_norms = Y.diagonal()

# The sketch's accuracy is fixed inside; these are the tolerances checked.
eps = 0.25
tau = min(1.0 / (12.0 * n**1.5), 1e-9)
V = approx_gram_vectors(accumulated, b, rng)
d = V.shape[1]
approx_norms = (V**2).sum(axis=1)

print(f"sketch dimension d = {d} for n = {n}")
rel = np.abs(approx_norms - exact_norms) / exact_norms
print(f"norm errors: max relative {rel.max():.4f} (target {eps})")
assert np.all(rel <= eps)

Ghat = V @ V.T
pair_exact = exact_norms[:, None] + exact_norms[None, :] + 2 * Y
pair_hat = approx_norms[:, None] + approx_norms[None, :] + 2 * Ghat
err = np.abs(pair_hat - pair_exact)
print(f"pairwise-sum errors: max {err.max():.5f} vs "
      f"eps*value+tau bound {np.max(eps * pair_exact + tau):.5f}")

# The Taylor truncation itself: error decays factorially past e^2 * ||A||.
A = -DELTA * accumulated
U = jl_sign_matrix(d, n, rng)
W = sym_expm(A / 2.0) @ U.T
for order in (2, 5, 10, 20, 40):
    Z = taylor_apply_exp_half(A, U, order)
    print(f"  order {order:2d}: ||exact - truncated||_F = "
          f"{np.linalg.norm(W - Z):.2e}")
