"""Spectral side: matrix multiplicative weights, Gram vectors, rounding.

The cut player maintains a density matrix

    X_t = exp(-delta * sum_{s<t} F_s) / tr(exp(-delta * sum_{s<t} F_s)),

where each F_s is the rescaled quadratic form of a demand graph,
D_b^{-1/2} (D_M + A_M) D_b^{-1/2}.  The player needs Gram vectors of
D_b^{-1/2} X_t D_b^{-1/2}, and gets them from one dense symmetric
eigendecomposition Q diag(lam) Q^T of the accumulated matrix per state
(cached on the state): with w = exp(-delta * lam), X_t = Q diag(w / sum w) Q^T,
and D_b^{-1/2} Q diag(sqrt(w / sum w)) is already a Gram factor, so no second
solve is needed.  A Gaussian projection of the Gram vectors then yields the
one-dimensional values that pick the next selection.

The module also keeps a sketched construction as a standalone component
that the game does not use: a random sign projection and a truncated Taylor
expansion of exp(A/2) applied column by column, never forming a matrix
power (``approx_gram_vectors``).  Its accuracy bounds are checked on their
own; it ran slower than the eigendecomposition at every size tried (n up to
1000).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegreeOverflowError, NumericalFailure, RoundFail
from .flow import DemandMultigraph


def _eigh(A: np.ndarray):
    try:
        return np.linalg.eigh((A + A.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"symmetric eigensolver failed: {exc}") from exc


def demand_matrix(M: DemandMultigraph, b) -> np.ndarray:
    """Rescaled quadratic form of a demand graph.

    Sum over demand edges {i, j} (multiplicity c) of the rank-one term
    c * D_b^{-1/2} (e_i + e_j)(e_i + e_j)^T D_b^{-1/2}; a self-loop at i
    contributes 4c / b(i) on the diagonal.  Under the degree cap
    deg_M(i) <= 2 b(i) the result has operator norm at most 4; the cap is
    enforced, the norm bound is a consequence.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (M.n,):
        raise ValueError(f"need {M.n} vertex weights, got shape {b.shape}")
    degs = M.degrees()
    for i in range(M.n):
        if degs[i] > 2 * b[i]:
            raise DegreeOverflowError(
                f"demand degree {degs[i]} at vertex {i} exceeds 2*b = {2 * b[i]:g}")
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


@dataclass(frozen=True)
class MmwuState:
    """Accumulated loss matrix of the multiplicative-weights iteration.

    ``eigh`` is the eigendecomposition (lam, Q) of the symmetrised
    accumulated matrix, computed on first use and then kept, so the density
    matrix and its Gram factor share one solve per state.
    """

    n: int
    delta: float
    accumulated: np.ndarray
    t: int = 1

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return _eigh(self.accumulated)

    def _weights(self) -> tuple[np.ndarray, np.ndarray]:
        # Eigenvalues are shifted before exponentiation; normalizing by the
        # sum cancels the shift.
        lam, Q = self.eigh
        y = -self.delta * lam
        return np.exp(y - y.max()), Q

    @staticmethod
    def initial(n: int, delta: float) -> "MmwuState":
        return MmwuState(n, delta, np.zeros((n, n)), t=1)

    def advance(self, F: np.ndarray) -> "MmwuState":
        return MmwuState(self.n, self.delta, self.accumulated + F, self.t + 1)


def sym_expm(A: np.ndarray) -> np.ndarray:
    """exp(A) for symmetric A via eigendecomposition."""
    lam, Q = _eigh(A)
    return (Q * np.exp(lam)) @ Q.T


def density_matrix(state: MmwuState) -> np.ndarray:
    """Trace-one PSD iterate exp(-delta * accumulated), normalized.

    The empty state gives I/n.  Reads the state's cached eigendecomposition.
    """
    w, Q = state._weights()
    X = (Q * w) @ Q.T / w.sum()
    return (X + X.T) / 2.0


@dataclass(frozen=True)
class GramVectors:
    """Rows are vectors v_i with <v_i, v_j> ~= (D_b^{-1/2} X D_b^{-1/2})_ij.

    flavor is "exact" (dimension n, inner products tight to eigensolver
    accuracy) or "approx" (sketched dimension, norms and pairwise sums
    preserved up to (1 +- eps) plus an additive tau).
    """

    vectors: np.ndarray
    flavor: str
    eps: float | None = None
    tau: float | None = None

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def exact_gram_vectors(X: np.ndarray | MmwuState, b) -> GramVectors:
    """Gram decomposition of D_b^{-1/2} X D_b^{-1/2}.

    Given a matrix X, factors it by its own eigendecomposition.  Given an
    MmwuState, X is that state's density matrix, and the rows of
    D_b^{-1/2} Q diag(sqrt(w / sum w)) are returned straight from the
    state's cached eigendecomposition, with no further solve.
    """
    b = np.asarray(b, dtype=float)
    scale = 1.0 / np.sqrt(b)
    if isinstance(X, MmwuState):
        w, Q = X._weights()
        return GramVectors(Q * np.sqrt(w / w.sum()) * scale[:, None], flavor="exact")
    Y = X * scale[:, None] * scale[None, :]
    lam, Q = _eigh(Y)
    lam = np.clip(lam, 0.0, None)
    return GramVectors(Q * np.sqrt(lam)[None, :], flavor="exact")


def taylor_apply_exp_half(A: np.ndarray, U: np.ndarray, order: int) -> np.ndarray:
    """Degree-``order`` Taylor approximation of exp(A/2) @ U.T (n x d).

    Runs d parallel chains of iterated matrix-vector products; matrix powers
    are never formed.  For order >= max(e^2 * ||A||, log(1/tau)) the result
    is within a relative tau of the true product in operator and Frobenius
    norm.
    """
    if order < 1:
        raise ValueError("Taylor order must be at least 1")
    term = U.T.astype(float).copy()
    Z = term.copy()
    for i in range(1, order + 1):
        term = (A @ term) / (2.0 * i)
        Z += term
    return Z


def jl_sign_matrix(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """d x n sketch with independent +-1/sqrt(d) entries, drawn row-major."""
    signs = rng.integers(0, 2, size=(d, n))
    return (2.0 * signs - 1.0) / math.sqrt(d)


def default_sketch_dim(n: int, eps: float) -> int:
    return max(1, math.ceil(32.0 * math.log(max(n, 2)) / eps**2))


def default_taylor_order(A: np.ndarray, n: int, tau: float) -> int:
    # Infinity norm bounds the spectral norm for symmetric matrices.
    norm_bound = max(1.0, float(np.abs(A).sum(axis=1).max()) if A.size else 1.0)
    return math.ceil(max(math.e**2 * norm_bound, math.log(max(n, 2) / tau)))


def approx_gram_vectors(accumulated: np.ndarray, delta: float, b, eps: float,
                        tau: float, rng: np.random.Generator,
                        dim: int | None = None, order: int | None = None) -> GramVectors:
    """Sketched Gram vectors of the density matrix, without forming it.

    Pipeline: draw a random sign sketch U, apply the truncated Taylor
    expansion of exp(A/2) with A = -delta * accumulated to U.T, rescale rows
    by b^{-1/2} and normalize by the sketched trace.  With the default
    dimension and order, each norm and each pairwise-sum norm matches the
    exact Gram vectors within (1 +- eps) plus tau, with high probability.
    """
    n = accumulated.shape[0]
    if not (0 < eps <= 0.25):
        raise ValueError(f"eps must lie in (0, 1/4], got {eps}")
    if not (0 < tau <= 1.0 / (12.0 * n**1.5)):
        raise ValueError(f"tau must lie in (0, 1/(12 n^{{3/2}})], got {tau}")
    b = np.asarray(b, dtype=float)
    A = -delta * (accumulated + accumulated.T) / 2.0
    if dim is None:
        dim = default_sketch_dim(n, eps)
    if order is None:
        order = default_taylor_order(A, n, tau)
    U = jl_sign_matrix(dim, n, rng)
    Z = taylor_apply_exp_half(A, U, order)
    trace = float((Z * Z).sum())
    vectors = Z / np.sqrt(b)[:, None] / math.sqrt(trace)
    return GramVectors(vectors, flavor="approx", eps=eps, tau=tau)


@dataclass(frozen=True)
class RoundedCut:
    """Accepted Gaussian projection: scalars, chosen side, its mass."""

    values: np.ndarray
    L: frozenset[int]
    R: frozenset[int]
    mass: float
    attempts: int


def gaussian_round(grams: GramVectors, b, rng: np.random.Generator,
                   max_attempts: int) -> RoundedCut:
    """Project the Gram vectors onto a random Gaussian direction.

    A sample is accepted when the weighted squared mass sum_i b(i) v~_i^2
    reaches 1/4 (the expectation is 1, and the mass falls below 1/2 with
    probability at most e^{-1/16}).  The side with the larger mass becomes
    L, ties keeping the positive side; R is always returned empty.  Raises
    RoundFail after ``max_attempts`` rejections.
    """
    b = np.asarray(b, dtype=float)
    V = grams.vectors
    for attempt in range(1, max_attempts + 1):
        g = rng.standard_normal(grams.dim)
        values = V @ g
        weighted = b * values**2
        if float(weighted.sum()) < 0.25:
            continue
        pos = values > 0
        neg = values < 0
        mass_pos = float(weighted[pos].sum())
        mass_neg = float(weighted[neg].sum())
        if mass_pos >= mass_neg:
            side, mass = pos, mass_pos
        else:
            side, mass = neg, mass_neg
        L = frozenset(int(i) for i in np.nonzero(side)[0])
        return RoundedCut(values, L, frozenset(), mass, attempt)
    raise RoundFail(f"no acceptable Gaussian sample in {max_attempts} attempts")


def lambda_min(A: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh((A + A.T) / 2.0)[0])


def lambda_max(A: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh((A + A.T) / 2.0)[-1])
