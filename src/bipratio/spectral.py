"""Spectral side: matrix multiplicative weights, Gram vectors, rounding.

The cut player maintains a density matrix

    X_t = exp(-delta * sum_{s<t} F_s) / tr(exp(-delta * sum_{s<t} F_s)),

where each F_s is the rescaled quadratic form of a demand graph,
D_b^{-1/2} (D_M + A_M) D_b^{-1/2}, and delta = ``DELTA``.  F_s is built
exactly symmetric, so every sum of them is too, and the eigensolves take
their (symmetric) input as given.  Each state caches one factor
Y = Q diag(sqrt(w / sum w)) of X_t, from one dense symmetric
eigendecomposition Q diag(lam) Q^T of the accumulated matrix with
w = exp(-delta * lam).  Then X_t = Y Y^T, and V = D_b^{-1/2} Y holds Gram
vectors of D_b^{-1/2} X_t D_b^{-1/2}, so no second solve is needed.  A
Gaussian projection of the Gram vectors then yields the one-dimensional
values that pick the next selection.

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

# Step size of the multiplicative-weights update.  Demand forms have norm at
# most 4, so 4 * DELTA < 1; the round cap T = max(16, ceil(9 ln^2 n)) and the
# regret bound lambda_min >= sum tr(F X) / 2 - ln n / DELTA assume this value.
DELTA = 0.125
SKETCH_EPS = 0.25  # relative accuracy of the sketched Gram vectors

# Largest vertex weight the spectral layer takes.  Floats end at 2**1024: 2 b
# overflows from b = 2**1023, and the certificate bound beta(H) / (2 k T),
# whose k can grow to a few times sum(b), from about 2**1021 on a triangle.
# The margin keeps 2 k T in range on graphs of up to a few thousand vertices.
MAX_VERTEX_WEIGHT = 2**1000


def _symmetric_solve(solver, A: np.ndarray):
    """``solver`` (``np.linalg.eigh`` or ``eigvalsh``) on symmetric A as given
    (LAPACK reads one triangle); non-convergence raises NumericalFailure."""
    try:
        return solver(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"symmetric eigensolver failed: {exc}") from exc


def _eigh(A: np.ndarray):
    return _symmetric_solve(np.linalg.eigh, A)


class VertexWeights:
    """One weight per vertex, checked once, each converted form computed on
    first read and then kept.

    Raises ValueError unless ``b`` holds ``n`` weights, none above
    ``MAX_VERTEX_WEIGHT``, so a short ``b`` is never broadcast over the rows
    and no weight overflows a float downstream.  A game converts its
    graph's weights once and hands this object to every round's spectral
    calls; those calls also take a plain sequence, which they check and
    convert on each call.
    """

    def __init__(self, b, n: int):
        array = np.asarray(b)
        if array.shape != (n,):
            raise ValueError(f"need {n} vertex weights, got shape {array.shape}")
        if max(b, default=0) > MAX_VERTEX_WEIGHT:
            i = next(i for i, bi in enumerate(b) if bi > MAX_VERTEX_WEIGHT)
            raise ValueError(f"vertex {i} has weight above 2**1000, beyond the float "
                             "range the spectral layer computes in")
        self.n = n
        self._array = array

    @cached_property
    def exact(self) -> list:
        """The weights as Python numbers; Python ints stay exact."""
        return self._array.tolist()

    @cached_property
    def floats(self) -> np.ndarray:
        return self._array.astype(float)

    @cached_property
    def gram_scale(self) -> np.ndarray:
        """b^{-1/2} as an n x 1 column, the row scale of the Gram vectors."""
        return (1.0 / np.sqrt(self.floats))[:, None]

    @cached_property
    def demand_scales(self) -> tuple[list[float], list[float]]:
        """b^{-1/2} and its square as Python float lists, for ``demand_matrix``."""
        inv_sqrt = [1.0 / math.sqrt(x) for x in self.exact]  # np.sqrt rounds the same
        return inv_sqrt, [x ** 2 for x in inv_sqrt]


def _vertex_weights(b, n: int) -> VertexWeights:
    """``b`` checked and converted for n vertices; converted weights pass
    through once their count is checked."""
    if isinstance(b, VertexWeights):
        if b.n != n:
            raise ValueError(f"need {n} vertex weights, got shape ({b.n},)")
        return b
    return VertexWeights(b, n)


def demand_matrix(M: DemandMultigraph, b) -> np.ndarray:
    """Rescaled quadratic form of a demand graph.

    Sum over demand edges {i, j} (multiplicity c) of the rank-one term
    c * D_b^{-1/2} (e_i + e_j)(e_i + e_j)^T D_b^{-1/2}; a self-loop at i
    contributes 4c / b(i) on the diagonal.  Under the degree cap
    deg_M(i) <= 2 b(i) the result has operator norm at most 4; the cap is
    enforced, the norm bound is a consequence.  ``b`` is a ``VertexWeights``
    of M's vertex count or a sequence of weights, checked as
    ``VertexWeights`` checks it.
    """
    weights = _vertex_weights(b, M.n)
    b_list = weights.exact
    degs = M.degrees()
    for i, bi in enumerate(b_list):
        if degs[i] > 2 * bi:
            raise DegreeOverflowError(
                f"demand degree {degs[i]} at vertex {i} exceeds 2*b = {2 * bi}")
    # Python floats, in pair order: the roundings of adding each term into F
    # in turn, without numpy scalar indexing.  Off the diagonal each key
    # (i < j) owns its entry and writes it into both triangles.
    n = M.n
    inv_sqrt, inv_sqrt_sq = weights.demand_scales
    diag = [0.0] * n
    index: list[int] = []
    off: list[float] = []
    for (i, j), c in M.pair_items():
        if i == j:
            diag[i] += 4.0 * c * inv_sqrt_sq[i]
        else:
            diag[i] += c * inv_sqrt_sq[i]
            diag[j] += c * inv_sqrt_sq[j]
            index.append(i * n + j)
            off.append(c * inv_sqrt[i] * inv_sqrt[j])
    F = np.zeros((n, n))
    F.flat[index] = off
    F.T.flat[index] = off
    F.flat[::n + 1] = diag
    return F


@dataclass(frozen=True)
class MmwuState:
    """Accumulated loss matrix of the multiplicative-weights iteration.

    ``factor`` is computed on first use and then kept, so the density matrix
    and the Gram vectors share one eigendecomposition per state.
    """

    accumulated: np.ndarray

    @cached_property
    def factor(self) -> np.ndarray:
        """Y = Q diag(sqrt(w / sum w)) with X = Y Y^T, from the eigenpairs
        (lam, Q) of the accumulated matrix, which must be symmetric, and
        w = exp(-DELTA * lam), shifted so its largest entry is 1; the
        normalization cancels the shift."""
        lam, Q = _eigh(self.accumulated)
        y = -DELTA * lam
        w = np.exp(y - y.max())
        return Q * np.sqrt(w / w.sum())

    @staticmethod
    def initial(n: int) -> "MmwuState":
        return MmwuState(np.zeros((n, n)))

    def advance(self, F: np.ndarray) -> "MmwuState":
        return MmwuState(self.accumulated + F)


def sym_expm(A: np.ndarray) -> np.ndarray:
    """exp(A) via eigendecomposition; A must be symmetric."""
    lam, Q = _eigh(A)
    return (Q * np.exp(lam)) @ Q.T


def density_matrix(state: MmwuState) -> np.ndarray:
    """Trace-one PSD iterate exp(-delta * accumulated), normalized.

    The empty state gives I/n.  Forms Y Y^T from the state's cached factor;
    numpy computes that product as a symmetric rank update, so the result is
    exactly symmetric.
    """
    Y = state.factor
    return Y @ Y.T


def exact_gram_vectors(state: MmwuState, b) -> np.ndarray:
    """Gram vectors of D_b^{-1/2} X D_b^{-1/2} for the state's density
    matrix X: the n x n array V = D_b^{-1/2} Y, whose rows v_i satisfy
    <v_i, v_j> = (D_b^{-1/2} X D_b^{-1/2})_ij to eigensolver accuracy, read
    from the state's cached factor with no further solve.  ``b`` is a
    ``VertexWeights`` or a sequence; ValueError unless it holds one weight
    per vertex, none above ``MAX_VERTEX_WEIGHT``.
    """
    Y = state.factor
    return Y * _vertex_weights(b, Y.shape[0]).gram_scale


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


def approx_gram_vectors(accumulated: np.ndarray, b,
                        rng: np.random.Generator) -> np.ndarray:
    """Sketched Gram vectors of the density matrix, without forming it.

    Pipeline: draw a d x n random sign sketch U, d = ceil(32 ln n / eps^2),
    apply the truncated Taylor expansion of exp(A/2), A = -DELTA * accumulated,
    to U.T, rescale rows by b^{-1/2} and normalize by the sketched trace.
    Returns the n x d array of rows; with high probability each norm and
    pairwise-sum norm matches the exact Gram vectors within (1 +- eps) plus
    tau, for eps = ``SKETCH_EPS`` and tau = min(1/(12 n^1.5), 1e-9).
    Raises ValueError on an empty matrix or unless b holds one weight per
    vertex, none above ``MAX_VERTEX_WEIGHT``.
    """
    n = accumulated.shape[0]
    if n == 0:
        raise ValueError("sketched Gram vectors need at least one vertex")
    b = _vertex_weights(b, n).floats
    tau = min(1.0 / (12.0 * n**1.5), 1e-9)
    A = -DELTA * (accumulated + accumulated.T) / 2.0
    dim = max(1, math.ceil(32.0 * math.log(max(n, 2)) / SKETCH_EPS**2))
    # Infinity norm bounds the spectral norm for symmetric matrices.
    norm_bound = max(1.0, float(np.abs(A).sum(axis=1).max()))
    order = math.ceil(max(math.e**2 * norm_bound, math.log(max(n, 2) / tau)))
    Z = taylor_apply_exp_half(A, jl_sign_matrix(dim, n, rng), order)
    trace = float((Z * Z).sum())
    return Z / np.sqrt(b)[:, None] / math.sqrt(trace)


@dataclass(frozen=True)
class RoundedCut:
    """Accepted Gaussian projection: scalars, chosen side, its mass."""

    values: np.ndarray
    L: frozenset[int]
    mass: float
    attempts: int


def gaussian_round(V: np.ndarray, b, rng: np.random.Generator,
                   max_attempts: int) -> RoundedCut:
    """Project the Gram vectors, the rows of the n x d array V, onto a
    random Gaussian direction in R^d.

    A sample is accepted when the weighted squared mass sum_i b(i) v~_i^2
    reaches 1/4 (the expectation is 1, and the mass falls below 1/2 with
    probability at most e^{-1/16}).  The side with the larger mass becomes
    L, ties keeping the positive side.  Raises RoundFail after
    ``max_attempts`` rejections, and ValueError, before any draw, unless b
    (a ``VertexWeights`` or a sequence) holds one weight per row of V, none
    above ``MAX_VERTEX_WEIGHT``.
    """
    b = _vertex_weights(b, V.shape[0]).floats
    for attempt in range(1, max_attempts + 1):
        g = rng.standard_normal(V.shape[1])
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
        L = frozenset(np.flatnonzero(side).tolist())
        return RoundedCut(values, L, mass, attempt)
    raise RoundFail(f"no acceptable Gaussian sample in {max_attempts} attempts")


def lambda_min(A: np.ndarray) -> float:
    """Smallest eigenvalue of A, which must be symmetric."""
    return float(_symmetric_solve(np.linalg.eigvalsh, A)[0])


def lambda_max(A: np.ndarray) -> float:
    """Largest eigenvalue of A, which must be symmetric."""
    return float(_symmetric_solve(np.linalg.eigvalsh, A)[-1])
