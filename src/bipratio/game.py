"""The cut-versus-matching round loop and the geometric ratio sweep.

One game tests a single ratio guess r = 1/k.  Each round the cut player
projects Gram vectors of the current multiplicative-weights density matrix
onto a Gaussian direction and proposes the heavier sign class as a one-sided
selection (L, empty).  The density matrix and its Gram vectors come
from one eigendecomposition of the round's state, shared by
every rounding attempt of that round.  The flow player answers with a
maximum flow on the selection network: a shortfall yields a sign vector of
ratio strictly below 1/k (a witness, game over), a saturating flow yields a
demand graph whose quadratic form feeds the density update.  Surviving all
T rounds produces a certificate: the union H of the round demand graphs
embeds into the input with congestion at most 2k per doubled edge per round
(each edge serves a demand copy and its mirror), so its own ratio - lower
bounded by half the smallest eigenvalue of the accumulated quadratic forms -
pushes down to a ratio lower bound of beta(H) / (2 k T) for the input.

The sweep runs k over powers of two, upward from 1, and stops at the first
certificate; the witness from the previous level then sits within a factor
two of the certified ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import GameFailed, RoundFail
from .flow import (
    DemandMultigraph,
    FlowNetwork,
    build_network,
    consistent_min_cut,
    decompose_flow,
    demand_graph,
    is_saturating,
    max_flow,
)
from .graph import (
    Ratio,
    SignVector,
    WeightedGraph,
    build_auxiliary_graph,
    evaluate_beta,
    sign_vector,
)
from .oracle import brute_beta
from .spectral import (
    MmwuState,
    approx_gram_vectors,  # noqa: F401 -- perfbench/tracing.py wraps this name here
    demand_matrix,
    density_matrix,
    exact_gram_vectors,
    gaussian_round,
    lambda_min,
)


@dataclass(frozen=True)
class GameParams:
    """Knobs of one game and of the surrounding sweep.

    Fields left as None are resolved per graph: T = max(16, ceil(9 ln^2 n))
    rounds and max_attempts = ceil(8 ln n) + 8 Gaussian samples per round.
    The step size must satisfy 4 * delta < 1.
    """

    seed: int = 0
    k: int = 1
    rounds: int | None = None
    max_attempts: int | None = None
    delta: float = 0.125
    restarts: int = 3
    early_exit: bool = False
    early_exit_threshold: float = 2.0
    brute_cert_limit: int = 8

    def resolve(self, n: int) -> "GameParams":
        ln_n = math.log(max(n, 2))
        rounds = self.rounds if self.rounds is not None else max(16, math.ceil(9.0 * ln_n**2))
        attempts = (self.max_attempts if self.max_attempts is not None
                    else math.ceil(8.0 * ln_n) + 8)
        if not (self.k >= 1 and int(self.k) == self.k):
            raise ValueError(f"k must be a positive integer, got {self.k}")
        if not (0.0 < self.delta and 4.0 * self.delta < 1.0):
            raise ValueError(f"step size must satisfy 0 < 4*delta < 1, got {self.delta}")
        return replace(self, rounds=rounds, max_attempts=attempts)


@dataclass(frozen=True)
class RoundRecord:
    """One matched round: the chosen side, its demand graph, and tr(F X)."""

    index: int
    side: frozenset[int]
    demand: DemandMultigraph
    inner: float


@dataclass(frozen=True)
class Witness:
    """A sign vector with beta * k < 1; the game re-checks this exactly
    (rational comparison) before returning one."""

    x: SignVector
    beta: Ratio
    k: int
    rounds_before: int
    records: tuple[RoundRecord, ...]
    flow_solves: int


@dataclass(frozen=True)
class Certificate:
    """T matched rounds: demand union H plus the spectral lower bound.

    beta_H is the brute-forced ratio of H when the graph is small enough,
    else None; lambda_min of the accumulated quadratic forms always lower
    bounds 2 * beta(H).

    The rerouting bound carries a factor two: the doubled version of H holds
    both copies (i+, j-) and (i-, j+) of every demand edge, but each round's
    flow paths realize only one of them, so the mirror copy reuses the
    mirrored doubled edges and every doubled edge absorbs at most 2 * k * w
    path units per round.  Hence beta(G) >= beta(H) / (2 * k * rounds); the
    factor is attained, e.g. by a single edge with both endpoints selected.
    """

    k: int
    rounds: int
    union: DemandMultigraph
    records: tuple[RoundRecord, ...]
    lambda_min: float
    beta_H: Ratio | None
    flow_solves: int

    def ratio_lower_bound(self) -> float:
        base = float(self.beta_H) if self.beta_H is not None else max(self.lambda_min, 0.0) / 2.0
        return base / (2 * self.k * self.rounds)


GameOutcome = Witness | Certificate


@dataclass(frozen=True)
class CutFound:
    x: SignVector


@dataclass(frozen=True)
class Matched:
    side: frozenset[int]
    demand: DemandMultigraph
    F: np.ndarray
    inner: float
    state: MmwuState


def play_round(G: WeightedGraph, net: FlowNetwork, b: Sequence[int],
               params: GameParams, state: MmwuState,
               rng: np.random.Generator) -> CutFound | Matched:
    """Run one round: project, select, solve the flow, answer.

    ``net`` is the game's selection network of G at k = params.k; the round
    re-selects it for its own (L, empty).

    Returns CutFound with a witness sign vector when the selection is not
    well-linked at 1/k, otherwise Matched with the demand graph, its
    quadratic form and the advanced state.  Raises RoundFail when Gaussian
    rounding exceeds its attempt budget.
    """
    # Both read the state's one cached eigendecomposition.
    X = density_matrix(state)
    grams = exact_gram_vectors(state, b)
    rounded = gaussian_round(grams, b, rng, params.max_attempts)
    net.select(rounded.L, frozenset())
    flow = max_flow(net)
    if not is_saturating(net, flow):
        return CutFound(consistent_min_cut(net, flow))
    paths = decompose_flow(net, flow)
    M = demand_graph(paths, net)
    degs = M.degrees()
    for i in range(G.n):
        want = 2 * b[i] if i in rounded.L else 0
        if degs[i] != want:
            raise AssertionError(
                f"saturating round violates the demand degree law at vertex {i}")
    F = demand_matrix(M, b)
    inner = float((F * X).sum())
    return Matched(rounded.L, M, F, inner, state.advance(F))


def cut_matching_game(G: WeightedGraph, k: int, params: GameParams | None = None,
                      b: Sequence[int] | None = None,
                      rng: np.random.Generator | None = None) -> GameOutcome:
    """Play the full game at ratio guess 1/k.

    Every witness is re-checked exactly (beta * k < 1 as rationals).  A
    round that fails Gaussian rounding is retried with fresh samples at the
    same state, up to ``restarts`` times across the game, after which
    GameFailed is raised.
    """
    params = (params or GameParams()).resolve(G.n)
    if params.k != k:
        params = replace(params, k=int(k)).resolve(G.n)
    if b is not None:
        G = G.with_b(b)
    b = G.b
    if rng is None:
        rng = np.random.default_rng([params.seed, 1, int(k)])
    # One network per game: the middle edges never change, and every round
    # re-selects the terminal arcs, so the initial selection is a placeholder.
    net = build_network(build_auxiliary_graph(G), range(G.n), (), params.k)
    state = MmwuState.initial(G.n, params.delta)
    records: list[RoundRecord] = []
    restarts_left = params.restarts
    flow_solves = 0
    t = 1
    while t <= params.rounds:
        try:
            outcome = play_round(G, net, b, params, state, rng)
        except RoundFail:
            restarts_left -= 1
            if restarts_left < 0:
                raise GameFailed(
                    f"round {t} failed Gaussian rounding beyond the restart budget")
            continue
        flow_solves += 1
        if isinstance(outcome, CutFound):
            beta = evaluate_beta(G, outcome.x)
            if not beta * k < 1:
                raise AssertionError("witness does not beat the ratio guess")
            return Witness(outcome.x, beta, int(k), t - 1, tuple(records), flow_solves)
        records.append(RoundRecord(t, outcome.side, outcome.demand, outcome.inner))
        state = outcome.state
        t += 1
        if params.early_exit and lambda_min(state.accumulated) >= params.early_exit_threshold:
            break
    union = DemandMultigraph.union([r.demand for r in records], n=G.n)
    lam = lambda_min(state.accumulated)
    beta_H = brute_beta(union, b)[0] if G.n <= params.brute_cert_limit else None
    return Certificate(int(k), len(records), union, tuple(records), lam, beta_H,
                       flow_solves)


@dataclass(frozen=True)
class GameSummary:
    k: int
    outcome: str
    beta: Ratio | None
    rounds: int
    flow_solves: int


@dataclass(frozen=True)
class SweepResult:
    """Best witness plus the certificate at the largest certified ratio."""

    x_best: SignVector
    beta: Ratio
    r_cert: Ratio | None
    certificate: Certificate | None
    games: tuple[GameSummary, ...]
    flow_solves: int


def sweep_k_limit(G: WeightedGraph) -> int:
    """Largest exponent in the k = 2^j sweep: past it any witness is exact 0."""
    product = G.total_weight * G.total_b()
    if product <= 1:
        return 1
    return math.ceil(math.log2(product)) + 1


def _fallback_witness(G: WeightedGraph) -> tuple[SignVector, Ratio]:
    # Certificate at k = 1 leaves no witness from the sweep; fall back to the
    # best of the singletons and the all-ones vector (ratio <= 1 when b is
    # the degree vector, so the factor-two bracket still holds there).
    best_x = tuple(1 for _ in range(G.n))
    best = evaluate_beta(G, best_x)
    for i in range(G.n):
        x = sign_vector(G.n, [i], [])
        beta = evaluate_beta(G, x)
        if beta < best:
            best, best_x = beta, x
    return best_x, best


def approx_bipartiteness(G: WeightedGraph, params: GameParams | None = None,
                         b: Sequence[int] | None = None,
                         seed_path: tuple[int, ...] | None = None) -> SweepResult:
    """Geometric sweep over ratio guesses 1/k, k = 1, 2, 4, ...

    Keeps the best witness found and stops at the first certificate (or at
    an exact-zero witness, after which every later game would re-witness).
    The returned witness satisfies beta <= 2 * r_cert whenever a certificate
    exists; a zero ratio is always found exactly when the graph admits one,
    because the last sweep level forces any witness below the smallest
    positive ratio.
    """
    params = params or GameParams()
    if b is not None:
        G = G.with_b(b)
    prefix = seed_path if seed_path is not None else (params.seed,)
    K = sweep_k_limit(G)
    best_x: SignVector | None = None
    best_beta: Ratio | None = None
    cert: Certificate | None = None
    games: list[GameSummary] = []
    flow_solves = 0
    for j in range(K + 1):
        k = 2**j
        rng = np.random.default_rng([*prefix, 1, k])
        outcome = cut_matching_game(G, k, params, rng=rng)
        flow_solves += outcome.flow_solves
        if isinstance(outcome, Witness):
            games.append(GameSummary(k, "witness", outcome.beta,
                                     outcome.rounds_before, outcome.flow_solves))
            if best_beta is None or outcome.beta < best_beta:
                best_x, best_beta = outcome.x, outcome.beta
            if best_beta == 0:
                break
        else:
            games.append(GameSummary(k, "certificate", None, outcome.rounds,
                                     outcome.flow_solves))
            cert = outcome
            break
    if best_x is None:
        best_x, best_beta = _fallback_witness(G)
    r_cert = Fraction(1, cert.k) if cert is not None else None
    return SweepResult(best_x, best_beta, r_cert, cert, tuple(games), flow_solves)
