"""The cut-versus-matching round loop and the geometric ratio sweep.

One game tests a single ratio guess r = 1/k.  Each round the cut player
projects Gram vectors of the current multiplicative-weights density matrix
onto a Gaussian direction and proposes the heavier sign class as a one-sided
selection (L, empty).  The Gram vectors come from a factor Y of the
density matrix X = Y Y^T, cached on the round's state: one
eigendecomposition, shared by every rounding attempt of that round.  X
itself is formed only in a matched round, to record tr(F X).  The flow
player answers with a maximum flow on the selection network: a shortfall
yields a sign vector of ratio strictly below 1/k (a witness, game over), a
saturating flow yields a demand graph whose quadratic form feeds the density
update.  Surviving all T rounds produces a certificate: the union H of the
round demand graphs embeds into the input with congestion at most 2k per
doubled edge per round (each edge serves a demand copy and its mirror), so
its own ratio - lower bounded by half the smallest eigenvalue of the
accumulated quadratic forms - pushes down to a ratio lower bound of
beta(H) / (2 k T) for the input.

A game keeps a memo from each matched side to its demand graph, so a side
the cut player proposes again costs no second flow solve.

The sweep runs k over powers of two, upward from 1, and stops at the first
certificate; the witness from the previous level then sits within a factor
two of the certified ratio.  The cut player proposes only one-sided
selections (L, empty), and every one of them saturates at 1/k exactly when
k * beta_1(G) >= 1, with beta_1 the one-sided ratio of
``oracle.brute_beta_one_sided``.  On desk-scale graphs the sweep knows
beta_1(G) by brute force and leaves unplayed the game at the first such k,
whose only possible end is a certificate, playing it when the certificate
is first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable

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
from .oracle import brute_beta, brute_beta_one_sided
from .spectral import (
    MmwuState,
    VertexWeights,
    approx_gram_vectors,  # noqa: F401 -- perfbench/tracing.py wraps this name here
    demand_matrix,
    density_matrix,
    exact_gram_vectors,
    gaussian_round,
    lambda_min,
)


# Certificates of graphs up to this many vertices give beta(H) by brute force.
BRUTE_CERT_LIMIT = 8

# Rounds of one game that may fail Gaussian rounding and be retried.
RESTARTS = 3


@dataclass(frozen=True)
class GameParams:
    """Settings of one game and of the surrounding sweep.

    The ratio guess 1/k is not among them: it is the game's own argument.
    Fields left as None are resolved per graph: T = max(16, ceil(9 ln^2 n))
    rounds and max_attempts = ceil(8 ln n) + 8 Gaussian samples per round.
    A game plays at least one round and draws at least one sample per round.
    The rounding retries across one game are bounded by the module constant
    ``RESTARTS``, and the step size is ``spectral.DELTA``.
    """

    seed: int = 0
    rounds: int | None = None
    max_attempts: int | None = None

    def resolve(self, n: int) -> "GameParams":
        ln_n = math.log(max(n, 2))
        rounds = self.rounds if self.rounds is not None else max(16, math.ceil(9.0 * ln_n**2))
        attempts = (self.max_attempts if self.max_attempts is not None
                    else math.ceil(8.0 * ln_n) + 8)
        if rounds < 1:
            raise ValueError(f"a game needs at least one round, got rounds={rounds}")
        if attempts < 1:
            raise ValueError("a round needs at least one Gaussian attempt, "
                             f"got max_attempts={attempts}")
        return replace(self, rounds=rounds, max_attempts=attempts)


@dataclass(frozen=True)
class RoundRecord:
    """One matched round: the chosen side, its demand graph, and tr(F X).

    ``side`` is L as a sorted tuple of vertex ids, which a record keeps in
    far less memory than a frozenset; ``i in side`` still tests membership.
    """

    side: tuple[int, ...]
    demand: DemandMultigraph
    inner: float


@dataclass(frozen=True)
class Witness:
    """A sign vector with beta * k < 1, re-checked exactly as rationals, and
    the records of the rounds matched before the selection it defeated."""

    x: SignVector
    beta: Ratio
    k: int
    records: tuple[RoundRecord, ...]

    @property
    def rounds(self) -> int:
        return len(self.records)

    @property
    def flow_solves(self) -> int:
        """Selections answered: one per matched round, plus the defeated one.

        A side met again in the game reuses its kept answer, so ``max_flow``
        ran once per distinct matched side, plus once for the defeat.
        """
        return self.rounds + 1


@dataclass(frozen=True)
class Certificate:
    """T matched rounds: demand union H plus the spectral lower bound.

    ``beta_H`` is the brute-forced ratio of H under the input's vertex
    weights ``b`` when H has at most ``BRUTE_CERT_LIMIT`` vertices, else
    None.  It is computed on its first read and then kept, so a caller that
    never reads it, such as the max-cut recursion, which keeps only the
    sweep's witness, never pays for the search; ``ratio_lower_bound()``
    reads it.  lambda_min of the accumulated quadratic forms always lower
    bounds 2 * beta(H).

    The rerouting bound carries a factor two: the doubled version of H holds
    both copies (i+, j-) and (i-, j+) of every demand edge, but each round's
    flow paths realize only one of them, so the mirror copy reuses the
    mirrored doubled edges and every doubled edge absorbs at most 2 * k * w
    path units per round.  Hence beta(G) >= beta(H) / (2 * k * rounds); the
    factor is attained, e.g. by a single edge with both endpoints selected.
    """

    k: int
    union: DemandMultigraph
    records: tuple[RoundRecord, ...]
    lambda_min: float
    b: tuple[int, ...]

    @property
    def rounds(self) -> int:
        return len(self.records)

    @property
    def flow_solves(self) -> int:
        """Selections answered, one per matched round; ``max_flow`` ran once
        per distinct side among them."""
        return self.rounds

    @cached_property
    def beta_H(self) -> Ratio | None:
        return brute_beta(self.union, self.b)[0] if self.union.n <= BRUTE_CERT_LIMIT else None

    def ratio_lower_bound(self) -> float:
        base = float(self.beta_H) if self.beta_H is not None else max(self.lambda_min, 0.0) / 2.0
        return base / (2 * self.k * self.rounds)


@dataclass(frozen=True)
class CutFound:
    x: SignVector


def play_round(net: FlowNetwork, state: MmwuState, rng: np.random.Generator,
               max_attempts: int, weights: VertexWeights,
               solved: dict[tuple[int, ...], DemandMultigraph]
               ) -> CutFound | tuple[RoundRecord, MmwuState]:
    """Run one round: project, select, solve the flow, answer.

    ``net`` is the game's selection network at its k; the round re-selects
    it for its own (L, empty).  ``weights`` holds the vertex weights of
    ``net``'s base graph, converted once per game and read by every
    spectral call of the round.  ``solved`` is the game's memo from each
    side it has matched, as the sorted tuple a record keeps, to that side's
    demand graph.  A side met again skips the selection, the flow, its
    decomposition and the degree-law check, and reuses the graph kept:
    ``select`` restores every residual and the max-flow is deterministic,
    so a new solve would return the same one.  A new matched side is added.

    Returns CutFound with a witness sign vector when the selection is not
    well-linked at 1/k, otherwise the round's record (side, demand graph,
    tr(F X)) and the state advanced by F.  Raises RoundFail when Gaussian
    rounding exceeds its attempt budget.
    """
    V = exact_gram_vectors(state, weights)
    rounded = gaussian_round(V, weights, rng, max_attempts)
    side = tuple(sorted(rounded.L))
    M = solved.get(side)
    if M is None:
        net.select(rounded.L, frozenset())
        flow = max_flow(net)
        if not is_saturating(flow):
            return CutFound(consistent_min_cut(flow))
        M = demand_graph(decompose_flow(flow), net)
        degs = M.degrees()
        for i, bi in enumerate(net.aux.base.b):
            want = 2 * bi if i in rounded.L else 0
            if degs[i] != want:
                raise AssertionError(
                    f"saturating round violates the demand degree law at vertex {i}")
        solved[side] = M
    F = demand_matrix(M, weights)
    # X shares V's cached factor, and only a matched round's record reads it.
    X = density_matrix(state)
    record = RoundRecord(side, M, float(np.vdot(F, X)))
    return record, state.advance(F)


def cut_matching_game(G: WeightedGraph, k: int, params: GameParams | None = None,
                      seed_path: tuple[int, ...] | None = None) -> Witness | Certificate:
    """Play the full game at ratio guess 1/k, for a positive integer k.

    Every witness is re-checked exactly (beta * k < 1 as rationals).  A
    round that fails Gaussian rounding is retried with fresh samples at the
    same state, up to ``RESTARTS`` times across the game, after which
    GameFailed is raised.  Vertex weights are G's own; pass ``G.with_b(b)``
    for others.  The Gaussian samples come from the stream seeded by
    (*seed_path, 1, k), with seed_path (params.seed,) unless given.
    """
    params = (params or GameParams()).resolve(G.n)
    # One network per game: the middle edges never change, and every round
    # re-selects the terminal arcs, so the initial selection is a placeholder.
    # Building it validates k.
    net = build_network(build_auxiliary_graph(G), range(G.n), (), k)
    k = net.k
    weights = VertexWeights(G.b, G.n)  # checked and converted once per game
    prefix = seed_path if seed_path is not None else (params.seed,)
    rng = np.random.default_rng([*prefix, 1, k])
    state = MmwuState.initial(G.n)
    records: list[RoundRecord] = []
    solved: dict[tuple[int, ...], DemandMultigraph] = {}
    restarts_left = RESTARTS
    while len(records) < params.rounds:
        try:
            outcome = play_round(net, state, rng, params.max_attempts, weights, solved)
        except RoundFail:
            restarts_left -= 1
            if restarts_left < 0:
                raise GameFailed(f"round {len(records) + 1} failed Gaussian "
                                 "rounding beyond the restart budget")
            continue
        if isinstance(outcome, CutFound):
            beta = evaluate_beta(G, outcome.x)
            if not beta * k < 1:
                raise AssertionError("witness does not beat the ratio guess")
            return Witness(outcome.x, beta, k, tuple(records))
        record, state = outcome
        records.append(record)
    union = DemandMultigraph.union([r.demand for r in records], G.n)
    return Certificate(k, union, tuple(records), lambda_min(state.accumulated), G.b)


@dataclass(frozen=True)
class GameSummary:
    k: int
    outcome: str
    beta: Ratio | None
    rounds: int
    flow_solves: int


@dataclass(frozen=True)
class SweepResult:
    """Best witness plus the certificate at the largest certified ratio.

    ``cert_source`` is the certificate that ended the sweep, or the unplayed
    game that yields it when the sweep proved from beta_1(G) that the game
    can only end in a certificate (see ``approx_bipartiteness``), or None.
    ``certificate`` plays such a game on its first read and keeps the
    result, so a failure of that game (GameFailed, NumericalFailure) is
    raised by that read.  ``r_cert`` and ``flow_solves`` come from
    ``games`` and never play it.
    """

    x_best: SignVector
    beta: Ratio
    cert_source: Certificate | Callable[[], Certificate] | None
    games: tuple[GameSummary, ...]

    @cached_property
    def certificate(self) -> Certificate | None:
        source = self.cert_source
        return source() if callable(source) else source

    @property
    def r_cert(self) -> Ratio | None:
        if self.games and self.games[-1].outcome == "certificate":
            return Fraction(1, self.games[-1].k)
        return None

    @property
    def flow_solves(self) -> int:
        return sum(g.flow_solves for g in self.games)


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
                         seed_path: tuple[int, ...] | None = None) -> SweepResult:
    """Geometric sweep over ratio guesses 1/k, k = 1, 2, 4, ...

    Keeps the best witness found and stops at the first certificate (or at
    an exact-zero witness, after which every later game would re-witness).
    The returned witness satisfies beta <= 2 * r_cert whenever a certificate
    exists; a zero ratio is always found exactly when the graph admits one,
    because the last sweep level forces any witness below the smallest
    positive ratio.

    On a graph of at most ``BRUTE_CERT_LIMIT`` vertices the sweep checks
    the settings and vertex weights as a game would, brute-forces the
    one-sided ratio beta_1(G) once (``oracle.brute_beta_one_sided``), and
    does not play the game at the first k with k * beta_1(G) >= 1.  That
    game can only end in its T-round certificate: the cut player proposes
    only one-sided selections (L, empty), and at such a k every one of them
    saturates.  As beta <= beta_1, this k comes no later than the first k
    with k * beta(G) >= 1.  The deferred game's summary reads T rounds and
    T flow solves, and the game is played on the first read of the
    result's ``certificate``, which also raises any GameFailed or
    NumericalFailure it meets; a caller that keeps only the witness never
    plays it.
    """
    beta_1: Ratio | None = None
    if G.n <= BRUTE_CERT_LIMIT:
        # Bad settings or weights fail here as the first game would fail.
        rounds = (params or GameParams()).resolve(G.n).rounds
        VertexWeights(G.b, G.n)
        beta_1 = brute_beta_one_sided(G)[0]
    best_x: SignVector | None = None
    best_beta: Ratio | None = None
    cert: Certificate | Callable[[], Certificate] | None = None
    games: list[GameSummary] = []
    for j in range(sweep_k_limit(G) + 1):
        k = 2**j
        if beta_1 is not None and k * beta_1 >= 1:
            games.append(GameSummary(k, "certificate", None, rounds, rounds))
            cert = partial(cut_matching_game, G, k, params, seed_path)
            break
        outcome = cut_matching_game(G, k, params, seed_path)
        witness = isinstance(outcome, Witness)
        games.append(GameSummary(k, "witness" if witness else "certificate",
                                 outcome.beta if witness else None,
                                 outcome.rounds, outcome.flow_solves))
        if not witness:
            cert = outcome
            break
        if best_beta is None or outcome.beta < best_beta:
            best_x, best_beta = outcome.x, outcome.beta
        # Past its summary a witness's round records are dead weight: free
        # them before the next, larger game runs.
        del outcome
        if best_beta == 0:
            break
    if best_x is None:
        best_x, best_beta = _fallback_witness(G)
    return SweepResult(best_x, best_beta, cert, tuple(games))
