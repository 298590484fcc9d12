from fractions import Fraction

import numpy as np
import pytest

from bipratio import (
    Certificate,
    GameFailed,
    GameParams,
    RoundFail,
    WeightedGraph,
    Witness,
    approx_bipartiteness,
    brute_beta,
    cut_matching_game,
    evaluate_beta,
)
from bipratio.game import sweep_k_limit
from bipratio.generators import complete
from bipratio.spectral import DELTA, demand_matrix, lambda_max
from bipratio.verify import random_test_graph


def test_single_edge_any_round_is_witness(single_edge):
    out = cut_matching_game(single_edge, 1, GameParams(seed=5))
    assert isinstance(out, Witness)
    assert out.beta == 0
    assert evaluate_beta(single_edge, out.x) == 0


def test_k3_certificates_at_k3(k3):
    out = cut_matching_game(k3, 3, GameParams(seed=5))
    assert isinstance(out, Certificate)
    assert out.rounds == 16  # resolved round cap for n = 3
    assert out.beta_H is not None
    assert float(out.beta_H) >= out.lambda_min / 2.0 - 1e-7
    # Rerouting bound against the exhaustive optimum (factor two from the
    # mirror copies of the demand edges).
    assert brute_beta(k3)[0] >= out.beta_H / (2 * out.k * out.rounds)
    assert out.ratio_lower_bound() <= float(brute_beta(k3)[0])


def test_k3_witness_at_k1(k3):
    out = cut_matching_game(k3, 1, GameParams(seed=5))
    assert isinstance(out, Witness)
    assert out.beta * 1 < 1


def test_single_vertex_graph():
    G = WeightedGraph(1, (), (1,))
    out = cut_matching_game(G, 4, GameParams(seed=0))
    assert isinstance(out, Witness)
    assert out.beta == 0


def test_witnesses_are_exact_across_random_runs():
    rng = np.random.default_rng(31)
    for run in range(15):
        n = int(rng.integers(2, 9))
        G = random_test_graph(rng, n, w_max=3)
        k = int(rng.integers(1, 5))
        out = cut_matching_game(G, k, GameParams(seed=100 + run))
        if isinstance(out, Witness):
            assert out.beta * k < 1
            assert evaluate_beta(G, out.x) == out.beta


def test_determinism_bitwise(k3):
    a = cut_matching_game(k3, 2, GameParams(seed=9))
    b = cut_matching_game(k3, 2, GameParams(seed=9))
    assert type(a) is type(b)
    if isinstance(a, Witness):
        assert a.x == b.x and a.beta == b.beta
    else:
        assert a.lambda_min == b.lambda_min
        assert [r.demand.pairs for r in a.records] == [r.demand.pairs for r in b.records]


def test_round_cap_zero_attempts_fails(k3):
    # No round can be rounded without a sample, so the game refuses to start.
    with pytest.raises(ValueError, match="at least one Gaussian attempt"):
        cut_matching_game(k3, 3, GameParams(seed=1, max_attempts=0))


def test_restart_budget_ends_in_game_failed(k3, monkeypatch):
    import bipratio.game as game

    calls = []

    def never_accepts(*args):
        calls.append(1)
        raise RoundFail("no acceptable sample")

    monkeypatch.setattr(game, "gaussian_round", never_accepts)
    with pytest.raises(GameFailed, match="restart budget"):
        cut_matching_game(k3, 3, GameParams(seed=1))
    assert len(calls) == game.RESTARTS + 1


def test_params_resolution():
    small = GameParams().resolve(16)
    assert small.rounds == max(16, __import__("math").ceil(9 * __import__("math").log(16) ** 2))


@pytest.mark.parametrize("rounds", [0, -1])
def test_games_need_at_least_one_round(rounds, k3):
    # A game of no rounds used to return a certificate with nothing behind it.
    with pytest.raises(ValueError, match="at least one round"):
        GameParams(rounds=rounds).resolve(3)
    with pytest.raises(ValueError, match="at least one round"):
        cut_matching_game(k3, 1, GameParams(rounds=rounds))
    with pytest.raises(ValueError, match="at least one round"):
        approx_bipartiteness(k3, GameParams(rounds=rounds))
    assert GameParams(rounds=1).resolve(3).rounds == 1


def test_game_rejects_bad_k(k3):
    # k is the game's own argument, validated where its network is built.
    for k in (0, 1.5):
        with pytest.raises(ValueError):
            cut_matching_game(k3, k)


def test_match_rounds_respect_norm_cap(k3):
    out = cut_matching_game(k3, 3, GameParams(seed=2))
    assert isinstance(out, Certificate)
    for rec in out.records:
        F = demand_matrix(rec.demand, k3.b)
        assert lambda_max(F) <= 4.0 + 1e-8
        degs = rec.demand.degrees()
        for i in range(k3.n):
            assert degs[i] == (2 * k3.b[i] if i in rec.side else 0)


def test_certificate_congestion_per_round(k3, monkeypatch):
    # Demand graphs keep only their pairs, so each matched round's per-copy
    # load is counted from the walks its flow decomposes into.  A game
    # solves each distinct side once, in the order the sides first occur,
    # and a round on a repeated side carries the load of that one solve.
    from bipratio import game

    loads = []
    real_decompose = game.decompose_flow

    def recorded(flow):
        paths = real_decompose(flow)
        arc_tag, load = flow.network.arc_tag, {}
        for arcs, units in paths:
            for a in arcs[1:-1]:
                load[arc_tag[a]] = load.get(arc_tag[a], 0) + units
        loads.append(load)
        return paths

    monkeypatch.setattr(game, "decompose_flow", recorded)
    out = cut_matching_game(k3, 3, GameParams(seed=2))
    assert isinstance(out, Certificate)
    sides = list(dict.fromkeys(r.side for r in out.records))
    assert len(loads) == len(sides) < out.rounds
    loads = [loads[sides.index(r.side)] for r in out.records]
    for e, (_, _, w) in enumerate(k3.edges):
        for tag in ((e, 0), (e, 1)):
            assert all(load.get(tag, 0) <= w * out.k for load in loads)
            # Summed over rounds.
            assert sum(load.get(tag, 0) for load in loads) <= out.rounds * w * out.k


def test_sweep_c4_exact_zero(c4):
    res = approx_bipartiteness(c4, GameParams(seed=3))
    assert res.beta == 0
    assert res.r_cert is None


def test_sweep_single_edge(single_edge):
    res = approx_bipartiteness(single_edge, GameParams(seed=3))
    assert res.beta == 0


def test_sweep_k3_bracket(k3):
    res = approx_bipartiteness(k3, GameParams(seed=3))
    assert res.r_cert in (Fraction(1, 2), Fraction(1, 4))
    assert res.beta <= 2 * res.r_cert
    assert res.beta >= brute_beta(k3)[0]
    assert res.certificate is not None


def test_sweep_single_vertex():
    G = WeightedGraph(1, (), (1,))
    res = approx_bipartiteness(G, GameParams(seed=0))
    assert res.beta == 0


def test_sweep_certificate_at_first_guess_uses_fallback(k3):
    # Unit vertex weights make every one-sided selection of the triangle
    # saturate even at k = 1 (route each plus copy to its successor), so the
    # sweep certificates immediately and no game witness exists; the
    # fallback witness keeps the factor-two bracket.
    res = approx_bipartiteness(k3.with_b((1, 1, 1)), GameParams(seed=11))
    assert res.r_cert == 1
    assert res.games[0].outcome == "certificate"
    assert res.beta == 2  # best of singletons (deg/b = 2) and all-ones (2)
    assert res.beta <= 2 * res.r_cert


def test_sweep_k_limit():
    assert sweep_k_limit(complete(3)) >= 1
    assert sweep_k_limit(WeightedGraph(1, (), (1,))) == 1


def test_sweep_determinism(k3):
    a = approx_bipartiteness(k3, GameParams(seed=17))
    b = approx_bipartiteness(k3, GameParams(seed=17))
    assert a.x_best == b.x_best
    assert a.beta == b.beta
    assert a.r_cert == b.r_cert
    assert [(g.k, g.outcome, g.rounds) for g in a.games] == \
        [(g.k, g.outcome, g.rounds) for g in b.games]


def test_demand_forms_and_their_sums_are_exactly_symmetric(monkeypatch):
    # The eigensolves take their input as built, reading one triangle, so
    # each round's F and the running sum the state holds must be symmetric
    # to the last bit; so must every matrix the game hands a solver.
    import bipratio.spectral as spectral
    from bipratio.generators import gnp
    from bipratio.spectral import lambda_min

    solved = []
    real_solve = spectral._symmetric_solve

    def checked(solver, A):
        solved.append(np.array_equal(A, A.T))
        return real_solve(solver, A)

    monkeypatch.setattr(spectral, "_symmetric_solve", checked)
    G = gnp(20, 0.3, 3, seed=8)
    cert = approx_bipartiteness(G, GameParams(seed=6)).certificate
    running = np.zeros((G.n, G.n))
    for rec in cert.records:
        F = demand_matrix(rec.demand, G.b)
        running = running + F
        assert np.array_equal(F, F.T) and np.array_equal(running, running.T)
    assert lambda_min(running) == cert.lambda_min  # the sum the state held
    assert len(solved) > cert.rounds and all(solved)


def test_regret_inequality_on_certificates():
    import math

    rng = np.random.default_rng(37)
    found = 0
    run = 0
    while found < 5:
        run += 1
        n = int(rng.integers(3, 9))
        G = random_test_graph(rng, n, w_max=2, p=0.7)
        res = approx_bipartiteness(G, GameParams(seed=500 + run))
        cert = res.certificate
        if cert is None:
            continue
        found += 1
        inners = [r.inner for r in cert.records]
        assert all(v is not None for v in inners)
        F_sum = sum((demand_matrix(r.demand, G.b) for r in cert.records),
                    np.zeros((G.n, G.n)))
        lam = float(np.linalg.eigvalsh(F_sum)[0])
        assert lam >= 0.5 * sum(inners) - math.log(G.n) / DELTA - 1e-6


def test_flow_solves_count_the_max_flow_calls(monkeypatch):
    # flow_solves counts the selections answered: one per matched round,
    # plus the defeated selection of a witness; a round retried after a
    # rounding failure answers nothing.  max_flow runs once per distinct
    # matched side of a game, plus once for the defeated selection.
    import bipratio.game as game
    from bipratio.generators import gnp

    solves, answered, failures = [], [], []
    real_flow, real_round, real_game = game.max_flow, game.gaussian_round, game.cut_matching_game

    def counted_round(*args):
        try:
            rounded = real_round(*args)
        except RoundFail:
            failures.append(1)
            raise
        answered.append(1)
        return rounded

    def distinct_solves(out):
        return len({r.side for r in out.records}) + isinstance(out, Witness)

    monkeypatch.setattr(game, "max_flow", lambda net: solves.append(1) or real_flow(net))
    monkeypatch.setattr(game, "gaussian_round", counted_round)
    monkeypatch.setattr(game, "RESTARTS", 10**6)
    G = gnp(12, 0.5, 3, seed=4)
    params = GameParams(seed=3, max_attempts=1)
    kinds, repeated = set(), 0
    for k in (1, 2, 64):
        solves.clear()
        answered.clear()
        out = cut_matching_game(G, k, params)
        kinds.add(type(out))
        assert out.flow_solves == len(answered)
        assert len(solves) == distinct_solves(out)
        assert out.rounds == len(out.records)
        repeated += out.flow_solves - len(solves)
    assert kinds == {Witness, Certificate} and failures and repeated
    solves.clear()
    answered.clear()
    played = []
    monkeypatch.setattr(game, "cut_matching_game",
                        lambda *a: played.append(real_game(*a)) or played[-1])
    res = approx_bipartiteness(G, params)
    assert res.flow_solves == len(answered) == sum(g.flow_solves for g in res.games)
    assert len(solves) == sum(distinct_solves(out) for out in played)


def test_one_eigensolve_per_round(monkeypatch):
    # The density matrix and the Gram vectors share the state's solve, and a
    # round retried after a rounding failure reuses it too.  The density
    # matrix is formed only in matched rounds: not in the round a witness
    # ends, nor in a round that rounding fails.
    import bipratio.game as game
    import bipratio.spectral as spectral
    from bipratio.generators import gnp

    solves, roundings, densities = [], [], []
    real_eigh, real_round, real_density = (spectral._eigh, game.gaussian_round,
                                           game.density_matrix)
    monkeypatch.setattr(spectral, "_eigh",
                        lambda A: solves.append(1) or real_eigh(A))
    monkeypatch.setattr(game, "gaussian_round",
                        lambda *a: roundings.append(1) or real_round(*a))
    monkeypatch.setattr(game, "density_matrix",
                        lambda s: densities.append(1) or real_density(s))
    monkeypatch.setattr(game, "RESTARTS", 10**6)
    G = gnp(12, 0.5, 3, seed=4)
    params = GameParams(seed=3, max_attempts=1)
    witnesses = 0
    for k in (1, 2, 64):
        solves.clear()
        roundings.clear()
        densities.clear()
        out = cut_matching_game(G, k, params)
        played = out.flow_solves  # one state per solved selection
        assert len(solves) == played
        assert len(roundings) >= played
        assert len(densities) == len(out.records)
        witnesses += isinstance(out, Witness)
    assert witnesses  # a witness round formed no density matrix
    assert isinstance(out, Certificate) and len(roundings) > played


def test_large_game_factors_the_state(monkeypatch):
    # The cut player has one route at every size: each round factors the
    # state's own eigendecomposition, and the Taylor sketch is never called.
    import bipratio.game as game
    import bipratio.spectral as spectral
    from bipratio.generators import gnp

    def no_sketch(*args, **kwargs):
        raise AssertionError("the game called the sketched Gram route")

    solves = []
    real_eigh = spectral._eigh
    monkeypatch.setattr(spectral, "_eigh",
                        lambda A: solves.append(1) or real_eigh(A))
    monkeypatch.setattr(spectral, "approx_gram_vectors", no_sketch)
    monkeypatch.setattr(game, "approx_gram_vectors", no_sketch)
    G = gnp(520, 6 / 519, 3, seed=1)
    out = cut_matching_game(G, 4, GameParams(seed=1, rounds=2))
    assert isinstance(out, Certificate) and out.rounds == 2
    assert len(solves) == 2
    assert all(isinstance(r.inner, float) for r in out.records)


def test_seeded_sweep_repeats_exactly():
    from bipratio.generators import gnp

    G = gnp(20, 0.3, 3, seed=8)
    a = approx_bipartiteness(G, GameParams(seed=6))
    b = approx_bipartiteness(G, GameParams(seed=6))
    assert (a.x_best, a.beta, a.r_cert, a.games, a.flow_solves) \
        == (b.x_best, b.beta, b.r_cert, b.games, b.flow_solves)
    assert a.certificate.lambda_min == b.certificate.lambda_min
    assert [r.demand.pairs for r in a.certificate.records] \
        == [r.demand.pairs for r in b.certificate.records]


def test_certificate_rounds_share_pair_keys():
    # The rounds of one game take their pair keys from the game's network,
    # so a certificate holds one tuple per distinct pair, not one per round.
    from bipratio.generators import gnp

    cert = approx_bipartiteness(gnp(20, 0.3, 3, seed=8), GameParams(seed=6)).certificate
    assert cert.rounds == 81
    keys = {id(key): key for rec in cert.records for key in rec.demand.pairs}
    assert len(keys) == len(cert.union.pairs)
    assert all(id(key) in keys for key in cert.union.pairs)


def test_certificate_rounds_are_lean():
    # A round record keeps its side as a sorted tuple and its demand graph's
    # pairs as two tuples, with no usage ledger and no cached degree list, so
    # the 81-round certificate holds about 68 kB under tracemalloc (Python
    # 3.11).  With a per-edge usage ledger in tuples it held about 133 kB,
    # with pair dicts and cached degree lists as well about 186 kB, and with
    # per-round usage dicts and frozensets about 305 kB.
    import gc
    import tracemalloc

    from bipratio.generators import gnp

    G = gnp(20, 0.3, 3, seed=8)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cert = approx_bipartiteness(G, GameParams(seed=6)).certificate
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert cert.rounds == 81
    assert held <= 100_000
    for rec in cert.records:
        assert type(rec.side) is tuple and list(rec.side) == sorted(set(rec.side))


def test_seeded_outputs_are_pinned():
    # Literal outputs of two seeded runs: a change that alters the random
    # stream or any exact answer shows here, not only in benchmark digests.
    from bipratio import recursive_bipart
    from bipratio.game import GameSummary
    from bipratio.generators import gnp, planted_bipartite

    res = approx_bipartiteness(gnp(20, 0.3, 3, seed=8), GameParams(seed=6))
    assert res.x_best == (-1, 1, 1, 1, -1, 1, 1, 1, -1, 1,
                          -1, 1, -1, 1, 1, -1, -1, 1, -1, 1)
    assert res.beta == Fraction(12, 55)
    assert res.r_cert == Fraction(1, 4)
    assert res.games == (
        GameSummary(k=1, outcome="witness", beta=Fraction(19, 55), rounds=0,
                    flow_solves=1),
        GameSummary(k=2, outcome="witness", beta=Fraction(12, 55), rounds=19,
                    flow_solves=20),
        GameSummary(k=4, outcome="certificate", beta=None, rounds=81,
                    flow_solves=81),
    )
    assert res.flow_solves == 102
    G, _ = planted_bipartite(12, 0.4, 0.1, seed=5)
    cut = recursive_bipart(G, GameParams(seed=1))
    assert cut.S == frozenset({2, 3, 6, 7, 8, 9, 10, 11})
    assert cut.value == Fraction(7, 8)


def test_certificate_brute_forces_beta_H_on_first_read(monkeypatch):
    # The game leaves beta(H) to the certificate's first read; the search
    # runs once, and a read of the kept value, or of the bound that uses
    # it, runs none.
    import bipratio.game as game
    from bipratio.generators import gnp

    calls = []
    real = game.brute_beta
    monkeypatch.setattr(game, "brute_beta", lambda *a: calls.append(1) or real(*a))
    G = gnp(8, 0.5, 3, seed=2)
    cert = cut_matching_game(G, 64, GameParams(seed=1))
    assert isinstance(cert, Certificate) and calls == []
    assert cert.beta_H == brute_beta(cert.union, G.b)[0]
    assert len(calls) == 1
    assert cert.ratio_lower_bound() == float(cert.beta_H) / (2 * cert.k * cert.rounds)
    assert len(calls) == 1
    # Past BRUTE_CERT_LIMIT vertices there is no search: beta_H is None.
    big = cut_matching_game(gnp(9, 0.5, 3, seed=2), 64, GameParams(seed=1, rounds=2))
    assert isinstance(big, Certificate) and big.beta_H is None
    assert len(calls) == 1


def test_game_converts_its_vertex_weights_once(monkeypatch):
    # One conversion per game, however many rounds it plays: every spectral
    # call of every round receives the game's one VertexWeights.
    import bipratio.game as game
    import bipratio.spectral as spectral
    from bipratio.generators import gnp

    made, handed = [], []
    real_init = spectral.VertexWeights.__init__

    def counted_init(self, b, n):
        made.append(1)
        real_init(self, b, n)

    def spy(name, position):
        real = getattr(game, name)

        def call(*args):
            handed.append(args[position])
            return real(*args)
        monkeypatch.setattr(game, name, call)

    monkeypatch.setattr(spectral.VertexWeights, "__init__", counted_init)
    spy("exact_gram_vectors", 1)
    spy("gaussian_round", 1)
    spy("demand_matrix", 1)
    G = gnp(10, 0.5, 3, seed=5)
    for rounds in (4, 40):
        made.clear()
        handed.clear()
        cert = cut_matching_game(G, 64, GameParams(seed=2, rounds=rounds))
        assert isinstance(cert, Certificate) and cert.rounds == rounds
        assert len(made) == 1
        assert len(handed) >= 3 * rounds
        assert all(w is handed[0] for w in handed)
        assert isinstance(handed[0], spectral.VertexWeights)


def test_game_solves_each_distinct_side_once(k3, monkeypatch):
    # The seeded triangle game at k = 3 matches 16 rounds on 7 distinct
    # sides.  A repeated side reuses the demand graph of its first round,
    # and every record's graph is the one a fresh solve of its side gives.
    import bipratio.game as game
    from bipratio.flow import build_network, decompose_flow, demand_graph, max_flow
    from bipratio.graph import build_auxiliary_graph

    solves = []
    real_flow = game.max_flow
    monkeypatch.setattr(game, "max_flow", lambda net: solves.append(1) or real_flow(net))
    out = cut_matching_game(k3, 3, GameParams(seed=2))
    assert isinstance(out, Certificate) and out.rounds == 16
    first = {}
    for rec in out.records:
        assert rec.demand is first.setdefault(rec.side, rec.demand)
    assert len(first) == len(solves) == 7
    net = build_network(build_auxiliary_graph(k3), range(k3.n), (), 3)
    for rec in out.records:
        net.select(frozenset(rec.side), frozenset())
        assert rec.demand == demand_graph(decompose_flow(max_flow(net)), net)


def test_game_at_a_ratio_guess_below_beta_ends_in_a_certificate():
    # At the first power of two k with k * beta(G) >= 1 a witness would
    # need a ratio below 1/k <= beta(G), so the game can only certificate:
    # the fact that lets the sweep defer that game.  Degree weights and
    # other weights alike.
    rng = np.random.default_rng(41)
    played = 0
    for run in range(140):
        n = int(rng.integers(2, 9))
        G = random_test_graph(rng, n, w_max=3, p=0.7)
        for H in (G, G.with_b(tuple(int(x) for x in rng.integers(1, 6, size=n)))):
            beta = brute_beta(H)[0]
            if beta == 0:
                continue
            k = 1
            while k * beta < 1:
                k *= 2
            out = cut_matching_game(H, k, GameParams(seed=run))
            assert isinstance(out, Certificate), (H, k)
            played += 1
    assert played >= 150


def test_deferred_certificate_is_played_on_first_read(monkeypatch):
    # Seed 0 on this G(8, 1/2) reaches k = 4 with 4 * beta(G) = 1, so the
    # sweep summarizes that game without playing it.  Everything but the
    # certificate reads from the summaries; the certificate is played once,
    # on its first read, and equals the game played directly.
    import bipratio.game as game
    from bipratio.generators import gnp

    played = []
    real_game = game.cut_matching_game
    monkeypatch.setattr(game, "cut_matching_game",
                        lambda *a: played.append(a[1]) or real_game(*a))
    G, params = gnp(8, 0.5, 3, seed=0), GameParams(seed=0)
    assert 4 * brute_beta(G)[0] == 1
    res = approx_bipartiteness(G, params)
    assert played == [1, 2]
    T = params.resolve(G.n).rounds
    assert res.games[-1] == game.GameSummary(4, "certificate", None, T, T)
    assert (res.r_cert, res.flow_solves) == (Fraction(1, 4), sum(g.flow_solves for g in res.games))
    assert res.beta == evaluate_beta(G, res.x_best) <= 2 * res.r_cert
    assert played == [1, 2]
    cert = res.certificate
    assert played == [1, 2, 4] and res.certificate is cert
    direct = real_game(G, 4, params, None)
    assert isinstance(cert, Certificate) and cert.rounds == T
    assert [r.demand.pairs for r in cert.records] == [r.demand.pairs for r in direct.records]
    assert (cert.lambda_min, cert.beta_H) == (direct.lambda_min, direct.beta_H)
    assert played == [1, 2, 4]


def test_deferred_certificate_failure_surfaces_on_first_read(monkeypatch):
    # A triangle of weight-3 edges under unit vertex weights has beta = 2,
    # so the sweep plays no game at all; a failure of the deferred game is
    # raised by the read of the certificate, not by the sweep.
    import bipratio.game as game
    from bipratio.game import GameSummary

    def never_accepts(*args):
        raise RoundFail("no acceptable sample")

    monkeypatch.setattr(game, "gaussian_round", never_accepts)
    G = WeightedGraph(3, ((0, 1, 3), (1, 2, 3), (0, 2, 3)), (1, 1, 1))
    res = approx_bipartiteness(G, GameParams(seed=11))
    assert res.games == (GameSummary(1, "certificate", None, 16, 16),)
    assert res.r_cert == 1
    with pytest.raises(GameFailed, match="restart budget"):
        res.certificate
