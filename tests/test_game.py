from fractions import Fraction

import numpy as np
import pytest

from bipratio import (
    Certificate,
    GameFailed,
    GameParams,
    WeightedGraph,
    Witness,
    approx_bipartiteness,
    brute_beta,
    cut_matching_game,
    evaluate_beta,
)
from bipratio.game import sweep_k_limit
from bipratio.generators import complete
from bipratio.spectral import demand_matrix, lambda_max
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
    with pytest.raises(GameFailed):
        cut_matching_game(k3, 3, GameParams(seed=1, max_attempts=0))


def test_params_resolution():
    small = GameParams().resolve(16)
    assert small.rounds == max(16, __import__("math").ceil(9 * __import__("math").log(16) ** 2))
    with pytest.raises(ValueError):
        GameParams(delta=0.3).resolve(8)  # 4 * delta >= 1
    with pytest.raises(ValueError):
        GameParams(k=0).resolve(8)


def test_match_rounds_respect_norm_cap(k3):
    out = cut_matching_game(k3, 3, GameParams(seed=2))
    assert isinstance(out, Certificate)
    for rec in out.records:
        F = demand_matrix(rec.demand, k3.b)
        assert lambda_max(F) <= 4.0 + 1e-8
        degs = rec.demand.degrees()
        for i in range(k3.n):
            assert degs[i] == (2 * k3.b[i] if i in rec.side else 0)


def test_certificate_congestion_per_round(k3):
    out = cut_matching_game(k3, 3, GameParams(seed=2))
    assert isinstance(out, Certificate)
    for rec in out.records:
        for e, (_, _, w) in enumerate(k3.edges):
            c0, c1 = rec.demand.copy_usage(e)
            assert c0 <= w * out.k and c1 <= w * out.k
    # Summed over rounds.
    for e, (_, _, w) in enumerate(k3.edges):
        c0, c1 = out.union.copy_usage(e)
        assert c0 <= out.rounds * w * out.k
        assert c1 <= out.rounds * w * out.k


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
    res = approx_bipartiteness(k3, GameParams(seed=11), b=(1, 1, 1))
    assert res.r_cert == 1
    assert res.games[0].outcome == "certificate"
    assert res.beta == 2  # best of singletons (deg/b = 2) and all-ones (2)
    assert res.beta <= 2 * res.r_cert


def test_sweep_k_limit():
    assert sweep_k_limit(complete(3)) >= 1
    assert sweep_k_limit(WeightedGraph(1, (), (1,))) == 1


def test_early_exit_shortens_certificates(k3):
    slow = cut_matching_game(k3, 3, GameParams(seed=2))
    fast = cut_matching_game(k3, 3, GameParams(seed=2, early_exit=True))
    assert isinstance(slow, Certificate) and isinstance(fast, Certificate)
    assert fast.rounds < slow.rounds
    assert float(fast.beta_H) >= fast.lambda_min / 2.0 - 1e-7
    from bipratio.spectral import lambda_min as lam_min
    F_sum = sum((demand_matrix(r.demand, k3.b) for r in fast.records),
                np.zeros((3, 3)))
    assert lam_min(F_sum) >= 2.0  # the exit threshold was reached


def test_sweep_determinism(k3):
    a = approx_bipartiteness(k3, GameParams(seed=17))
    b = approx_bipartiteness(k3, GameParams(seed=17))
    assert a.x_best == b.x_best
    assert a.beta == b.beta
    assert a.r_cert == b.r_cert
    assert [(g.k, g.outcome, g.rounds) for g in a.games] == \
        [(g.k, g.outcome, g.rounds) for g in b.games]


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
        assert lam >= 0.5 * sum(inners) - math.log(G.n) / 0.125 - 1e-6


def test_one_eigensolve_per_round(monkeypatch):
    # The density matrix and the Gram vectors share the state's solve, and a
    # round retried after a rounding failure reuses it too.
    import bipratio.game as game
    import bipratio.spectral as spectral
    from bipratio.generators import gnp

    solves, roundings = [], []
    real_eigh, real_round = spectral._eigh, game.gaussian_round
    monkeypatch.setattr(spectral, "_eigh",
                        lambda A: solves.append(1) or real_eigh(A))
    monkeypatch.setattr(game, "gaussian_round",
                        lambda *a: roundings.append(1) or real_round(*a))
    G = gnp(12, 0.5, 3, seed=4)
    params = GameParams(seed=3, max_attempts=1, restarts=10**6)
    for k in (1, 2, 64):
        solves.clear()
        roundings.clear()
        out = cut_matching_game(G, k, params)
        played = out.rounds if isinstance(out, Certificate) else out.rounds_before + 1
        assert len(solves) == played
        assert len(roundings) >= played
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
