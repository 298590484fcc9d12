import math

import numpy as np
import pytest

from bipratio import (
    DegreeOverflowError,
    DemandMultigraph,
    MmwuState,
    RoundFail,
    approx_gram_vectors,
    demand_matrix,
    density_matrix,
    exact_gram_vectors,
    gaussian_round,
    taylor_apply_exp_half,
)
from bipratio.spectral import DELTA, jl_sign_matrix, lambda_max, lambda_min, sym_expm


def test_demand_matrix_self_loop():
    M = DemandMultigraph(2, {(0, 0): 2})
    F = demand_matrix(M, (2, 3))
    assert F[0, 0] == pytest.approx(4.0)
    assert F[0, 1] == F[1, 0] == F[1, 1] == 0.0
    assert lambda_max(F) <= 4.0 + 1e-8


def test_degree_cap_is_checked_in_integers():
    # 2 * b for b = 2**53 + 1 rounds down as a float; the cap compares ints.
    B = 2**53 + 1
    F = demand_matrix(DemandMultigraph(2, {(0, 1): 2 * B}), [B, B])
    assert np.allclose(F, 2.0) and lambda_max(F) <= 4.0 + 1e-8
    with pytest.raises(DegreeOverflowError, match=f"exceeds 2\\*b = {2 * B}$"):
        demand_matrix(DemandMultigraph(2, {(0, 1): 2 * B + 1}), [B, B])


def test_demand_matrix_empty_and_edge():
    assert np.all(demand_matrix(DemandMultigraph(3), (1, 1, 1)) == 0)
    F = demand_matrix(DemandMultigraph(2, {(0, 1): 1}), (1, 1))
    assert np.allclose(F, [[1, 1], [1, 1]])
    assert lambda_max(F) == pytest.approx(2.0)


def test_demand_matrix_degree_overflow():
    M = DemandMultigraph(2, {(0, 1): 3})
    with pytest.raises(DegreeOverflowError):
        demand_matrix(M, (1, 1))


def test_demand_matrix_norm_cap_random():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        b = rng.integers(1, 5, size=n)
        budget = [2 * int(x) for x in b]
        pairs = {}
        for _ in range(int(rng.integers(1, 2 * n))):
            i, j = sorted(rng.integers(0, n, size=2))
            need = 2 if i == j else 1
            if budget[i] >= need and budget[j] >= need:
                pairs[(int(i), int(j))] = pairs.get((int(i), int(j)), 0) + 1
                if i == j:
                    budget[i] -= 2
                else:
                    budget[i] -= 1
                    budget[j] -= 1
        F = demand_matrix(DemandMultigraph(n, pairs), b)
        assert lambda_max(F) <= 4.0 + 1e-8


def test_density_initial_is_uniform():
    X = density_matrix(MmwuState.initial(4))
    assert np.allclose(X, np.eye(4) / 4)


def test_density_identity_accumulated():
    X = density_matrix(MmwuState(4 * np.eye(3)))
    assert np.allclose(X, np.eye(3) / 3)


def test_density_diagonal_closed_form():
    X = density_matrix(MmwuState(np.diag([0.0, 80.0])))
    z = 1.0 + math.exp(-10.0)
    assert X[0, 0] == pytest.approx(1.0 / z)
    assert X[1, 1] == pytest.approx(math.exp(-10.0) / z)


def test_density_trace_and_psd_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        B = rng.standard_normal((n, n))
        X = density_matrix(MmwuState(B @ B.T))
        assert np.array_equal(X, X.T)  # Y @ Y.T is exactly symmetric
        assert abs(X.trace() - 1.0) <= 1e-9
        assert lambda_min(X) >= -1e-10


def test_exact_gram_uniform():
    g = exact_gram_vectors(MmwuState.initial(4), (1, 1, 1, 1))
    norms = (g**2).sum(axis=1)
    assert np.allclose(norms, 0.25)
    assert g.shape == (4, 4)


def test_exact_gram_degree_weights_k3():
    g = exact_gram_vectors(MmwuState.initial(3), (2, 2, 2))
    norms = (g**2).sum(axis=1)
    assert np.allclose(norms, 1.0 / 6.0)
    assert sum(2 * x for x in norms) == pytest.approx(1.0, abs=1e-9)


def test_exact_gram_weighted_sum_is_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        B = rng.standard_normal((n, n))
        b = rng.integers(1, 5, size=n)
        g = exact_gram_vectors(MmwuState(B @ B.T), b)
        total = float((b * (g**2).sum(axis=1)).sum())
        assert total == pytest.approx(1.0, abs=1e-9)


def test_taylor_zero_matrix():
    U = jl_sign_matrix(3, 4, np.random.default_rng(0))
    Z = taylor_apply_exp_half(np.zeros((4, 4)), U, 5)
    assert np.allclose(Z, U.T)


def test_taylor_diagonal_closed_form():
    a = np.array([-5.0, -1.0, 0.5, 5.0])
    A = 2.0 * np.diag(a)
    U = jl_sign_matrix(6, 4, np.random.default_rng(1))
    Z = taylor_apply_exp_half(A, U, 40)
    assert np.allclose(Z, np.exp(a)[:, None] * U.T, atol=1e-10, rtol=1e-10)


def test_taylor_two_by_two_closed_form():
    A = np.array([[0.0, 2.0], [2.0, 0.0]])
    U = np.ones((1, 2))
    Z = taylor_apply_exp_half(A, U, 30)
    expected = np.array([[math.cosh(1) + math.sinh(1)],
                         [math.cosh(1) + math.sinh(1)]])
    assert np.allclose(Z, expected, atol=1e-10)


def test_taylor_error_bound():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = 6
        B = rng.standard_normal((n, n))
        A = B + B.T
        A *= 3.0 / max(1.0, float(np.abs(np.linalg.eigvalsh(A)).max()))
        tau = 1e-8
        norm = float(np.abs(np.linalg.eigvalsh(A)).max())
        order = math.ceil(max(math.e**2 * norm, math.log(1.0 / tau)))
        U = jl_sign_matrix(8, n, rng)
        Z = taylor_apply_exp_half(A, U, order)
        W = sym_expm(A / 2.0) @ U.T
        bound = tau * float(np.linalg.norm(sym_expm(A / 2.0), 2)) \
            * float(np.linalg.norm(U.T, "fro"))
        assert float(np.linalg.norm(W - Z, "fro")) <= bound + 1e-12


def test_approx_gram_zero_accumulated_norms_exact():
    n, b = 8, np.ones(8, dtype=int)
    rng = np.random.default_rng(9)
    g = approx_gram_vectors(np.zeros((n, n)), b, rng)
    norms = (g**2).sum(axis=1)
    assert np.allclose(norms, 1.0 / n, atol=1e-12)


def test_approx_gram_weighted_sum_exactly_one():
    rng = np.random.default_rng(10)
    n = 8
    B = rng.standard_normal((n, n))
    acc = B @ B.T / n
    b = rng.integers(1, 5, size=n)
    g = approx_gram_vectors(acc, b, rng)
    total = float((b * (g**2).sum(axis=1)).sum())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_gaussian_round_singleton_acceptance_rate():
    # One vertex carrying the whole mass: accept iff g^2 >= 1/4, i.e. with
    # probability 2 * (1 - Phi(1/2)) ~= 0.617.
    rng = np.random.default_rng(12)
    vectors = np.array([[1.0]])
    accepted = 0
    trials = 20000
    for _ in range(trials):
        try:
            res = gaussian_round(vectors, [1], rng, 1)
            accepted += 1
            assert res.L == {0}
        except RoundFail:
            pass
    assert accepted / trials == pytest.approx(0.6171, abs=0.02)


def test_gaussian_round_swap_and_tie():
    # Opposite vectors with equal weights: masses tie, positive side kept.
    vectors = np.array([[1.0], [-1.0]])
    rng = np.random.default_rng(1)
    res = gaussian_round(vectors, [1, 1], rng, 50)
    g_effect = res.values[0]
    if g_effect > 0:
        assert res.L == {0}
    else:
        assert res.L == {1}
    assert res.mass >= 0.125


def test_gaussian_round_fails_on_zero_vectors():
    vectors = np.zeros((3, 2))
    with pytest.raises(RoundFail):
        gaussian_round(vectors, [1, 1, 1], np.random.default_rng(0), 5)


def test_inner_product_identity():
    # tr(F X) equals the sum of ||v_i + v_j||^2 over demand edges when the
    # Gram vectors are exact.
    rng = np.random.default_rng(13)
    n = 6
    B = rng.standard_normal((n, n))
    state = MmwuState(B @ B.T)
    X = density_matrix(state)
    b = rng.integers(1, 4, size=n)
    g = exact_gram_vectors(state, b)
    pairs = {(0, 1): 2, (2, 2): 1, (3, 5): 1}
    M = DemandMultigraph(n, pairs)
    F = demand_matrix(M, b)
    inner = float((F * X).sum())
    total = 0.0
    for (i, j), c in pairs.items():
        total += c * float(((g[i] + g[j]) ** 2).sum())
    assert inner == pytest.approx(total, abs=1e-7)


def _random_state(rng, n):
    """A state with a random PSD accumulated matrix of random scale."""
    B = rng.standard_normal((n, n))
    return MmwuState(B @ B.T * float(rng.uniform(0.1, 20.0)))


def test_state_gram_factor_matches_matrix_route():
    # Both readings of the cached factor against exp(-DELTA * A) / trace,
    # formed by its own eigendecomposition.
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        state = _random_state(rng, n)
        b = rng.integers(1, 6, size=n)
        scale = 1.0 / np.sqrt(b)
        E = sym_expm(-DELTA * state.accumulated)
        X = E / E.trace()
        assert np.allclose(density_matrix(state), X, rtol=0.0, atol=1e-10)
        V = exact_gram_vectors(state, b)
        assert V.shape == (n, n)
        assert np.allclose(V @ V.T, X * scale[:, None] * scale[None, :],
                           rtol=0.0, atol=1e-10)


def test_state_solves_once(monkeypatch):
    import bipratio.spectral as spectral

    calls = []
    real = spectral._eigh
    monkeypatch.setattr(spectral, "_eigh", lambda A: calls.append(1) or real(A))
    state = _random_state(np.random.default_rng(2), 6)
    X = density_matrix(state)
    factor = state.factor
    exact_gram_vectors(state, np.ones(6))
    assert np.array_equal(density_matrix(state), X)
    assert len(calls) == 1
    assert state.factor is factor  # the factor is formed once too
    density_matrix(state.advance(np.eye(6)))
    assert len(calls) == 2


def test_approx_gram_rejects_empty_matrix():
    # n = 0 has no sketch dimension and no tau; the input is refused first.
    with pytest.raises(ValueError, match="at least one vertex"):
        approx_gram_vectors(np.zeros((0, 0)), [], np.random.default_rng(0))


@pytest.mark.parametrize("b", [[2], [1, 2, 3, 4], [[1, 2, 3]]])
def test_exact_gram_rejects_wrong_weight_count(b):
    # One weight per vertex: a short b must not broadcast over the rows.
    with pytest.raises(ValueError, match="need 3 vertex weights"):
        exact_gram_vectors(MmwuState.initial(3), b)


def test_vertex_weights_above_2_1000_are_refused():
    # The bound is inclusive, and the refusal names the vertex.
    V = exact_gram_vectors(MmwuState.initial(3), (1, 2**1000, 1))
    assert np.isfinite(V).all() and V[1, 1] > 0
    with pytest.raises(ValueError, match="vertex 1 has weight above 2\\*\\*1000"):
        exact_gram_vectors(MmwuState.initial(3), (1, 2**1000 + 1, 1))


def test_approx_gram_rejects_wrong_weight_count():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="need 3 vertex weights"):
        approx_gram_vectors(np.zeros((3, 3)), [2], rng)
    # Refused before the sketch is drawn: the stream is untouched.
    assert rng.integers(0, 2**32) == np.random.default_rng(0).integers(0, 2**32)


def test_gaussian_round_rejects_wrong_weight_count():
    rng = np.random.default_rng(0)
    V = exact_gram_vectors(MmwuState.initial(3), [1, 1, 1])
    with pytest.raises(ValueError, match="need 3 vertex weights"):
        gaussian_round(V, [2], rng, 5)
    assert rng.standard_normal() == np.random.default_rng(0).standard_normal()
