"""Named property checks over randomized corpora.

Each check exercises one structural guarantee of the library against an
independent oracle (exhaustive enumeration, dense linear algebra, or a
closed form) and returns (ok, detail).  The command line exposes them under
``verify``; the acceptance test-suite calls them at full scale.  Every check
takes its corpus size as ``trials`` and its base seed as ``seed``, and all
randomness flows through explicit integer seeds.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import RoundFail
from .flow import build_network, consistent_min_cut, cut_capacity, decompose_flow, \
    is_saturating, max_flow
from .game import Certificate, GameParams, approx_bipartiteness, cut_matching_game
from .generators import _gnp_edges, _patch_isolated, planted_bipartite
from .graph import WeightedGraph, aux_cut_ratio, build_auxiliary_graph, \
    evaluate_beta, tripartition
from .maxcut import recursive_bipart
from .oracle import brute_beta, brute_maxcut, brute_well_linked, iter_symmetric_pairs
from .spectral import DELTA, MmwuState, VertexWeights, approx_gram_vectors, \
    demand_matrix, density_matrix, gaussian_round, jl_sign_matrix, lambda_max, \
    lambda_min, sym_expm, taylor_apply_exp_half


# ---------------------------------------------------------------------------
# corpora

def random_test_graph(rng: np.random.Generator, n: int, w_max: int = 3,
                      p: float = 0.5, random_b: bool = False,
                      b_max: int = 4) -> WeightedGraph:
    """Random graph with no isolated vertex; b is degrees or random."""
    edges = _gnp_edges(rng, n, p, w_max)
    if n >= 2:
        edges = _patch_isolated(n, edges)
    b = tuple(int(x) for x in rng.integers(1, b_max + 1, size=n)) if random_b else None
    return WeightedGraph(n, tuple(edges), b)


def random_sign_vector(rng: np.random.Generator, n: int) -> tuple[int, ...]:
    while True:
        x = tuple(int(v) for v in rng.integers(-1, 2, size=n))
        if any(x):
            return x


def _is_connected(n: int, edges) -> bool:
    if n == 1:
        return True
    adj = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def all_connected_graphs(n_max: int):
    """All labeled connected unit-weight graphs with 1..n_max vertices."""
    for n in range(1, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = tuple((u, v, 1) for idx, (u, v) in enumerate(pairs)
                          if (bits >> idx) & 1)
            if not _is_connected(n, edges):
                continue
            yield WeightedGraph(n, edges, (1,) if n == 1 else None)


# ---------------------------------------------------------------------------
# checks

def check_claim_equality(trials: int = 500, vectors: int = 20, n_max: int = 8,
                         seed: int = 1):
    """Sign-vector ratio equals the doubled-graph cut ratio, exactly."""
    rng = np.random.default_rng([seed, 10])
    tested = 0
    for _ in range(trials):
        n = int(rng.integers(2, n_max + 1))
        G = random_test_graph(rng, n, w_max=5, random_b=True, b_max=5)
        aux = build_auxiliary_graph(G)
        for _ in range(vectors):
            x = random_sign_vector(rng, n)
            L, R, _ = tripartition(x)
            if evaluate_beta(G, x) != aux_cut_ratio(aux, L, R):
                return False, f"mismatch on n={n} x={x}"
            tested += 1
    return True, f"{tested} (graph, vector) pairs agreed exactly"


def check_well_linked_iff(n_small_max: int = 5, trials: int = 100,
                          ks=(1, 2, 3, 4), seed: int = 2,
                          n_max: int | None = None):
    """beta >= 1/k holds iff every symmetric selection saturates.

    ``n_max`` pins the random instances to one size (must stay <= 7, the
    exhaustive enumeration limit) and skips the all-connected-graphs corpus;
    by default the random instances mix n in {6, 7}.
    """
    rng = np.random.default_rng([seed, 11])
    checked = 0
    if n_max is None:
        for G in all_connected_graphs(n_small_max):
            beta = brute_beta(G)[0]
            for k in ks:
                linked, _ = brute_well_linked(G, k=k)
                if linked != (beta >= Fraction(1, k)):
                    return False, f"iff failed on n={G.n} edges={G.edges} k={k}"
                checked += 1
    for _ in range(trials):
        n = n_max if n_max is not None else int(rng.integers(6, 8))
        random_b = bool(rng.integers(0, 2))
        G = random_test_graph(rng, n, w_max=3, random_b=random_b)
        beta = brute_beta(G)[0]
        for k in ks:
            linked, _ = brute_well_linked(G, k=k)
            if linked != (beta >= Fraction(1, k)):
                return False, f"iff failed on n={n} seeded instance k={k}"
            checked += 1
    return True, f"{checked} (graph, k) equivalences held"


def check_consistent_cuts(trials: int = 200, seed: int = 3):
    """Reduced residual cuts keep the exact minimum cut value."""
    rng = np.random.default_rng([seed, 12])
    seen = 0
    while seen < trials:
        n = int(rng.integers(2, 8))
        G = random_test_graph(rng, n, w_max=3, random_b=bool(rng.integers(0, 2)))
        aux = build_auxiliary_graph(G)
        k = int(rng.integers(1, 5))
        for L, R in iter_symmetric_pairs(n):
            net = build_network(aux, L, R, k)
            flow = max_flow(net)
            if is_saturating(flow):
                continue
            x = consistent_min_cut(flow)
            reduced = {net.source}
            reduced.update(i for i in range(n) if x[i] == 1)
            reduced.update(n + i for i in range(n) if x[i] == -1)
            if cut_capacity(net, reduced) != flow.value:
                return False, f"cut value changed on n={n} L={sorted(L)} R={sorted(R)}"
            if evaluate_beta(G, x) * k >= 1:
                return False, f"reduced cut not below 1/k on n={n}"
            seen += 1
            if seen >= trials:
                break
    return True, f"{seen} non-saturating networks reduced at equal value"


def check_witness_exact(trials: int = 40, seed: int = 4):
    """Every witness satisfies beta * k < 1 by rational comparison."""
    rng = np.random.default_rng([seed, 13])
    witnesses = 0
    for run in range(trials):
        n = int(rng.integers(2, 10))
        G = random_test_graph(rng, n, w_max=3)
        res = approx_bipartiteness(G, GameParams(seed=seed * 1000 + run))
        for summary in res.games:
            if summary.outcome == "witness":
                if not summary.beta * summary.k < 1:
                    return False, f"inexact witness at n={n} k={summary.k}"
                witnesses += 1
    return True, f"{witnesses} witnesses all exact"


def _certificate_runs(rng: np.random.Generator, runs: int, n_lo: int, n_hi: int,
                      seed: int):
    """Sweeps on random graphs until `runs` certificates are collected."""
    out = []
    attempt = 0
    while len(out) < runs:
        attempt += 1
        n = int(rng.integers(n_lo, n_hi + 1))
        G = random_test_graph(rng, n, w_max=2, p=0.6)
        res = approx_bipartiteness(G, GameParams(seed=seed * 7919 + attempt))
        if res.certificate is not None:
            out.append((G, res))
    return out


def check_regret(trials: int = 25, seed: int = 5, graph: WeightedGraph | None = None,
                 k: int = 1):
    """Smallest eigenvalue of the accumulated forms obeys the regret bound."""
    certs: list[tuple[WeightedGraph, Certificate]] = []
    note = ""
    if graph is not None:
        outcome = cut_matching_game(graph, k, GameParams(seed=seed))
        if isinstance(outcome, Certificate):
            certs.append((graph, outcome))
        else:
            note = (f"; the extra graph's game at k={k} ended in a witness "
                    f"(beta {outcome.beta}), so it has no bound to check")
    rng = np.random.default_rng([seed, 14])
    for G, res in _certificate_runs(rng, trials, 3, 12, seed):
        certs.append((G, res.certificate))
    for G, cert in certs:
        inners = [r.inner for r in cert.records]
        F_sum = sum((demand_matrix(r.demand, G.b) for r in cert.records),
                    np.zeros((G.n, G.n)))
        lhs = lambda_min(F_sum)
        rhs = 0.5 * sum(inners) - math.log(G.n) / DELTA
        if lhs < rhs - 1e-6:
            return False, f"regret bound violated: {lhs:.6f} < {rhs:.6f} (n={G.n})"
    return True, f"{len(certs)} certificate runs satisfied the regret bound{note}"


def check_certificate_soundness(trials: int = 100, n_max: int = 8, seed: int = 6):
    """Certificate ratio bounds: beta(G) >= beta(H)/(2kT), beta(H) >= lam/2.

    The rerouting denominator carries the factor two because each doubled
    demand edge and its mirror share the round's flow paths; without it the
    bound is falsifiable (roughly one certificate run in a hundred).  beta(H)
    is the certificate's own, searched here only when it keeps none.
    """
    rng = np.random.default_rng([seed, 15])
    done = 0
    for G, res in _certificate_runs(rng, trials, 3, n_max, seed):
        cert = res.certificate
        beta_G = brute_beta(G)[0]
        beta_H = cert.beta_H
        if beta_H is None:
            beta_H = brute_beta(cert.union, G.b)[0]
        if beta_G < beta_H / (2 * cert.k * cert.rounds):
            return False, (f"rerouting bound violated: beta={beta_G} "
                           f"H-bound={beta_H}/(2*{cert.k}*{cert.rounds})")
        if float(beta_H) < cert.lambda_min / 2.0 - 1e-7:
            return False, f"spectral bound violated: {beta_H} < {cert.lambda_min}/2"
        done += 1
    return True, f"{done} certificates sound (rerouting and spectral bounds)"


def check_demand_degree(trials: int = 30, seed: int = 7):
    """Matched rounds: degree 2b on the side, 0 off it; ||F|| <= 4."""
    rng = np.random.default_rng([seed, 16])
    rounds_seen = 0
    for run in range(trials):
        n = int(rng.integers(2, 10))
        G = random_test_graph(rng, n, w_max=3)
        k = int(rng.integers(1, 9))
        outcome = cut_matching_game(G, k, GameParams(seed=seed * 104729 + run))
        for rec in outcome.records:
            degs = rec.demand.degrees()
            for i in range(n):
                want = 2 * G.b[i] if i in rec.side else 0
                if degs[i] != want:
                    return False, f"degree law broken at vertex {i} (n={n})"
            F = demand_matrix(rec.demand, G.b)
            if lambda_max(F) > 4.0 + 1e-8:
                return False, f"demand form exceeds norm 4 (n={n})"
            rounds_seen += 1
    return True, f"{rounds_seen} matched rounds obey the degree law and norm cap"


def check_gram_bounds(ns=(8, 16), trials: int = 200, seed: int = 8, audits: int = 20):
    """Sketched Gram vectors track exact norms; dense pipeline error bound."""
    eps = 0.25  # the tolerances checked; the sketch fixes its own accuracy
    min_pass = 0.95
    held = []
    for n in ns:
        tau = min(1.0 / (12.0 * n**1.5), 1e-9)
        passed = 0
        for s in range(trials):
            rng = np.random.default_rng([seed, 17, n, s])
            B = rng.standard_normal((n, n))
            acc = B @ B.T
            acc *= 3.0 / max(1.0, float(np.linalg.eigvalsh(acc)[-1]))
            b = rng.integers(1, 5, size=n)
            X = density_matrix(MmwuState(acc))
            scale = 1.0 / np.sqrt(b.astype(float))
            Y = X * scale[:, None] * scale[None, :]
            V = approx_gram_vectors(acc, b, rng)
            Ghat = V @ V.T
            exact_pair = Y.diagonal()[:, None] + Y.diagonal()[None, :] + 2 * Y
            approx_pair = (Ghat.diagonal()[:, None] + Ghat.diagonal()[None, :]
                           + 2 * Ghat)
            ok_norms = np.all(np.abs(Ghat.diagonal() - Y.diagonal())
                              <= eps * Y.diagonal() + tau)
            ok_pairs = np.all(np.abs(approx_pair - exact_pair)
                              <= eps * exact_pair + tau)
            if ok_norms and ok_pairs:
                passed += 1
        if passed < min_pass * trials:
            return False, f"n={n}: only {passed}/{trials} seeds within bounds"
        held.append(f"{passed}/{trials} seeds at n={n}")
    n = 6
    tau_a = 1e-4
    ran = 0
    for s in range(audits):
        rng = np.random.default_rng([seed, 18, s])
        B = rng.standard_normal((n, n))
        A = B + B.T
        A *= 2.0 / max(1.0, float(np.abs(np.linalg.eigvalsh(A)).max()))
        b = rng.integers(1, 5, size=n)
        d = 64
        U = jl_sign_matrix(d, n, rng)
        norm_half = float(np.abs(np.linalg.eigvalsh(A / 2.0)).max())
        order = math.ceil(max(math.e**2 * norm_half, math.log(1.0 / tau_a))) + 2
        W = sym_expm(A / 2.0) @ U.T
        Z = taylor_apply_exp_half(A, U, order)
        tr_w = float((W * W).sum())
        tr_exp = float(np.trace(sym_expm(A)))
        if not (0.75 * tr_exp <= tr_w <= 1.25 * tr_exp):
            continue
        scale = 1.0 / np.sqrt(b.astype(float))
        Yp = (W @ W.T) * scale[:, None] * scale[None, :] / tr_w
        Ypp = (Z @ Z.T) * scale[:, None] * scale[None, :] / float((Z * Z).sum())
        err = float(np.linalg.norm(Yp - Ypp, 2))
        bound = 12.0 * n**1.5 * (1.0 / float(b.max())) * tau_a
        if err > bound + 1e-9:
            return False, f"dense pipeline audit failed: {err:.3e} > {bound:.3e}"
        ran += 1
    if ran == 0:
        return False, f"no audit ran: all {audits} sketched traces were off by over 25%"
    return True, (f"sketch bounds held on {', '.join(held)}; "
                  f"{ran}/{audits} audits ran and passed")


def check_approx_quality(trials: int = 200, n_lo: int = 6, n_hi: int = 12,
                         seed: int = 9):
    """Sweep witness within 4 ln n of the brute optimum (or exactly zero)."""
    rng = np.random.default_rng([seed, 19])
    good = 0
    for run in range(trials):
        n = int(rng.integers(n_lo, n_hi + 1))
        G = random_test_graph(rng, n, w_max=int(rng.integers(1, 4)))
        res = approx_bipartiteness(G, GameParams(seed=seed * 6151 + run))
        opt = brute_beta(G)[0]
        if opt == 0:
            good += res.beta == 0
        else:
            good += float(res.beta / opt) <= 4.0 * math.log(n)
    return good >= 0.95 * trials, f"{good}/{trials} sweeps within the quality target"


def check_maxcut_bipartite(trials: int = 50, n_max: int = 30, seed: int = 10):
    """Bipartite inputs are cut perfectly, every run."""
    rng = np.random.default_rng([seed, 20])
    for run in range(trials):
        n = int(rng.integers(4, n_max + 1))
        G, _ = planted_bipartite(n, p_cross=float(rng.uniform(0.2, 0.6)),
                                 p_noise=0.0, seed=seed * 3571 + run)
        result = recursive_bipart(G, GameParams(seed=seed * 3571 + run))
        if result.value != 1:
            return False, f"bipartite run cut {result.value} < 1 (n={n})"
    return True, f"{trials} bipartite graphs cut exactly in full"


def check_maxcut_bound(trials: int = 40, n_max: int = 16, seed: int = 11):
    """Near-bipartite inputs: value >= 1 - 10 ln n * ln(3/eta) * eta."""
    rng = np.random.default_rng([seed, 21])
    good = counted = skipped = 0
    while counted < trials:
        n = int(rng.integers(6, n_max + 1))
        G, _ = planted_bipartite(n, p_cross=float(rng.uniform(0.3, 0.7)),
                                 p_noise=float(rng.uniform(0.05, 0.3)),
                                 seed=seed * 2999 + counted + good + skipped)
        opt, _ = brute_maxcut(G)
        eta = 1 - opt
        if eta == 0:  # bipartite: a new draw, on a moved generator seed
            skipped += 1
            continue
        counted += 1
        result = recursive_bipart(G, GameParams(seed=seed * 2999 + counted))
        bound = 1.0 - 10.0 * math.log(n) * math.log(3.0 / float(eta)) * float(eta)
        if float(result.value) >= bound:
            good += 1
    return good >= 0.9 * counted, f"{good}/{counted} noisy runs met the uncut bound"


def check_rounding_acceptance(n: int = 64, trials: int = 10_000, seed: int = 12):
    """Gaussian mass test rejects at most e^{-1/16} + 0.03 of samples, as
    run by ``gaussian_round`` until ``trials`` samples are drawn."""
    rng = np.random.default_rng([seed, 22])
    vectors = np.eye(n) / math.sqrt(n)
    unit = VertexWeights([1] * n, n)
    drawn = accepted = 0
    while drawn < trials:
        try:  # an accepted call rejected all but its last attempt
            drawn += gaussian_round(vectors, unit, rng, trials - drawn).attempts
            accepted += 1
        except RoundFail:  # every sample it was allowed was rejected
            drawn = trials
    rate = (trials - accepted) / trials
    bound = math.exp(-1.0 / 16.0) + 0.03
    return rate <= bound, f"rejection rate {rate:.4f} <= {bound:.4f}"


def check_flow_decomposition(trials: int = 60, seed: int = 13):
    """Path decomposition invariants on saturating selection networks; each
    copy's load is counted from the walks (``arc_tag`` over ``arcs[1:-1]``)
    and checked against w(e) * k."""
    rng = np.random.default_rng([seed, 23])
    seen = 0
    attempts = 0
    while seen < trials and attempts < trials * 40:
        attempts += 1
        n = int(rng.integers(2, 8))
        G = random_test_graph(rng, n, w_max=2)
        aux = build_auxiliary_graph(G)
        k = int(rng.integers(1, 5))
        size = int(rng.integers(1, n + 1))
        L = frozenset(int(i) for i in rng.choice(n, size=size, replace=False))
        net = build_network(aux, L, frozenset(), k)
        flow = max_flow(net)
        if not is_saturating(flow):
            continue
        paths = decompose_flow(flow)
        if sum(p.units for p in paths) != flow.value:
            return False, "multiplicities do not sum to the flow value"
        if len(paths) > len(net.head) // 2:
            return False, "more distinct paths than arcs"
        head, arc_tag = net.head, net.arc_tag
        load: dict[tuple[int, int], int] = {}
        for arcs, units in paths:
            if head[arcs[0] ^ 1] != net.source or head[arcs[-1]] != net.sink:
                return False, "a walk does not run from the source to the sink"
            if any(head[a] != head[b ^ 1] for a, b in zip(arcs, arcs[1:])):
                return False, "consecutive arcs of a walk do not meet"
            for tag in map(arc_tag.__getitem__, arcs[1:-1]):
                if tag is None:
                    return False, "an interior arc of a walk is not a middle arc"
                load[tag] = load.get(tag, 0) + units
        for (e, _), units in load.items():
            if units > G.edges[e][2] * k:
                return False, f"congestion above w*k on edge {e}"
        seen += 1
    return True, f"{seen} saturating decompositions respected all invariants"


# ---------------------------------------------------------------------------
# registry

CHECKS = {
    "claim-equality": check_claim_equality,
    "thm-linked": check_well_linked_iff,
    "lemma-cut": check_consistent_cuts,
    "witness-exact": check_witness_exact,
    "regret": check_regret,
    "cert-sound": check_certificate_soundness,
    "demand-degree": check_demand_degree,
    "gram-bounds": check_gram_bounds,
    "approx-quality": check_approx_quality,
    "maxcut-bipartite": check_maxcut_bipartite,
    "maxcut-bound": check_maxcut_bound,
    "rounding-accept": check_rounding_acceptance,
    "flow-decomp": check_flow_decomposition,
}

# Smallest n_max from which each check that takes one can draw its graphs.
SMALLEST_N = {"claim-equality": 2, "thm-linked": 2, "cert-sound": 3,
              "maxcut-bipartite": 4, "maxcut-bound": 6}

QUICK_OVERRIDES = {
    "claim-equality": dict(trials=40, vectors=5, n_max=5),
    "thm-linked": dict(n_small_max=4, trials=4, ks=(1, 2, 3)),
    "lemma-cut": dict(trials=25),
    "witness-exact": dict(trials=6),
    "regret": dict(trials=4),
    "cert-sound": dict(trials=8, n_max=6),
    "demand-degree": dict(trials=5),
    "gram-bounds": dict(ns=(8,), trials=25, audits=5),
    "approx-quality": dict(trials=15, n_lo=4, n_hi=7),
    "maxcut-bipartite": dict(trials=5, n_max=12),
    "maxcut-bound": dict(trials=5, n_max=10),
    "rounding-accept": dict(n=16, trials=2000),
    "flow-decomp": dict(trials=15),
}


def run_checks(names=None, quick: bool = False, overrides: dict | None = None):
    """Run the selected checks; yields (name, ok, detail) in registry order.

    Each check gets the override keys it takes, so one set can drive the
    whole registry (the command line rejects a key a named check lacks).
    """
    import inspect

    selected = list(CHECKS) if not names else list(names)
    for name in selected:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}; known: {', '.join(CHECKS)}")
        fn = CHECKS[name]
        accepted = set(inspect.signature(fn).parameters)
        kwargs = dict(QUICK_OVERRIDES.get(name, {})) if quick else {}
        if overrides:
            kwargs.update({k: v for k, v in overrides.items() if k in accepted})
        ok, detail = fn(**kwargs)
        yield name, ok, detail
