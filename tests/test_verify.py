"""The check registry's contract, the quick run's pinned output, the
gram-bounds audit count and the maxcut-bound draw loop."""

from __future__ import annotations

import inspect
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from bipratio.cli import main
from bipratio.verify import CHECKS, QUICK_OVERRIDES, SMALLEST_N

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _params(name: str) -> set[str]:
    return set(inspect.signature(CHECKS[name]).parameters)


def test_registry_contract():
    for name in CHECKS:
        assert {"trials", "seed"} <= _params(name), name
    for name, overrides in QUICK_OVERRIDES.items():
        assert set(overrides) <= _params(name), name
    # --n reaches exactly the checks with a smallest drawable size.
    assert set(SMALLEST_N) == {name for name in CHECKS if "n_max" in _params(name)}


QUICK_DEFAULT = """\
[PASS] claim-equality: 200 (graph, vector) pairs agreed exactly
[PASS] thm-linked: 144 (graph, k) equivalences held
[PASS] lemma-cut: 25 non-saturating networks reduced at equal value
[PASS] witness-exact: 11 witnesses all exact
[PASS] regret: 4 certificate runs satisfied the regret bound
[PASS] cert-sound: 8 certificates sound (rerouting and spectral bounds)
[PASS] demand-degree: 75 matched rounds obey the degree law and norm cap
[PASS] gram-bounds: sketch bounds held on 25/25 seeds at n=8; 5/5 audits ran and passed
[PASS] approx-quality: 15/15 sweeps within the quality target
[PASS] maxcut-bipartite: 5 bipartite graphs cut exactly in full
[PASS] maxcut-bound: 5/5 noisy runs met the uncut bound
[PASS] rounding-accept: rejection rate 0.0030 <= 0.9694
[PASS] flow-decomp: 15 saturating decompositions respected all invariants
"""

QUICK_SEED_2 = """\
[PASS] claim-equality: 200 (graph, vector) pairs agreed exactly
[PASS] thm-linked: 144 (graph, k) equivalences held
[PASS] lemma-cut: 25 non-saturating networks reduced at equal value
[PASS] witness-exact: 9 witnesses all exact
[PASS] regret: 4 certificate runs satisfied the regret bound
[PASS] cert-sound: 8 certificates sound (rerouting and spectral bounds)
[PASS] demand-degree: 64 matched rounds obey the degree law and norm cap
[PASS] gram-bounds: sketch bounds held on 25/25 seeds at n=8; 5/5 audits ran and passed
[PASS] approx-quality: 15/15 sweeps within the quality target
[PASS] maxcut-bipartite: 5 bipartite graphs cut exactly in full
[PASS] maxcut-bound: 5/5 noisy runs met the uncut bound
[PASS] rounding-accept: rejection rate 0.0035 <= 0.9694
[PASS] flow-decomp: 15 saturating decompositions respected all invariants
"""


@pytest.mark.parametrize("seed_args,expected", [([], QUICK_DEFAULT),
                                                (["--seed", "2"], QUICK_SEED_2)],
                         ids=["default-seed", "seed-2"])
def test_quick_run_is_pinned(seed_args, expected, capsys):
    assert main(["verify", "--quick", *seed_args]) == 0
    assert capsys.readouterr().out == expected


def test_gram_bounds_fail_when_no_audit_runs(monkeypatch):
    # A zero sketch has trace 0, outside [0.75, 1.25] tr exp(A), so every
    # audit is skipped; a run that audited nothing must not pass.
    import bipratio.verify as verify

    monkeypatch.setattr(verify, "jl_sign_matrix", lambda d, n, rng: np.zeros((d, n)))
    ok, detail = verify.check_gram_bounds(ns=(8,), trials=5, seed=8, audits=3)
    assert not ok
    assert detail.startswith("no audit ran")


def test_flow_decomposition_rejects_congestion_above_capacity(monkeypatch):
    # Networks built at four times the ratio parameter the check reads let
    # a copy carry more than w * k; the load counted from the walks shows it.
    import bipratio.verify as verify

    real_build = verify.build_network
    monkeypatch.setattr(verify, "build_network",
                        lambda aux, L, R, k: real_build(aux, L, R, 4 * k))
    ok, detail = verify.check_flow_decomposition(trials=15)
    assert not ok
    assert detail.startswith("congestion above w*k on edge")


def test_certificate_soundness_searches_each_ratio_once(monkeypatch):
    # beta(G) once per run in the check and once per sweep, which proves its
    # last game without playing it; beta(H) once per certificate, in the
    # game on its first read, which the check reuses instead of searching.
    import bipratio.game as game
    import bipratio.verify as verify
    from bipratio.flow import DemandMultigraph

    checked, in_game, sweeps = [], [], []
    real_brute, real_sweep = verify.brute_beta, verify.approx_bipartiteness

    def spy(calls):
        return lambda G, b=None: calls.append(G) or real_brute(G, b)

    def sweep(G, params):
        sweeps.append(G)
        return real_sweep(G, params)

    monkeypatch.setattr(verify, "brute_beta", spy(checked))
    monkeypatch.setattr(game, "brute_beta", spy(in_game))
    monkeypatch.setattr(verify, "approx_bipartiteness", sweep)
    ok, detail = verify.check_certificate_soundness(trials=10)
    assert ok, detail
    assert len(checked) == 10 and not any(isinstance(G, DemandMultigraph) for G in checked)
    unions = [G for G in in_game if isinstance(G, DemandMultigraph)]
    assert len(unions) == 10
    assert [id(G) for G in in_game if not isinstance(G, DemandMultigraph)] \
        == [id(G) for G in sweeps]


def test_rounding_acceptance_runs_the_library_rounding(monkeypatch):
    # Criterion 11 counts the rejections of gaussian_round itself, so a
    # rounding that never accepts reads as a rejection rate of one.
    import bipratio.verify as verify
    from bipratio.errors import RoundFail

    def never(V, b, rng, max_attempts):
        raise RoundFail("rejects every sample")

    monkeypatch.setattr(verify, "gaussian_round", never)
    assert verify.check_rounding_acceptance(n=4, trials=50) == (
        False, "rejection rate 1.0000 <= 0.9694")


def test_maxcut_bound_moves_past_bipartite_draws():
    # At n = 6 and seed 2 every early draw is bipartite (eta = 0); a skipped
    # draw must move the generator seed, or the check loops forever.  The
    # check runs in a fresh interpreter so a regression times out here.
    proc = subprocess.run(
        [sys.executable, "-m", "bipratio", "verify", "--quick", "--check", "maxcut-bound",
         "--n", "6", "--trials", "1", "--seed", "2"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[PASS] maxcut-bound: 1/1 noisy runs met the uncut bound\n"
