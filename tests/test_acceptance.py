"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion runs at its stated scale and tolerance.  Criterion 6 is
implemented exactly as stated and is expected to fail: its rerouting bound
omits the factor two contributed by the mirror copies of the demand edges,
and the corpus here contains a concrete counterexample (see the
supplementary test right after it, which verifies the corrected bound).
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from bipratio import brute_beta
from bipratio.generators import complete, cycle, planted_bipartite
from bipratio.graphio import dump_graph
from bipratio.verify import (
    _certificate_runs,
    check_approx_quality,
    check_certificate_soundness,
    check_claim_equality,
    check_consistent_cuts,
    check_demand_degree,
    check_gram_bounds,
    check_maxcut_bipartite,
    check_maxcut_bound,
    check_regret,
    check_rounding_acceptance,
    check_well_linked_iff,
    check_witness_exact,
)


def _line(report, idx: int, name: str, ok: bool, detail: str) -> None:
    report(f"criterion {idx:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_claim_equality(accept_report):
    t0 = time.perf_counter()
    ok, detail = check_claim_equality(trials=500, vectors=20, n_max=8, seed=1)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _line(accept_report, 1, "claim-equality", ok, f"{detail} in {elapsed:.2f}s")
    assert ok, detail


def test_criterion_02_well_linked_iff(accept_report):
    t0 = time.perf_counter()
    ok, detail = check_well_linked_iff(n_small_max=5, trials=100,
                                       ks=(1, 2, 3, 4), seed=2)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _line(accept_report, 2, "thm-linked", ok, f"{detail} in {elapsed:.1f}s")
    assert ok, detail


def test_criterion_03_consistent_cuts(accept_report):
    ok, detail = check_consistent_cuts(trials=200, seed=3)
    _line(accept_report, 3, "lemma-cut", ok, detail)
    assert ok, detail


def test_criterion_04_witness_exactness(accept_report):
    # The game itself refuses to emit a witness that fails the exact check;
    # this samples runs end to end on top of that hard guarantee.
    ok, detail = check_witness_exact(trials=40, seed=4)
    _line(accept_report, 4, "witness-exact", ok,
          detail + " (plus a hard in-solver check on every run)")
    assert ok, detail


def test_criterion_05_regret(accept_report):
    ok, detail = check_regret(trials=25, seed=5)
    _line(accept_report, 5, "regret", ok, detail)
    assert ok, detail


def test_criterion_06_certificate_soundness_as_stated(accept_report):
    # Stated bound: brute beta(G) >= (1/k) * beta(H) / T, zero exceptions.
    # The bound misses the mirror-copy factor two and fails on this corpus;
    # the analysis lives in the decisions ledger, the corrected bound in the
    # next test.
    rng = np.random.default_rng([6, 15])
    failures = []
    checked = 0
    for G, res in _certificate_runs(rng, 100, 3, 8, 6):
        cert = res.certificate
        beta_G = brute_beta(G)[0]
        beta_H = brute_beta(cert.union, G.b)[0]
        checked += 1
        if beta_G < Fraction(1, cert.k) * beta_H / cert.rounds:
            failures.append((G.n, beta_G, beta_H, cert.k, cert.rounds))
        if float(beta_H) < cert.lambda_min / 2.0 - 1e-7:
            failures.append((G.n, "spectral", float(beta_H), cert.lambda_min))
    ok = not failures
    detail = (f"{checked} certificate runs, {len(failures)} violation(s) of the "
              f"stated (1/k)*beta(H)/T bound; first: {failures[0] if failures else '-'}")
    _line(accept_report, 6, "cert-sound (as stated)", ok, detail)
    assert ok, detail


def test_certificate_soundness_corrected_factor_two(accept_report):
    # Supplementary (not a numbered criterion): with the mirror-copy factor,
    # beta(G) >= beta(H) / (2kT), the same corpus passes with no exceptions.
    ok, detail = check_certificate_soundness(trials=100, n_max=8, seed=6)
    _line(accept_report, 6, "cert-sound (corrected 2kT)", ok, detail)
    assert ok, detail


def test_criterion_07_demand_degree_law(accept_report):
    # play_round additionally hard-asserts the degree law on every match.
    ok, detail = check_demand_degree(trials=30, seed=7)
    _line(accept_report, 7, "demand-degree", ok, detail)
    assert ok, detail


def test_criterion_08_gram_bounds(accept_report):
    t0 = time.perf_counter()
    ok, detail = check_gram_bounds(ns=(8, 16), trials=200, seed=8, audits=20)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _line(accept_report, 8, "gram-bounds", ok, f"{detail} in {elapsed:.1f}s")
    assert ok, detail


def test_criterion_09_approx_quality(accept_report):
    ok, detail = check_approx_quality(trials=200, n_lo=6, n_hi=12, seed=9)
    _line(accept_report, 9, "approx-quality", ok, detail)
    assert ok, detail


def test_criterion_10a_maxcut_bipartite(accept_report):
    ok, detail = check_maxcut_bipartite(trials=50, n_max=30, seed=10)
    _line(accept_report, 10, "maxcut bipartite value 1", ok, detail)
    assert ok, detail


def test_criterion_10b_maxcut_bound(accept_report):
    ok, detail = check_maxcut_bound(trials=40, n_max=16, seed=11)
    # Part (c), the per-level accounting identity, is hard-asserted inside
    # recursive_bipart on every run, including all runs above.
    _line(accept_report, 10, "maxcut uncut bound", ok,
          detail + "; per-level identity asserted on every run")
    assert ok, detail


def test_criterion_11_rounding_acceptance(accept_report):
    ok, detail = check_rounding_acceptance(n=64, trials=10_000, seed=12)
    _line(accept_report, 11, "rounding-accept", ok, detail)
    assert ok, detail


def _cli(args: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "bipratio", *args],
                          capture_output=True)
    return proc.returncode, proc.stdout


def test_criterion_12_cli_determinism(accept_report, tmp_path):
    k3 = tmp_path / "k3.txt"
    dump_graph(complete(3), str(k3))
    c4 = tmp_path / "c4.txt"
    dump_graph(cycle(4), str(c4))
    pb = tmp_path / "pb.txt"
    G, _ = planted_bipartite(12, 0.4, 0.1, seed=5)
    dump_graph(G, str(pb))
    matrix = [
        ["approx", "--graph", str(k3), "--seed", "7"],
        ["approx", "--graph", str(k3), "--seed", "7", "--json"],
        ["approx", "--graph", str(pb), "--seed", "3", "--json"],
        ["exact", "--graph", str(k3)],
        ["exact", "--graph", str(k3), "--what", "maxcut", "--json"],
        ["exact", "--graph", str(c4), "--what", "well-linked", "--k", "2"],
        ["maxcut", "--graph", str(pb), "--seed", "1"],
        ["maxcut", "--graph", str(k3), "--seed", "1", "--exact", "--json"],
        ["gen", "gnp", "10", "0.4", "3", "5"],
        ["gen", "planted-bipartite", "10", "0.4", "0.1", "5"],
        ["gen", "cycle", "6"],
        ["gen", "complete", "4"],
        ["verify", "--quick", "--check", "rounding-accept", "--seed", "2"],
        ["verify", "--quick", "--check", "claim-equality", "--seed", "2"],
    ]
    mismatches = []
    for args in matrix:
        code1, out1 = _cli(args)
        code2, out2 = _cli(args)
        if code1 != code2 or out1 != out2 or code1 != 0:
            mismatches.append(args[0:2])
    ok = not mismatches
    _line(accept_report, 12, "cli-determinism", ok,
          f"{len(matrix)} commands run twice, byte-identical stdout"
          + ("" if ok else f"; mismatches: {mismatches}"))
    assert ok, mismatches
