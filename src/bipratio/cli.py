"""Command-line surface.

Subcommands: ``approx`` (ratio sweep), ``exact`` (brute-force oracles),
``maxcut`` (recursive bipartitioning), ``gen`` (seeded generators), and
``verify`` (property-check registry).  With a fixed ``--seed`` every
randomized command writes byte-identical stdout; wall-clock timings are
therefore only filled in under ``--timings``.

Exit codes: 0 success, 2 input error, 3 solver failure (an internal error
or a failed internal audit), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import (
    BipratioError,
    DegreeOverflowError,
    GameFailed,
    GraphFormatError,
    MalformedPathError,
    NumericalFailure,
    RoundFail,
    SaturatingFlowError,
    TooLargeError,
)
from .game import GameParams, approx_bipartiteness
from .generators import complete, cycle, gnp, planted_bipartite
from .graph import WeightedGraph, tripartition
from .graphio import dumps_graph, load_graph
from .maxcut import recursive_bipart
from .oracle import brute_beta, brute_maxcut, brute_well_linked
from .verify import CHECKS, run_checks

EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

# Failures inside the solver, not in its input; AssertionError is what the
# internal audits (max-flow = min-cut, demand degree law, level accounting,
# witness re-checks) raise.
SOLVER_FAILURES = (GameFailed, NumericalFailure, DegreeOverflowError,
                   MalformedPathError, SaturatingFlowError, RoundFail,
                   AssertionError)


def fmt_ratio(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator} ({float(fr):.9g})"


def ratio_json(fr: Fraction) -> dict:
    return {"num": fr.numerator, "den": fr.denominator,
            "decimal": f"{float(fr):.9g}"}


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("BIPRATIO_SEED")
    return int(env) if env else 0


def _load(args) -> WeightedGraph:
    return load_graph(args.graph, getattr(args, "weights", None))


def _sets_1based(vertices) -> list[int]:
    return sorted(v + 1 for v in vertices)


def _report(args, graph: WeightedGraph, mode: str, params: dict, result: dict,
            timings: dict, seed: int, text_lines: list[str]) -> None:
    if args.json:
        report = {
            "graph": {"n": graph.n, "m": graph.m,
                      "total_weight": graph.total_weight},
            "mode": mode,
            "params": params,
            "result": result,
            "timings_ms": timings,
            "seed": seed,
            "version": __version__,
        }
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_approx(args) -> int:
    seed = _seed_from(args)
    G = _load(args)
    params = GameParams(seed=seed, rounds=args.rounds, max_attempts=args.t_proj,
                        delta=args.delta)
    t0 = time.perf_counter()
    res = approx_bipartiteness(G, params)
    elapsed = (time.perf_counter() - t0) * 1000.0
    L, R, Z = tripartition(res.x_best)
    rounds_total = sum(g.rounds for g in res.games)
    result = {
        "x": list(res.x_best),
        "L": _sets_1based(L),
        "R": _sets_1based(R),
        "beta": ratio_json(res.beta),
        "r_cert": ratio_json(res.r_cert) if res.r_cert is not None else None,
        "certificate": None,
        "games": [{"k": g.k, "outcome": g.outcome,
                   "beta": ratio_json(g.beta) if g.beta is not None else None,
                   "rounds": g.rounds, "flow_solves": g.flow_solves}
                  for g in res.games],
        "rounds_total": rounds_total,
        "flow_solves": res.flow_solves,
    }
    if res.certificate is not None:
        cert = res.certificate
        result["certificate"] = {
            "k": cert.k,
            "rounds": cert.rounds,
            "lambda_min": f"{cert.lambda_min:.9g}",
            "beta_H": ratio_json(cert.beta_H) if cert.beta_H is not None else None,
            "ratio_lower_bound": f"{cert.ratio_lower_bound():.9g}",
        }
    lines = [
        f"witness x = {''.join('+' if v > 0 else '-' if v < 0 else '0' for v in res.x_best)}",
        f"L = {_sets_1based(L)}  R = {_sets_1based(R)}  Z = {_sets_1based(Z)}",
        f"beta = {fmt_ratio(res.beta)}",
        f"r_cert = {fmt_ratio(res.r_cert) if res.r_cert is not None else 'none'}",
        f"rounds used = {rounds_total}",
        f"flow solves = {res.flow_solves}",
    ]
    if args.verbose:
        for g in res.games:
            beta_txt = fmt_ratio(g.beta) if g.beta is not None else "-"
            lines.append(f"  k={g.k}: {g.outcome} after {g.rounds} rounds, "
                         f"beta {beta_txt}")
    timings = {"total": round(elapsed, 3)} if args.timings else {}
    _report(args, G, "approx", _params_json(params), result, timings, seed, lines)
    return 0


def _params_json(params: GameParams) -> dict:
    return {"delta": params.delta, "rounds": params.rounds,
            "max_attempts": params.max_attempts, "restarts": params.restarts}


def cmd_exact(args) -> int:
    seed = _seed_from(args)
    G = _load(args)
    t0 = time.perf_counter()
    if args.what == "beta":
        beta, x = brute_beta(G)
        L, R, Z = tripartition(x)
        result = {"beta": ratio_json(beta), "x": list(x),
                  "L": _sets_1based(L), "R": _sets_1based(R)}
        lines = [f"beta = {fmt_ratio(beta)}",
                 f"minimizer x = {''.join('+' if v > 0 else '-' if v < 0 else '0' for v in x)}",
                 f"L = {_sets_1based(L)}  R = {_sets_1based(R)}  Z = {_sets_1based(Z)}"]
    elif args.what == "maxcut":
        value, S = brute_maxcut(G)
        result = {"value": ratio_json(value), "S": _sets_1based(S)}
        lines = [f"max cut value = {fmt_ratio(value)}",
                 f"S = {_sets_1based(S)}"]
    else:
        linked, pair = brute_well_linked(G, k=args.k)
        result = {"k": args.k, "linked": linked,
                  "violating": None if pair is None else
                  {"L": _sets_1based(pair[0]), "R": _sets_1based(pair[1])}}
        lines = [f"well-linked at r = 1/{args.k}: {'yes' if linked else 'no'}"]
        if pair is not None:
            lines.append(f"violating pair L = {_sets_1based(pair[0])} "
                         f"R = {_sets_1based(pair[1])}")
    elapsed = (time.perf_counter() - t0) * 1000.0
    timings = {"total": round(elapsed, 3)} if args.timings else {}
    _report(args, G, f"exact-{args.what}", {}, result, timings, seed, lines)
    return 0


def cmd_maxcut(args) -> int:
    seed = _seed_from(args)
    G = _load(args)
    params = GameParams(seed=seed, delta=args.delta)
    t0 = time.perf_counter()
    res = recursive_bipart(G, params)
    elapsed = (time.perf_counter() - t0) * 1000.0
    result = {
        "value": ratio_json(res.value),
        "S": _sets_1based(res.S),
        "levels": [{"L": _sets_1based(t.L), "R": _sets_1based(t.R),
                    "z_size": len(t.Z), "beta": ratio_json(t.beta)}
                   for t in res.trace],
        "exact": None,
    }
    lines = [f"cut value = {fmt_ratio(res.value)}",
             f"S = {_sets_1based(res.S)}"]
    for depth, t in enumerate(res.trace):
        lines.append(f"  level {depth}: |L|={len(t.L)} |R|={len(t.R)} "
                     f"|Z|={len(t.Z)} beta={fmt_ratio(t.beta)}")
    if args.exact:
        opt, _ = brute_maxcut(G)
        result["exact"] = ratio_json(opt)
        lines.append(f"brute-force optimum = {fmt_ratio(opt)}")
        if res.value > opt:
            raise AssertionError("returned cut beats the brute-force optimum")
    timings = {"total": round(elapsed, 3)} if args.timings else {}
    _report(args, G, "maxcut", _params_json(params), result, timings, seed, lines)
    return 0


def cmd_gen(args) -> int:
    meta = None
    if args.generator == "gnp":
        G = gnp(args.n, args.p, args.w_max, args.gen_seed)
    elif args.generator == "planted-bipartite":
        G, meta = planted_bipartite(args.n, args.p_cross, args.p_noise,
                                    args.gen_seed)
    elif args.generator == "cycle":
        G = cycle(args.n)
    else:
        G = complete(args.n)
    text = dumps_graph(G)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} (n={G.n}, m={G.m})")
        if meta is not None:
            sidecar = args.out + ".meta.json"
            with open(sidecar, "w", encoding="utf-8") as fh:
                json.dump(meta, fh, indent=2)
                fh.write("\n")
            print(f"wrote {sidecar}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    names = [args.check] if args.check else None
    overrides = {"seed": args.seed, "n_max": args.n, "runs": args.trials,
                 "graphs": args.trials, "count": args.trials,
                 "random_instances": args.trials, "k": args.k,
                 "graph": load_graph(args.graph) if args.graph else None}
    failures = 0
    for name, ok, detail in run_checks(names, quick=args.quick,
                                       overrides=overrides):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += not ok
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VERIFY
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bipratio",
                                description="Bipartiteness-ratio toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, with_solver=False):
        sp.add_argument("--graph", required=True, help="edge-list file")
        sp.add_argument("--weights", help="optional vertex-weight file")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed (fallback: BIPRATIO_SEED, then 0)")
        sp.add_argument("--json", action="store_true", help="JSON report on stdout")
        sp.add_argument("--timings", action="store_true",
                        help="fill timings_ms (breaks byte determinism)")
        sp.add_argument("-v", "--verbose", action="store_true")
        if with_solver:
            sp.add_argument("--delta", type=float, default=0.125,
                            help="multiplicative-weights step size")

    sp = sub.add_parser("approx", help="ratio sweep (witness + certificate)")
    add_common(sp, with_solver=True)
    sp.add_argument("--rounds", type=int, default=None, help="round cap per game")
    sp.add_argument("--t-proj", type=int, default=None,
                    help="Gaussian attempts per round")
    sp.set_defaults(func=cmd_approx)

    sp = sub.add_parser("exact", help="brute-force oracles")
    add_common(sp)
    sp.add_argument("--what", choices=["beta", "maxcut", "well-linked"],
                    default="beta")
    sp.add_argument("--k", type=int, default=1, help="for --what well-linked")
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("maxcut", help="recursive bipartitioning max cut")
    add_common(sp, with_solver=True)
    sp.add_argument("--exact", action="store_true",
                    help="cross-check against the brute-force optimum (n <= 20)")
    sp.set_defaults(func=cmd_maxcut)

    sp = sub.add_parser("gen", help="seeded graph generators")
    sp.add_argument("--out", help="output file (default: stdout)")
    gsub = sp.add_subparsers(dest="generator", required=True)
    g = gsub.add_parser("gnp")
    g.add_argument("n", type=int)
    g.add_argument("p", type=float)
    g.add_argument("w_max", type=int)
    g.add_argument("gen_seed", type=int)
    g = gsub.add_parser("planted-bipartite")
    g.add_argument("n", type=int)
    g.add_argument("p_cross", type=float)
    g.add_argument("p_noise", type=float)
    g.add_argument("gen_seed", type=int)
    g = gsub.add_parser("cycle")
    g.add_argument("n", type=int)
    g = gsub.add_parser("complete")
    g.add_argument("n", type=int)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("verify", help="run property checks")
    sp.add_argument("--quick", action="store_true", help="small corpora")
    sp.add_argument("--check", choices=sorted(CHECKS), help="run one check")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--graph", default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, FileNotFoundError, TooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SOLVER_FAILURES as exc:
        message = " ".join(str(exc).split())
        print(f"solver failure ({type(exc).__name__}): {message}", file=sys.stderr)
        return EXIT_SOLVER
    except BipratioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
