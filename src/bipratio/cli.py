"""Command-line surface.

Subcommands: ``approx`` (ratio sweep), ``exact`` (brute-force oracles),
``maxcut`` (recursive bipartitioning), ``gen`` (seeded generators), and
``verify`` (property-check registry).  With a fixed ``--seed`` every
randomized command writes byte-identical stdout; wall-clock timings are
therefore only filled in under ``--timings``.

Exit codes: 0 success, 1 stdout closed by its reader (as in ``| head``),
2 input error (including a path that cannot be opened, a seed that is not
a non-negative integer, or a vertex weight above 2**1000 in the spectral
layer), 3 solver failure (an internal error, an eigensolve that does not
converge, or a failed internal audit), 4 verification failure.
"""

from __future__ import annotations

import argparse
import decimal
import inspect
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
from .game import RESTARTS, GameParams, approx_bipartiteness
from .generators import complete, cycle, gnp, planted_bipartite
from .graph import WeightedGraph, tripartition
from .graphio import dump_graph, dumps_graph, load_graph
from .maxcut import recursive_bipart
from .oracle import brute_beta, brute_maxcut, brute_well_linked
from .spectral import DELTA
from .verify import CHECKS, SMALLEST_N, run_checks

EXIT_CLOSED_STDOUT = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

# Each ``verify`` flag (argparse dest) sets one check parameter.
VERIFY_FLAGS = {"seed": "seed", "trials": "trials", "n": "n_max", "graph": "graph",
                "k": "k"}

# Failures inside the solver, not in its input; AssertionError is what the
# internal audits (max-flow = min-cut, demand degree law, level accounting,
# witness re-checks) raise.
SOLVER_FAILURES = (GameFailed, NumericalFailure, DegreeOverflowError,
                   MalformedPathError, SaturatingFlowError, RoundFail,
                   AssertionError)


def _decimal(fr: Fraction) -> str:
    """``fr`` to 9 significant digits: the float's ``.9g`` where that float
    is 0 or normal, else the exact value rounded (a subnormal float holds
    fewer digits than that, and an overflow none)."""
    try:
        if abs(value := float(fr)) >= sys.float_info.min or not fr:
            return f"{value:.9g}"
    except OverflowError:
        pass
    with decimal.localcontext() as ctx:
        ctx.prec = 9
        return f"{(decimal.Decimal(fr.numerator) / fr.denominator).normalize():.9g}"


def fmt_ratio(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator} ({_decimal(fr)})"


def ratio_json(fr: Fraction | None) -> dict | None:
    return None if fr is None else {"num": fr.numerator, "den": fr.denominator,
                                    "decimal": _decimal(fr)}


def _sign_report(label: str, x) -> tuple[dict, list[str]]:
    """The ``x``, ``L`` and ``R`` JSON fields of sign vector x, and its two
    text lines: the signs after ``label``, then the 1-based L, R and Z."""
    L, R, Z = (_sets_1based(side) for side in tripartition(x))
    signs = "".join("+" if v > 0 else "-" if v < 0 else "0" for v in x)
    return ({"x": list(x), "L": L, "R": R},
            [f"{label} x = {signs}", f"L = {L}  R = {R}  Z = {Z}"])


def _checked_seed(value, origin: str) -> int:
    """``value`` as a seed; anything but a non-negative integer is an input
    error that names ``origin``."""
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"{origin} must be a non-negative integer, got {value}")
    return seed


def _seed_from(args) -> int:
    if args.seed is not None:
        return _checked_seed(args.seed, "--seed")
    return _checked_seed(os.environ.get("BIPRATIO_SEED") or 0, "BIPRATIO_SEED")


def _sets_1based(vertices) -> list[int]:
    return sorted(v + 1 for v in vertices)


def _emit(text: str) -> None:
    """Write a command's multi-line block to stdout in one call, in full.

    An unbuffered stdout (``python -u``, ``PYTHONUNBUFFERED``) hands a block
    straight to the file, which takes part of it and returns a short count
    when the reader goes away; its text layer drops the rest silently.
    Writing the encoded bytes until none are left makes the next write
    raise BrokenPipeError instead.  A text stream without a byte layer
    (``io.StringIO``) takes the block as it is.
    """
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if raw is None:
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[raw.write(data):]


def run_solver(args) -> int:
    """The path of ``approx``, ``exact`` and ``maxcut``: read the seed first,
    so a bad one is refused before anything else, load the graph, run
    ``args.solve`` on it under the timer, and write its report."""
    seed = _seed_from(args)
    G = load_graph(args.graph, args.weights)
    t0 = time.perf_counter()
    mode, params, result, lines = args.solve(args, G, seed)
    elapsed = (time.perf_counter() - t0) * 1000.0
    if args.json:
        report = {
            "graph": {"n": G.n, "m": G.m, "total_weight": G.total_weight},
            "mode": mode,
            "params": params,
            "result": result,
            "timings_ms": {"total": round(elapsed, 3)} if args.timings else {},
            "seed": seed,
            "version": __version__,
        }
        _emit(json.dumps(report, indent=2) + "\n")
    else:
        _emit("".join(line + "\n" for line in lines))
    return 0


def solve_approx(args, G: WeightedGraph, seed: int) -> tuple[str, dict, dict, list[str]]:
    params = GameParams(seed=seed, rounds=args.rounds, max_attempts=args.t_proj)
    res = approx_bipartiteness(G, params)
    fields, sign_lines = _sign_report("witness", res.x_best)
    rounds_total = sum(g.rounds for g in res.games)
    result = {
        **fields,
        "beta": ratio_json(res.beta),
        "r_cert": ratio_json(res.r_cert),
        "certificate": None,
        "games": [{"k": g.k, "outcome": g.outcome, "beta": ratio_json(g.beta),
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
            "beta_H": ratio_json(cert.beta_H),
            "ratio_lower_bound": f"{cert.ratio_lower_bound():.9g}",
        }
    lines = [
        *sign_lines,
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
    return "approx", _params_json(params), result, lines


def _params_json(params: GameParams) -> dict:
    return {"delta": DELTA, "rounds": params.rounds,
            "max_attempts": params.max_attempts, "restarts": RESTARTS}


def solve_exact(args, G: WeightedGraph, seed: int) -> tuple[str, dict, dict, list[str]]:
    if args.what == "beta":
        beta, x = brute_beta(G)
        fields, sign_lines = _sign_report("minimizer", x)
        result = {"beta": ratio_json(beta), **fields}
        lines = [f"beta = {fmt_ratio(beta)}", *sign_lines]
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
    return f"exact-{args.what}", {}, result, lines


def solve_maxcut(args, G: WeightedGraph, seed: int) -> tuple[str, dict, dict, list[str]]:
    params = GameParams(seed=seed)
    res = recursive_bipart(G, params)
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
    return "maxcut", _params_json(params), result, lines


def cmd_gen(args) -> int:
    meta = None
    if args.generator == "gnp":
        G = gnp(args.n, args.p, args.w_max, _checked_seed(args.gen_seed, "gen_seed"))
    elif args.generator == "planted-bipartite":
        G, meta = planted_bipartite(args.n, args.p_cross, args.p_noise,
                                    _checked_seed(args.gen_seed, "gen_seed"))
    elif args.generator == "cycle":
        G = cycle(args.n)
    else:
        G = complete(args.n)
    if args.out:
        dump_graph(G, args.out)
        print(f"wrote {args.out} (n={G.n}, m={G.m})")
        if meta is not None:
            sidecar = args.out + ".meta.json"
            with open(sidecar, "w", encoding="utf-8") as fh:
                json.dump(meta, fh, indent=2)
                fh.write("\n")
            print(f"wrote {sidecar}")
    else:
        _emit(dumps_graph(G))
    return 0


def cmd_verify(args) -> int:
    # With neither --seed nor BIPRATIO_SEED, each check keeps its own seed.
    if args.seed is not None or os.environ.get("BIPRATIO_SEED"):
        args.seed = _seed_from(args)
    names = [args.check] if args.check else list(CHECKS)
    given = {flag: param for flag, param in VERIFY_FLAGS.items()
             if getattr(args, flag) is not None}
    # The registry-wide run applies each flag to the checks that take it; a
    # named check must take every flag given.
    if args.check:
        takes = inspect.signature(CHECKS[args.check]).parameters
        for flag, param in given.items():
            if param not in takes:
                raise ValueError(f"check {args.check} takes no --{flag}")
    if args.k is not None and args.graph is None:
        raise ValueError("--k needs --graph")
    # A check over an empty corpus, or one it cannot draw, proves nothing.
    if args.trials is not None and args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.n is not None:
        low, name = max((SMALLEST_N.get(name, 0), name) for name in names)
        if args.n < low:
            raise ValueError(f"--n must be at least {low} for check {name}, got {args.n}")
    overrides = {param: getattr(args, flag) for flag, param in given.items()}
    if args.graph is not None:
        overrides["graph"] = load_graph(args.graph)
    failures = 0
    for name, ok, detail in run_checks(names, quick=args.quick,
                                       overrides=overrides):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failures += not ok
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return EXIT_VERIFY
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bipratio",
                                description="Bipartiteness-ratio toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, solve):
        sp.set_defaults(func=run_solver, solve=solve)
        sp.add_argument("--graph", required=True, help="edge-list file")
        sp.add_argument("--weights", help="optional vertex-weight file")
        sp.add_argument("--seed", type=int, default=None,
                        help="seed (fallback: BIPRATIO_SEED, then 0)")
        sp.add_argument("--json", action="store_true", help="JSON report on stdout")
        sp.add_argument("--timings", action="store_true",
                        help="fill timings_ms (breaks byte determinism)")

    sp = sub.add_parser("approx", help="ratio sweep (witness + certificate)")
    add_common(sp, solve_approx)
    sp.add_argument("-v", "--verbose", action="store_true",
                    help="one line per game of the sweep")
    sp.add_argument("--rounds", type=int, default=None, help="round cap per game")
    sp.add_argument("--t-proj", type=int, default=None,
                    help="Gaussian attempts per round")

    sp = sub.add_parser("exact", help="brute-force oracles")
    add_common(sp, solve_exact)
    sp.add_argument("--what", choices=["beta", "maxcut", "well-linked"],
                    default="beta")
    sp.add_argument("--k", type=int, default=1, help="for --what well-linked")

    sp = sub.add_parser("maxcut", help="recursive bipartitioning max cut")
    add_common(sp, solve_maxcut)
    sp.add_argument("--exact", action="store_true",
                    help="cross-check against the brute-force optimum (n <= 20)")

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
    sp.add_argument("--n", type=int, default=None,
                    help="graph size cap (n_max) of the checks that draw sized graphs")
    sp.add_argument("--trials", type=int, default=None,
                    help="corpus size of every check")
    sp.add_argument("--seed", type=int, default=None,
                    help="seed of every check (fallback: BIPRATIO_SEED, "
                         "then each check's own)")
    sp.add_argument("--graph", default=None,
                    help="extra edge-list file for the regret check")
    sp.add_argument("--k", type=int, default=None,
                    help="ratio guess 1/k for --graph (regret check)")
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader has gone (``| head``): send the rest of stdout, and the
        # flush at exit, to devnull, as the signal module docs advise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except (GraphFormatError, OSError, TooLargeError, ValueError) as exc:
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
