"""Benchmark of the bipratio solver on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.  One
process runs one solve at a time (a closed loop with a single client), with
BLAS pinned to one thread.  The timed phase makes whole passes over the seed's
items, in order, while another pass fits into ``--seconds``; it always makes
one.  Outputs are checked afterwards, outside the timed phase.  The last line
of stdout is the result object; the line before it carries the environment,
the exact-output digest and every failure message.  ``--trace 1`` runs one
untraced pass and one traced pass and reports per-layer figures instead; its
spans go to ``perfbench/out/``.  An end-to-end run also tries the workload's
known-defect probes once, untimed, and records in the line before the result
whether each defect still shows; the probes do not count in ``attempted``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402  (BLAS threads are fixed before numpy loads)
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15


def _import_library():
    """Import bipratio and the workloads from this checkout, or exit with an error."""
    if not (SRC / "bipratio" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bipratio sources under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import bipratio
    if not Path(bipratio.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported bipratio from {bipratio.__file__}, not {SRC}")
    import workloads
    return workloads


def _setup_probe(workload: str, seed: int) -> None:
    start = time.perf_counter()
    workloads = _import_library()
    workloads.WORKLOADS[workload]().items(seed)
    print(time.perf_counter() - start)


def _setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of importing and making the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"perfbench: the set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _environment(seed: int) -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
        "seed": seed,
    }


class Solve:
    """One timed call: which item, how long, and its record or its error."""

    __slots__ = ("index", "seconds", "record", "error")

    def __init__(self, index, seconds, record, error):
        self.index, self.seconds, self.record, self.error = index, seconds, record, error


def _one_pass(wl, items) -> list[Solve]:
    solves = []
    for index, item in enumerate(items):
        start = time.perf_counter()
        try:
            out = wl.solve(item)
        except Exception as exc:  # a failed solve is counted, and the run goes on
            solves.append(Solve(index, time.perf_counter() - start, None,
                                f"{type(exc).__name__}: {exc}"))
            continue
        seconds = time.perf_counter() - start
        solves.append(Solve(index, seconds, wl.record(item, out), None))
    return solves


def _timed(wl, items, seconds: float) -> tuple[float, list[Solve]]:
    """Whole passes over the items while another fits into ``seconds``.

    Always makes one pass.  Returns the median pass time (the sum of its
    solve times, leaving out the benchmark's own bookkeeping) and every solve.
    """
    start = time.perf_counter()
    passes, solves = [], []
    while not passes or time.perf_counter() - start + statistics.median(passes) <= seconds:
        batch = _one_pass(wl, items)
        passes.append(sum(s.seconds for s in batch))
        solves += batch
    return statistics.median(passes), solves


def _verdicts(wl, items, solves: list[Solve]):
    """Check each item's first answer; a repeat must reproduce it exactly.

    Returns the failure messages, the number of failed solves, whether every
    returned answer was right, the digest of the first answers, and the
    (item, record) pairs that passed their check.
    """
    first, verdict, ok = {}, {}, []
    messages, failed, correct = [], 0, True
    digest = hashlib.sha256()
    for s in solves:
        item = items[s.index]
        record = s.record if s.error is None else (s.error,)
        if s.index in first:
            if record != first[s.index]:
                messages.append(f"item {s.index}: a repeat gave a different answer")
                correct = False
                failed += 1
            else:
                failed += verdict[s.index] is not None
            continue
        first[s.index] = record
        digest.update(repr((s.index, record)).encode())
        problem = s.error if s.error is not None else wl.check(item, record)
        verdict[s.index] = problem
        if problem is None:
            ok.append((item, record))
            continue
        correct &= s.error is not None
        failed += 1
        messages.append(f"item {s.index} ({item.op}, n={item.graph.n}): {problem}")
    return messages, failed, correct, digest.hexdigest(), ok


def _known_defects(workloads, workload: str) -> list[dict]:
    """Try the workload's known-defect probes; they are not timed or counted."""
    found = []
    for probe in workloads.KNOWN_DEFECTS.get(workload, ()):
        message = probe()
        found.append({"probe": probe.__name__, "shows": message is not None,
                      "message": message or " ".join(probe.__doc__.split())})
    return found


def _result(correct, attempted, failed, values, declared) -> str:
    """The result line: every metric ``declared`` in BENCHMARK.json, in order."""
    return json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    workloads = _import_library()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload]()

    tracer = None
    if args.trace:
        import tracing
        items = wl.items(args.seed)
        untraced_wall, _ = _timed(wl, items, 0.0)
        tracer = tracing.Tracer()
        tracer.install()
        wall, solves = _timed(wl, items, 0.0)
        tracer.require_calls(args.workload)
        metrics = tracer.metrics(wall, untraced_wall)
    else:
        setup_s = _setup_seconds(args.workload, args.seed)
        items = wl.items(args.seed)
        wall, solves = _timed(wl, items, args.seconds)
    messages, failed, correct, digest, ok = _verdicts(wl, items, solves)
    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall,
            "solve_s_p50": statistics.median(s.seconds for s in solves),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **wl.quality(ok),
        }

    info = {"workload": args.workload, "trace": args.trace, "items": len(items),
            "solves": len(solves), "digest": digest, "env": _environment(args.seed),
            "failures": messages,
            "known_defects": [] if args.trace else _known_defects(workloads, args.workload)}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({**info, "metrics": metrics}, indent=1))
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl.gz"))
    for message in messages:
        print(f"perfbench: {args.workload}: {message}", file=sys.stderr)
    for defect in info["known_defects"]:
        state = "shows" if defect["shows"] else "no longer shows"
        print(f"perfbench: {args.workload}: known defect {defect['probe']} {state}: "
              f"{defect['message']}", file=sys.stderr)
    print(json.dumps(info))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(_result(correct, len(solves), failed, metrics, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
