"""Per-layer spans recorded from outside the library.

The tracer replaces a public function by a timing wrapper at the binding its
caller looks up: ``bipratio.game`` imports ``max_flow`` into its own
namespace, so the flow player's solves are wrapped as ``bipratio.game.max_flow``
and the oracle's as ``bipratio.oracle.max_flow``.  Each call becomes a span
(id, parent id, label, start, end, exception name) kept in memory and written
out once the run ends.  A wrapped name that no longer exists, or that is never
called on a workload that should call it, stops the run with an error rather
than reading as zero.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

from bipratio.game import Certificate

SWEEPS = frozenset({"sweep-dense", "sweep-sparse"})
SOLVERS = SWEEPS | {"maxcut-small"}
MAXCUT = frozenset({"maxcut-small"})
ORACLE = frozenset({"oracle-exact"})


class TraceError(RuntimeError):
    """A traced name is missing, or silent on a workload that must call it."""


def _count_arcs(counts, args, result, exc):
    if exc is None:
        counts["flow.arcs"] += len(result.head)


def _count_paths(counts, args, result, exc):
    if exc is None:
        counts["flow.paths"] += len(result)


def _count_attempts(counts, args, result, exc):
    if exc is None:
        counts["spectral.round_attempts"] += result.attempts
        counts["spectral.rounds_accepted"] += 1
    else:
        counts["spectral.round_attempts"] += args[3]


def _count_game(counts, args, result, exc):
    if exc is None:
        kind = "game.cert_games" if isinstance(result, Certificate) else "game.witness_games"
        counts[kind] += 1
        counts["game.flow_solves"] += result.flow_solves


def _count_sign_vectors(counts, args, result, exc):
    counts["oracle.sign_vectors"] += 3 ** args[0].n - 1


# (module, attribute, label, workloads that must call it, counting hook)
TARGETS = [
    ("bipratio.game", "build_network", "flow.build_network", SOLVERS, _count_arcs),
    ("bipratio.game", "max_flow", "flow.max_flow", SOLVERS, None),
    ("bipratio.game", "decompose_flow", "flow.decompose_flow", SOLVERS, _count_paths),
    ("bipratio.game", "demand_graph", "flow.demand_graph", SOLVERS, None),
    ("bipratio.game", "consistent_min_cut", "flow.consistent_min_cut", SOLVERS, None),
    ("bipratio.flow.DemandMultigraph", "union", "flow.union", SOLVERS, None),
    ("bipratio.game", "evaluate_beta", "graph.evaluate_beta", SOLVERS, None),
    ("bipratio.game", "density_matrix", "spectral.density_matrix", SOLVERS, None),
    ("bipratio.game", "exact_gram_vectors", "spectral.exact_gram_vectors", SOLVERS, None),
    ("bipratio.game", "approx_gram_vectors", "spectral.approx_gram_vectors", frozenset(), None),
    ("bipratio.game", "demand_matrix", "spectral.demand_matrix", SOLVERS, None),
    ("bipratio.game", "gaussian_round", "spectral.gaussian_round", SOLVERS, _count_attempts),
    ("bipratio.game", "lambda_min", "spectral.lambda_min", SOLVERS, None),
    ("bipratio.game", "play_round", "game.play_round", SOLVERS, None),
    ("bipratio.game", "cut_matching_game", "game.cut_matching_game", SOLVERS, _count_game),
    ("bipratio.game", "approx_bipartiteness", "game.approx_bipartiteness", SWEEPS, None),
    ("bipratio.maxcut", "approx_bipartiteness", "game.approx_bipartiteness", MAXCUT, None),
    ("bipratio.maxcut", "induced_subgraph", "maxcut.induced_subgraph", MAXCUT, None),
    ("bipratio.maxcut", "recursive_bipart", "maxcut.recursive_bipart", MAXCUT, None),
    ("bipratio.oracle", "brute_beta", "oracle.brute_beta", ORACLE, _count_sign_vectors),
    ("bipratio.oracle", "brute_maxcut", "oracle.brute_maxcut", ORACLE, None),
    ("bipratio.oracle", "brute_well_linked", "oracle.brute_well_linked", ORACLE, None),
    ("bipratio.oracle", "build_network", "oracle.build_network", ORACLE, None),
    ("bipratio.oracle", "max_flow", "oracle.max_flow", ORACLE, None),
]

def _resolve(dotted: str):
    """A module, or a class inside one, from its dotted name."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, cls = dotted.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """Spans and counters of one traced pass; ``install`` wraps every target."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.target_calls = [0] * len(TARGETS)

    def install(self) -> None:
        for index, (owner_name, attr, label, _, hook) in enumerate(TARGETS):
            owner = _resolve(owner_name)
            if not hasattr(owner, attr):
                raise TraceError(f"{owner_name}.{attr} no longer exists; the "
                                 f"benchmark cannot trace {label}")
            original = getattr(owner, attr)
            wrapper = self._wrap(original, index, label, hook)
            if isinstance(inspect.getattr_static(owner, attr), staticmethod):
                wrapper = staticmethod(wrapper)
            setattr(owner, attr, wrapper)

    def _wrap(self, original, index, label, hook):
        spans, stack, counts = self.spans, self.stack, self.counts
        target_calls = self.target_calls

        def traced(*args, **kwargs):
            target_calls[index] += 1
            span = [len(spans), stack[-1] if stack else None, label, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            result = exc = None
            span[3] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as err:
                exc = err
                span[5] = type(err).__name__
                raise
            finally:
                span[4] = perf_counter()
                stack.pop()
                if hook is not None:
                    hook(counts, args, result, exc)
            return result

        return traced

    def require_calls(self, workload: str) -> None:
        for calls, (owner_name, attr, label, expected, _) in zip(self.target_calls, TARGETS):
            if workload in expected and calls == 0:
                raise TraceError(f"{owner_name}.{attr} ({label}) was never called "
                                 f"on {workload}, which must call it")

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Busy time and calls of every label, plus the derived layer figures."""
        busy, calls, child = defaultdict(float), Counter(), defaultdict(float)
        labels = {}
        for sid, parent, label, t0, t1, _ in self.spans:
            labels[sid] = label
            busy[label] += t1 - t0
            calls[label] += 1
            if parent is not None:
                child[parent] += t1 - t0

        def self_s(label):
            return sum(t1 - t0 - child[sid] for sid, _, lab, t0, t1, _ in self.spans
                       if lab == label)

        def layer_busy(prefix):
            # Top-level spans of the layer only, so nothing is counted twice.
            return sum(t1 - t0 for _, parent, lab, t0, t1, _ in self.spans
                       if lab.startswith(prefix)
                       and not (parent is not None and labels[parent].startswith(prefix)))

        c = self.counts
        flow_busy, spectral_busy = layer_busy("flow."), layer_busy("spectral.")
        attempts = c["spectral.round_attempts"]
        out = {}
        for _, _, label, _, _ in TARGETS:
            out[f"{label}.busy_s"] = busy[label]
            out[f"{label}.calls"] = calls[label]
        out.update({
            "flow.paths": c["flow.paths"],
            "flow.arcs": c["flow.arcs"],
            "flow.busy_s": flow_busy,
            "flow.share": flow_busy / wall_s,
            "spectral.round_attempts": attempts,
            "spectral.round_accept_ratio": (c["spectral.rounds_accepted"] / attempts
                                            if attempts else 0.0),
            "spectral.busy_s": spectral_busy,
            "spectral.share": spectral_busy / wall_s,
            "game.games": calls["game.cut_matching_game"],
            "game.witness_games": c["game.witness_games"],
            "game.cert_games": c["game.cert_games"],
            "game.rounds": calls["game.play_round"] - self._errors("game.play_round"),
            "game.flow_solves": c["game.flow_solves"],
            "game.restarts": self._errors("game.play_round", "RoundFail"),
            "game.play_round.self_s": self_s("game.play_round"),
            "maxcut.levels": sum(1 for _, parent, lab, *_ in self.spans
                                 if lab == "game.approx_bipartiteness" and parent is not None
                                 and labels[parent] == "maxcut.recursive_bipart"),
            "maxcut.recursive_bipart.self_s": self_s("maxcut.recursive_bipart"),
            "oracle.sign_vectors_per_s": (c["oracle.sign_vectors"] / busy["oracle.brute_beta"]
                                          if busy["oracle.brute_beta"] else 0.0),
            "trace.wall_s": wall_s,
            "trace_overhead": wall_s / untraced_wall_s,
        })
        return out

    def _errors(self, label: str, error: str | None = None) -> int:
        return sum(1 for span in self.spans
                   if span[2] == label and span[5] is not None and error in (None, span[5]))

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as fh:
            for sid, parent, label, t0, t1, err in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": label,
                                     "start": t0, "end": t1, "error": err}) + "\n")
