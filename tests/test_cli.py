import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipratio import cli
from bipratio.cli import main
from bipratio.errors import (
    DegreeOverflowError,
    GameFailed,
    MalformedPathError,
    NumericalFailure,
    RoundFail,
    SaturatingFlowError,
)
from bipratio.generators import complete, cycle, planted_bipartite
from bipratio.graphio import dump_graph
from bipratio.verify import SMALLEST_N


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.txt"
    dump_graph(complete(3), str(path))
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    dump_graph(cycle(4), str(path))
    return str(path)


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "bipratio", *args],
                          capture_output=True, text=True)
    return proc


# Full stdout of seeded runs, line by line, keyed by the arguments; the
# files they name are written by ``pinned_files``.
PINNED_STDOUT = json.loads(Path(__file__).with_name("cli_stdout.json").read_text("utf-8"))


@pytest.fixture(scope="module")
def pinned_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("pinned")
    dump_graph(complete(3), str(folder / "k3.txt"))
    dump_graph(cycle(4), str(folder / "c4.txt"))
    dump_graph(planted_bipartite(12, 0.4, 0.1, seed=5)[0], str(folder / "pb12.txt"))
    (folder / "b3.txt").write_text("1\n2\n3\n")
    return folder


@pytest.mark.parametrize("args", sorted(PINNED_STDOUT))
def test_stdout_is_pinned(args, pinned_files, capsys, monkeypatch):
    monkeypatch.chdir(pinned_files)
    assert main(args.split()) == 0
    assert capsys.readouterr().out.splitlines(keepends=True) == [
        line + "\n" for line in PINNED_STDOUT[args]]


def test_approx_k3_matches_oracle(k3_file, capsys):
    assert main(["approx", "--graph", k3_file, "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "beta = 1/3" in out
    assert "r_cert" in out


def test_exact_k3(k3_file, capsys):
    assert main(["exact", "--graph", k3_file]) == 0
    out = capsys.readouterr().out
    assert "beta = 1/3 (0.333333333)" in out
    assert "minimizer" in out


def test_exact_well_linked(k3_file, capsys):
    assert main(["exact", "--graph", k3_file, "--what", "well-linked",
                 "--k", "3"]) == 0
    assert "yes" in capsys.readouterr().out
    assert main(["exact", "--graph", k3_file, "--what", "well-linked",
                 "--k", "2"]) == 0
    assert "no" in capsys.readouterr().out


def test_approx_c4_zero(c4_file, capsys):
    assert main(["approx", "--graph", c4_file]) == 0
    assert "beta = 0/" in capsys.readouterr().out


def test_maxcut_c4(c4_file, capsys):
    assert main(["maxcut", "--graph", c4_file]) == 0
    assert "cut value = 1/1" in capsys.readouterr().out


def test_maxcut_exact_crosscheck(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    dump_graph(complete(4), str(path))
    assert main(["maxcut", "--graph", str(path), "--exact", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "cut value = 2/3" in out
    assert "brute-force optimum = 2/3" in out


def test_json_schema_keys(k3_file, capsys):
    assert main(["approx", "--graph", k3_file, "--seed", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["graph", "mode", "params", "result", "timings_ms",
                            "seed", "version"]
    assert report["graph"] == {"n": 3, "m": 3, "total_weight": 3}
    assert list(report["params"]) == ["delta", "rounds", "max_attempts", "restarts"]
    assert report["timings_ms"] == {}
    assert report["seed"] == 1
    assert report["result"]["beta"]["num"] == 1


@pytest.mark.parametrize("command,flag,value", [
    ("approx", "--gram", "exact"), ("approx", "--eps", "0.25"),
    ("maxcut", "--gram", "exact"), ("maxcut", "--eps", "0.25"),
    ("approx", "--delta", "0.125"), ("maxcut", "--delta", "0.125")])
def test_no_gram_route_flags(command, flag, value, k3_file, capsys):
    # The cut player has a single Gram route and a fixed step size, so there
    # is nothing to choose.
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", k3_file, flag, value])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["exact", "maxcut"])
def test_verbose_only_on_approx(command, k3_file, capsys):
    # Only the sweep has per-game lines to print; elsewhere -v is unknown.
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", k3_file, "-v"])
    assert exc.value.code == 2
    assert main(["approx", "--graph", k3_file, "--seed", "7", "-v"]) == 0
    assert "k=1:" in capsys.readouterr().out


def test_gen_cycle_stdout(capsys):
    assert main(["gen", "cycle", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "4 4"


def test_gen_complete_k3_file(tmp_path, capsys):
    out_path = tmp_path / "k3.txt"
    assert main(["gen", "--out", str(out_path), "complete", "3"]) == 0
    assert out_path.read_text().splitlines()[0] == "3 3"


def test_gen_planted_sidecar(tmp_path, capsys):
    out_path = tmp_path / "pb.txt"
    assert main(["gen", "--out", str(out_path), "planted-bipartite", "30",
                 "0.3", "0.05", "9"]) == 0
    meta = json.loads((tmp_path / "pb.txt.meta.json").read_text())
    assert meta["n"] == 30
    assert "noise_fraction" in meta


def test_bad_graph_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n1 1 1\n")
    assert main(["exact", "--graph", str(path)]) == 2


def test_solver_failure_exit_code(k3_file, capsys, monkeypatch):
    # Rounding that never accepts a sample exhausts the restart budget.
    from bipratio import game

    def never_accepts(*args):
        raise RoundFail("no acceptable sample")

    monkeypatch.setattr(game, "gaussian_round", never_accepts)
    assert main(["approx", "--graph", k3_file]) == 3
    assert capsys.readouterr().err.startswith("solver failure (GameFailed): ")


@pytest.mark.parametrize("t_proj", ["0", "-2"])
def test_t_proj_below_one_exit_code(t_proj, k3_file, capsys):
    assert main(["approx", "--graph", k3_file, "--t-proj", t_proj]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: a round needs at least one Gaussian attempt, "
        f"got max_attempts={t_proj}"]


def test_degree_cap_is_exact_beyond_float_precision(k3_file, tmp_path, capsys):
    # 2 * b(i) for b(i) = 2**53 + 1 is not a float; the cap must still hold.
    B = 2**53 + 1
    weights = tmp_path / "b.txt"
    weights.write_text(f"{B}\n{B}\n{B}\n")
    graph = ["--graph", k3_file, "--weights", str(weights)]
    assert main(["approx", *graph, "--rounds", "4", "--json"]) == 0
    beta = json.loads(capsys.readouterr().out)["result"]["beta"]
    assert Fraction(beta["num"], beta["den"]) == Fraction(2, 3 * B)
    assert main(["exact", *graph]) == 0
    assert f"beta = 2/{3 * B} " in capsys.readouterr().out


@pytest.mark.parametrize("rounds", ["0", "-1"])
def test_approx_rounds_below_one_exit_code(rounds, k3_file):
    proc = run_cli(["approx", "--graph", k3_file, "--rounds", rounds])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: a game needs at least one round, got rounds={rounds}"]


def test_verify_regret_passes_k_zero_on(k3_file, capsys):
    # k = 0 is rejected by the game, not replaced by k = 1.
    assert main(["verify", "--check", "regret", "--graph", k3_file, "--k", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: k must be a positive integer, got 0"]


def test_missing_file_exit_code(capsys):
    assert main(["exact", "--graph", "/nonexistent/file.txt"]) == 2


@pytest.mark.parametrize("args", [
    ["approx", "--graph", "{dir}"],
    ["approx", "--graph", "{k3}", "--weights", "{dir}"],
    ["verify", "--check", "regret", "--graph", "{dir}"],
    ["gen", "--out", "{dir}", "cycle", "5"],
])
def test_unopenable_path_exit_code(args, k3_file, tmp_path, capsys):
    # A directory cannot be opened as a file (IsADirectoryError); like a
    # permission error, it is an OSError and an input error.
    assert main([a.format(dir=tmp_path, k3=k3_file) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_verify_single_check(capsys):
    assert main(["verify", "--check", "rounding-accept", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[PASS] rounding-accept")


def test_env_seed_fallback(k3_file, capsys, monkeypatch):
    monkeypatch.setenv("BIPRATIO_SEED", "42")
    assert main(["approx", "--graph", k3_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 42


@pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
@pytest.mark.parametrize("command", ["approx", "exact", "maxcut", "verify"])
def test_bad_env_seed_exit_code(command, value, k3_file, capsys, monkeypatch):
    monkeypatch.setenv("BIPRATIO_SEED", value)
    assert main([command, "--graph", k3_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: BIPRATIO_SEED must be a non-negative integer, got {value}"]


def test_verify_env_seed_fallback(capsys, monkeypatch):
    # BIPRATIO_SEED seeds every check as --seed does; with neither, each
    # check keeps its own default seed.
    argv = ["verify", "--quick", "--check", "witness-exact"]
    assert main(argv + ["--seed", "2"]) == 0
    flagged = capsys.readouterr().out
    monkeypatch.setenv("BIPRATIO_SEED", "2")
    assert main(argv) == 0
    assert capsys.readouterr().out == flagged
    monkeypatch.delenv("BIPRATIO_SEED")
    assert main(argv) == 0
    assert capsys.readouterr().out != flagged


def test_negative_generator_seed_exit_code(capsys):
    assert main(["gen", "gnp", "5", "0.5", "3", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: gen_seed must be a non-negative integer, got -1"]


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_closed_stdout_exit_code(unbuffered):
    # A reader that stops early (``| head -1``) is no input error: exit 1
    # and a silent stderr.  The output is far larger than a pipe holds, so
    # the write meets the closed pipe, under default buffering and also
    # unbuffered, where the file takes a short write before the next fails.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen([sys.executable, "-m", "bipratio", "gen", "gnp", "400", "0.5",
                             "3", "1"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    assert proc.stdout.readline().split()[0] == b"400"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_subprocess_entry_point(k3_file):
    proc = run_cli(["exact", "--graph", k3_file])
    assert proc.returncode == 0
    assert "1/3" in proc.stdout



def test_eigensolver_failure_exit_code(k3_file, capsys, monkeypatch):
    def broken(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    assert main(["approx", "--graph", k3_file, "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("solver failure (NumericalFailure): ")


def test_certificate_eigensolver_failure_exit_code(k3_file, capsys, monkeypatch):
    # The certificate's lambda_min solve fails like a round's solve.
    def broken(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", broken)
    assert main(["approx", "--graph", k3_file, "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("solver failure (NumericalFailure): ")


@pytest.mark.parametrize("command,weight,code", [
    ("approx", 10**400, 2), ("approx", 2**1023, 2), ("approx", 2**1022, 2),
    ("maxcut", 10**400, 2), ("approx", 10**300, 0)],
    ids=["approx-10**400", "approx-2**1023", "approx-2**1022", "maxcut-10**400",
         "approx-10**300"])
def test_weights_beyond_float_range_exit_code(command, weight, code, tmp_path, capsys):
    # A vertex weight (for maxcut, a degree) above 2**1000 would overflow a
    # float in the spectral layer; it is an input error, not a traceback.
    graph, weights = tmp_path / "g.txt", tmp_path / "b.txt"
    edge_weight = weight if command == "maxcut" else 1
    graph.write_text(f"3 3\n1 2 {edge_weight}\n2 3 {edge_weight}\n1 3 {edge_weight}\n")
    weights.write_text(f"{weight}\n" * 3)
    files = ["--graph", str(graph)] + (["--weights", str(weights)] if command == "approx" else [])
    assert main([command, *files]) == code
    captured = capsys.readouterr()
    assert (captured.out == "") == bool(code)
    assert captured.err == ("error: vertex 0 has weight above 2**1000, beyond the float "
                            "range the spectral layer computes in\n" if code else "")


@pytest.mark.parametrize("command,beta", [
    (["exact"], f"{2 * 10**400}/3 (6.66666667e+399)"),
    (["approx", "--rounds", "2"], f"{2 * 10**400}/1 (2e+400)")], ids=["exact", "approx"])
def test_ratio_beyond_float_range_prints(command, beta, tmp_path, capsys):
    # A ratio a float cannot hold prints its decimal from the exact value.
    graph, weights = tmp_path / "g.txt", tmp_path / "b.txt"
    w = 10**400
    graph.write_text(f"3 3\n1 2 {w}\n2 3 {w}\n1 3 {w}\n")
    weights.write_text("1\n1\n1\n")
    args = [*command, "--graph", str(graph), "--weights", str(weights)]
    assert main(args) == 0
    assert f"beta = {beta}\n" in capsys.readouterr().out
    assert main([*args, "--json"]) == 0
    ratio = json.loads(capsys.readouterr().out)["result"]["beta"]
    assert f"{ratio['num']}/{ratio['den']} ({ratio['decimal']})" == beta


def test_small_ratio_decimals_keep_nine_digits():
    # A nonzero ratio below the float range is not printed as 0, nor one in
    # the subnormal range with the few digits its float holds.
    assert cli.fmt_ratio(Fraction(1, 3 * 10**400)) == f"1/{3 * 10**400} (3.33333333e-401)"
    assert cli.fmt_ratio(Fraction(1, 10**320)) == f"1/{10**320} (1e-320)"
    assert cli.ratio_json(Fraction(0))["decimal"] == "0"


@pytest.mark.parametrize("error", [
    NumericalFailure, DegreeOverflowError, MalformedPathError,
    SaturatingFlowError, RoundFail, GameFailed, AssertionError])
def test_internal_failures_exit_code(error, k3_file, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise error("audit failed:\nsecond line")

    monkeypatch.setattr(cli, "approx_bipartiteness", failing)
    monkeypatch.setattr(cli, "recursive_bipart", failing)
    assert main(["approx", "--graph", k3_file]) == 3
    assert main(["maxcut", "--graph", k3_file]) == 3
    line = f"solver failure ({error.__name__}): audit failed: second line"
    assert capsys.readouterr().err.splitlines() == [line, line]


@pytest.mark.parametrize("check,low", sorted(SMALLEST_N.items()))
def test_verify_n_below_smallest_exit_code(check, low, capsys):
    assert main(["verify", "--quick", "--check", check, "--n", str(low - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --n must be at least {low} for check {check}, got {low - 1}"]
    assert main(["verify", "--quick", "--check", check, "--n", str(low),
                 "--trials", "1"]) in (0, 4)


@pytest.mark.parametrize("args", [["--check", "claim-equality"],
                                  ["--check", "thm-linked"], []])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_empty_corpus_exit_code(args, trials, capsys):
    assert main(["verify", "--quick", *args, "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --trials must be at least 1, got {trials}"]


@pytest.mark.parametrize("check,flag", [("rounding-accept", "--n"),
                                        ("gram-bounds", "--n"), ("lemma-cut", "--k")])
def test_verify_named_check_rejects_a_flag_it_cannot_take(check, flag, capsys):
    assert main(["verify", "--quick", "--check", check, flag, "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: check {check} takes no {flag}"]


@pytest.mark.parametrize("check", [["--check", "regret"], []])
def test_verify_k_needs_a_graph(check, capsys):
    assert main(["verify", "--quick", *check, "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: --k needs --graph"]


def test_verify_trials_sizes_rounding_accept(capsys):
    assert main(["verify", "--quick", "--check", "rounding-accept", "--trials", "10"]) == 0
    rate = capsys.readouterr().out.split("rejection rate ")[1].split()[0]
    assert rate in {f"{i / 10:.4f}" for i in range(11)}


def test_verify_registry_applies_each_flag_where_it_fits(capsys):
    assert main(["verify", "--quick", "--n", "6", "--trials", "1"]) in (0, 4)
    assert len(capsys.readouterr().out.splitlines()) == 13


# Checks whose quick corpora run in milliseconds at one or two trials.
FAST_CHECKS = ["claim-equality", "thm-linked", "lemma-cut", "witness-exact",
               "regret", "cert-sound", "demand-degree", "approx-quality",
               "rounding-accept", "flow-decomp"]
WEIGHTS = st.integers(1, 2**64) | st.just(10**400)


@st.composite
def cli_runs(draw):
    """Arguments of one command plus the graph and vertex-weight files it reads."""
    command = draw(st.sampled_from(["approx", "exact", "maxcut", "verify"]))
    flags = {"--seed": st.integers(-2, 3)}
    if command == "verify":
        flags.update({"--n": st.integers(-1, 4), "--trials": st.integers(-1, 2),
                      "--k": st.integers(-1, 3)})
        args = ["verify", "--quick", "--check", draw(st.sampled_from(FAST_CHECKS))]
        files = None
    else:
        n = draw(st.integers(1, 4))
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = draw(st.lists(st.tuples(st.sampled_from(pairs), WEIGHTS), max_size=5)
                     if pairs else st.just([]))
        b = draw(st.none() | st.lists(WEIGHTS, min_size=n, max_size=n))
        files = (f"{n} {len(edges)}\n" + "".join(f"{u} {v} {w}\n" for (u, v), w in edges),
                 None if b is None else "".join(f"{x}\n" for x in b))
        args = [command]
        if command == "approx":
            args += ["--rounds", str(draw(st.integers(-1, 4)))]
            flags["--t-proj"] = st.integers(-1, 3)
        if command == "exact":
            args += ["--what", draw(st.sampled_from(["beta", "maxcut", "well-linked"]))]
            flags["--k"] = st.integers(-1, 3) | st.just(2**64)
    for flag, values in flags.items():
        if draw(st.booleans()):
            args += [flag, str(draw(values))]
    return args, files


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cli_runs())
def test_every_run_exits_with_a_documented_code(run):
    # Either exit 0 with stdout, or exit 2, 3 or 4 with one line on stderr;
    # never an escaped exception.  A negative seed is refused before all else.
    args, files = run
    seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
    with tempfile.TemporaryDirectory() as tmp:
        if files is not None:
            graph_text, weights_text = files
            graph = Path(tmp, "g.txt")
            graph.write_text(graph_text)
            args += ["--graph", str(graph)]
            if weights_text is not None:
                Path(tmp, "b.txt").write_text(weights_text)
                args += ["--weights", str(Path(tmp, "b.txt"))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    if code == 0:
        assert out.getvalue() and err.getvalue() == ""
    else:
        assert code in (2, 3, 4)
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().endswith("\n")
    if int(seed) < 0:
        assert (code, err.getvalue()) == (
            2, f"error: --seed must be a non-negative integer, got {seed}\n")


def _readme_synopsis() -> dict[str, str]:
    """Each subcommand's lines of README's ``Command line`` block, with
    indented continuation lines joined to the line they continue."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines: dict[str, str] = {}
    command = None
    for line in block.splitlines():
        if line.startswith("bipratio "):
            command = line.split()[1]
            lines[command] = lines.get(command, "") + " " + line
        elif line.strip() and command is not None:
            lines[command] += " " + line
    return lines


def test_readme_synopsis_lists_every_option():
    import argparse
    import re

    synopsis = _readme_synopsis()
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    missing = []
    for command, parser in sub.choices.items():
        words = set(re.findall(r"(?<![\w-])--?[\w-]+", synopsis.get(command, "")))
        for action in parser._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction) \
                    and not words & set(action.option_strings):
                missing.append(f"{command} {action.option_strings[-1]}")
    assert missing == []


def test_verify_regret_reports_a_witnessing_graph(tmp_path, capsys):
    # K5 at k = 1 ends in a witness: the extra game is named, not dropped.
    path = str(tmp_path / "k5.txt")
    dump_graph(complete(5), path)
    assert main(["verify", "--check", "regret"]) == 0
    plain = capsys.readouterr().out
    assert main(["verify", "--check", "regret", "--graph", path, "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert out == plain.rstrip("\n") + ("; the extra graph's game at k=1 ended in a "
                                        "witness (beta 2/5), so it has no bound to check\n")
