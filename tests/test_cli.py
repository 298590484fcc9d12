import json
import subprocess
import sys

import numpy as np
import pytest

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
from bipratio.generators import complete, cycle
from bipratio.graphio import dump_graph


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
    ("maxcut", "--gram", "exact"), ("maxcut", "--eps", "0.25")])
def test_no_gram_route_flags(command, flag, value, k3_file, capsys):
    # The cut player has a single Gram route, so there is nothing to choose.
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", k3_file, flag, value])
    assert exc.value.code == 2


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


def test_solver_failure_exit_code(k3_file, capsys):
    # Zero Gaussian attempts per round exhausts the restart budget at once.
    assert main(["approx", "--graph", k3_file, "--t-proj", "0"]) == 3


def test_missing_file_exit_code(capsys):
    assert main(["exact", "--graph", "/nonexistent/file.txt"]) == 2


def test_verify_single_check(capsys):
    assert main(["verify", "--check", "rounding-accept", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[PASS] rounding-accept")


def test_env_seed_fallback(k3_file, capsys, monkeypatch):
    monkeypatch.setenv("BIPRATIO_SEED", "42")
    assert main(["approx", "--graph", k3_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 42


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
