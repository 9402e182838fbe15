"""CLI: flag/config handling, report emission, exit codes, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ellreg import cli
from ellreg.grid import Grid2, GridFunction, load_grid, save_grid

from conftest import saddle


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_basic_and_deterministic(capsys):
    argv = ["constants", "-n", "2", "--lambda", "1", "--Lambda", "1",
            "--alpha-bar", "0.5", "--alpha", "0.25",
            "--K1", "1", "--alpha0", "1.0", "--K2", "1", "--C3", "1"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == cli.EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["r0"] == pytest.approx(2.25e-6, rel=1e-10)
    assert all(c["satisfied"] for c in payload["chain_checks"])


def test_constants_validation_exit_code(capsys):
    code, _, err = run_cli(["constants", "--alpha-bar", "1.5"], capsys)
    assert code == cli.EXIT_USAGE
    assert "alpha_bar must lie in (0,1)" in err


def test_constants_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[constants]\nalpha_bar = 0.5\nalpha0 = 1.0\nK2 = 1\n")
    code, out, _ = run_cli(["constants", "--config", str(cfgfile), "-n", "2"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["alpha0"] == 1.0
    code2, out2, _ = run_cli(
        ["constants", "--config", str(cfgfile), "-n", "2", "--alpha0", "0.5"], capsys)
    assert code2 == cli.EXIT_OK
    assert json.loads(out2)["alpha0"] == 0.5


def test_solve_quadratic_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.grid"
    out2 = tmp_path / "b.grid"
    argv = ["solve", "-N", "33", "--boundary", "quadratic_saddle", "--output"]
    code1, text1, _ = run_cli(argv + [str(out1)], capsys)
    code2, text2, _ = run_cli(argv + [str(out2)], capsys)
    assert code1 == code2 == cli.EXIT_OK
    summary = json.loads(text1)
    assert summary["final_residual"] <= summary["tol"]
    assert summary["h"] == pytest.approx(2.0 / 32.0)
    assert summary["residual_history"][-1] == summary["final_residual"]
    assert summary["jacobian_refactors"] == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert text1.replace(str(out1), str(out2)) == text2
    sol = load_grid(out1)
    exact = saddle(sol.grid.X, sol.grid.Y)
    assert np.max(np.abs(sol.values[sol.defined] - exact[sol.defined])) <= 1e-7


def test_solve_divergence_writes_nothing(tmp_path, capsys):
    out = tmp_path / "never.grid"
    code, _, err = run_cli(
        ["solve", "-N", "33", "--perturbation", "sine", "--eps", "0.05", "--max-sweeps", "2",
         "--output", str(out)], capsys)
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure" in err
    assert "no convergence in 2 sweeps" in err
    assert not out.exists()


def test_solve_perturbed_with_source_from_file(tmp_path, capsys):
    g = Grid2.disk(33)
    f = GridFunction.from_callable(g, lambda x, y: 12.0 * x**2)
    src_file = tmp_path / "f.grid"
    save_grid(src_file, f)
    out = tmp_path / "sol.grid"
    code, text, _ = run_cli(
        ["solve", "-N", "33", "--boundary", "quartic", "--eps", "0.02",
         "--perturbation", "smooth_max", "--source-file", str(src_file),
         "--output", str(out)], capsys)
    assert code == cli.EXIT_OK
    summary = json.loads(text)
    assert summary["final_residual"] <= summary["tol"]
    assert out.exists()


def test_analyze_quadratic_input(tmp_path, capsys):
    g = Grid2.disk(65)
    u = GridFunction.from_callable(g, saddle)
    grid_file = tmp_path / "u.grid"
    save_grid(grid_file, u)
    csv_file = tmp_path / "decay.csv"
    code, out, err = run_cli(
        ["analyze", "--input", str(grid_file), "--kmax", "3",
         "--alpha0", "1.0", "--csv-output", str(csv_file)], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["certificate"]["satisfied"]
    assert payload["step_report"] is not None
    assert not payload["truncated"]
    rows = csv_file.read_text().strip().splitlines()
    assert rows[0] == "k,radius,sup_dev,a,b1,b2,c11,c12,c22"
    assert len(rows) == 5
    for row in rows[1:]:
        assert float(row.split(",")[2]) <= 1e-9


def test_analyze_cubic_decay_exponent(tmp_path, capsys):
    g = Grid2.disk(257)
    u = GridFunction.from_callable(g, lambda x, y: x**3 - 3.0 * x * y**2)
    grid_file = tmp_path / "cubic.grid"
    save_grid(grid_file, u)
    csv_file = tmp_path / "decay.csv"
    code, out, _ = run_cli(
        ["analyze", "--input", str(grid_file), "--rho", "0.5", "--kmax", "4",
         "--alpha0", "1.0", "--csv-output", str(csv_file)], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["fitted_exponent"] >= 2.8
    rows = csv_file.read_text().strip().splitlines()
    assert len(rows) == 6  # header + scales k = 0..4
    devs = [float(r.split(",")[2]) for r in rows[1:]]
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_analyze_truncation_warning_and_strict(tmp_path, capsys):
    g = Grid2.disk(65)
    u = GridFunction.from_callable(g, saddle)
    grid_file = tmp_path / "u.grid"
    save_grid(grid_file, u)
    base = ["analyze", "--input", str(grid_file), "--rho", "0.9", "--kmax", "50",
            "--alpha0", "1.0", "--csv-output", str(tmp_path / "d.csv")]
    code, out, err = run_cli(base, capsys)
    assert code == cli.EXIT_OK
    assert "truncated" in err
    code2, _, _ = run_cli(base + ["--strict"], capsys)
    assert code2 == cli.EXIT_UNSATISFIED


def test_cordes_identity_spec(tmp_path, capsys):
    code, out, _ = run_cli(
        ["cordes", "--csv-output", str(tmp_path / "c.csv")], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["min_cordes_delta"] == pytest.approx(1.0)
    assert payload["nirenberg"]["k"] == pytest.approx(2.0)
    header = (tmp_path / "c.csv").read_text().splitlines()[0]
    assert header == "x,y,keps,kepsprime,cordesdelta"


def test_cordes_large_anisotropy_fails_deviation_condition(tmp_path, capsys):
    code, out, _ = run_cli(
        ["cordes", "--w22", "10.0", "--csv-output", str(tmp_path / "c.csv")], capsys)
    assert code == cli.EXIT_UNSATISFIED
    payload = json.loads(out)
    assert payload["min_keps"] > 0  # spread < trace for any SPD field in 2-D
    assert "error" in payload["nirenberg"]


def test_cordes_with_solution_grid(tmp_path, capsys):
    g = Grid2.disk(33)
    u = GridFunction.from_callable(g, saddle)
    grid_file = tmp_path / "u.grid"
    save_grid(grid_file, u)
    code, out, _ = run_cli(
        ["cordes", "--input", str(grid_file), "--eps", "0.05",
         "--perturbation", "sine", "--csv-output", str(tmp_path / "c.csv")], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["nodes"] > 500
    assert payload["min_kepsprime"] > 0


def test_analyze_pointwise_bound(tmp_path, capsys):
    g = Grid2.disk(65)
    u = GridFunction.from_callable(g, lambda x, y: x**3 - 3 * x * y**2)
    grid_file = tmp_path / "u.grid"
    save_grid(grid_file, u)
    code, out, _ = run_cli(
        ["analyze", "--input", str(grid_file), "--kmax", "3", "--alpha0", "1.0",
         "--pointwise", "--csv-output", str(tmp_path / "d.csv")], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["pointwise"]["certified_bound"] > 0
    assert payload["pointwise"]["centers"] > 10


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[operator\nw11 = oops\n")
    code, _, err = run_cli(["cordes", "--config", str(bad)], capsys)
    assert code == cli.EXIT_USAGE
    assert "bad.cfg" in err


def test_unknown_profile_exits_2(capsys):
    code, _, err = run_cli(["solve", "-N", "33", "--boundary", "nonsense"], capsys)
    assert code == cli.EXIT_USAGE
    assert "unknown field profile" in err


def test_config_canonical_round_trip(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "[operator]\nw22 = 2.0\nw11 = 1.0\n\n[grid]\nn = 33\nshape = disk\n")
    cfg = cli._load_config(str(cfgfile))
    canon = cli.canonical_config(cfg)
    again = tmp_path / "canon.cfg"
    again.write_text(canon)
    assert cli.canonical_config(cli._load_config(str(again))) == canon
    assert canon.index("[grid]") < canon.index("[operator]")
