"""CLI: flag/config handling, report emission, exit codes, determinism."""

from __future__ import annotations

import configparser
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellreg import campanato, checks, cli, operators, solver
from ellreg.grid import Grid2, GridFunction, load_grid, save_grid

from conftest import cubic_harmonic, island_field, saddle

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def test_readme_config_example_lists_every_key_and_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```ini\n")
    assert len(blocks) == 2, "README holds one INI example"
    cfgfile = tmp_path / "readme.cfg"
    cfgfile.write_text(blocks[1].split("```")[0])
    cfg = cli._load_config(str(cfgfile))
    keys = {(section, key) for section in cfg.sections() for key in cfg[section]}
    assert keys == cli._CONFIG_KEYS
    code, out, err = run_cli(["constants", "--config", str(cfgfile)], capsys)
    assert code == cli.EXIT_OK, err
    assert json.loads(out)["Lambda"] == 1.08


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
    assert summary["newton_steps"] == 0 and "factor_nnz" not in summary
    iterations = summary["mg_iterations"]
    assert len(iterations) == summary["sweeps"] >= 1
    assert all(isinstance(n, int) and n > 0 for n in iterations)
    assert json.loads(text2)["mg_iterations"] == iterations
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


def test_analyze_in_process_divergence_exits_3_and_writes_nothing(tmp_path, capsys):
    out, csv = tmp_path / "a.json", tmp_path / "d.csv"
    code, _, err = run_cli(
        ["analyze", "-N", "33", "--perturbation", "sine", "--eps", "0.05", "--max-sweeps", "2",
         "--lambda", "0.95", "--Lambda", "1.08", "--output", str(out), "--csv-output", str(csv)],
        capsys)
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure" in err
    assert not out.exists() and not csv.exists()


@pytest.mark.parametrize("command", ["solve", "analyze", "cordes"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_unknown_perturbation_exits_2(tmp_path, capsys, command, source):
    if source == "flag":
        given = ["--perturbation", "bogus"]
    else:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("[operator]\nperturbation = bogus\n")
        given = ["--config", str(cfgfile)]
    out = tmp_path / "out"
    code, _, err = run_cli([command, *given, "--output", str(out)], capsys)
    assert code == cli.EXIT_USAGE
    assert "unknown perturbation 'bogus'; choose from ['none', 'sine', 'smooth_max']" in err
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
    argv = ["analyze", "--input", str(grid_file), "--kmax", "3",
            "--alpha0", "1.0", "--csv-output", str(csv_file)]
    code, out, err = run_cli(argv, capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["certificate"]["satisfied"]
    assert payload["step_report"] is not None
    # one PCG solve per sweep of the harmonic replacement, each iterating at least once
    iterations = payload["step_report"]["mg_iterations"]
    assert iterations and all(isinstance(n, int) and n > 0 for n in iterations)
    assert "factor_nnz" not in payload["step_report"]
    code2, out2, _ = run_cli(argv, capsys)
    assert code2 == code and out2 == out
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


def test_analyze_rejects_even_n_before_any_solve(tmp_path, capsys):
    csv_file = tmp_path / "d.csv"
    out_file = tmp_path / "a.json"
    tail = ["--csv-output", str(csv_file), "-o", str(out_file)]
    code, _, err = run_cli(["analyze", "-N", "64", *tail], capsys)
    assert code == cli.EXIT_USAGE
    assert "N must be odd, got 64" in err
    grid_file = tmp_path / "even.grid"
    save_grid(grid_file, GridFunction.from_callable(Grid2.disk(64), saddle))
    code, _, err = run_cli(["analyze", "--input", str(grid_file), *tail], capsys)
    assert code == cli.EXIT_USAGE
    assert "N must be odd, got 64" in err
    assert not csv_file.exists() and not out_file.exists()


def test_analyze_rejects_operator_outside_certificate_bounds(tmp_path, capsys):
    csv_file = tmp_path / "d.csv"
    out_file = tmp_path / "a.json"
    grid_file = tmp_path / "u.grid"
    save_grid(grid_file, GridFunction.from_callable(Grid2.disk(129), saddle))
    tail = ["--w22", "2", "--csv-output", str(csv_file), "-o", str(out_file)]
    for source in (["-N", "129"], ["--input", str(grid_file)]):
        code, _, err = run_cli(["analyze", *source, *tail], capsys)
        assert code == cli.EXIT_USAGE
        assert "(lambda, Lambda) = (1.0, 2.0)" in err
        assert "[constants] bounds (1.0, 1.0)" in err
        assert not csv_file.exists() and not out_file.exists()
    # the same operator certified at its own Lambda passes the check
    code, out, _ = run_cli(["analyze", "--input", str(grid_file), "--Lambda", "2", "--kmax", "3",
                            "--alpha0", "1.0", *tail], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out_file.read_text())["certificate"]["satisfied"]


def test_analyze_config_with_lambda_and_Lambda(tmp_path, capsys):
    # lambda and Lambda are two keys; with eps > 0 the bounds check needs both
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "[grid]\nn = 65\n\n[operator]\neps = 0.05\nperturbation = sine\n\n"
        "[constants]\nlambda = 0.95\nLambda = 1.08\n\n[analyze]\nkmax = 3\n")
    out_file = tmp_path / "a.json"
    code, _, err = run_cli(["analyze", "--config", str(cfgfile), "-o", str(out_file),
                            "--csv-output", str(tmp_path / "d.csv")], capsys)
    assert code == cli.EXIT_OK, err
    assert json.loads(out_file.read_text())["certificate"]["satisfied"]
    # Lambda alone leaves lambda at its default 1.0 > 1 - eps
    cfgfile.write_text(cfgfile.read_text().replace("lambda = 0.95\n", ""))
    code, _, err = run_cli(["analyze", "--config", str(cfgfile)], capsys)
    assert code == cli.EXIT_USAGE
    assert "[constants] bounds (1.0, 1.08)" in err
    cfgfile.write_text(cfgfile.read_text().replace("Lambda", "lambda = 0.95\nLambda"))
    constants = cli._load_config(str(cfgfile))["constants"]
    assert (constants["Lambda"], constants["lambda"]) == ("1.08", "0.95")


def test_analyze_rejects_infinite_grid_file(tmp_path, capsys):
    grid_file = tmp_path / "inf.grid"
    grid_file.write_text("grid disk 33 1.0\n" + (" ".join(["inf"] * 33) + "\n") * 33)
    code, _, err = run_cli(["analyze", "--input", str(grid_file),
                            "--csv-output", str(tmp_path / "d.csv")], capsys)
    assert code == cli.EXIT_USAGE
    assert f"{grid_file}: infinite value" in err


def test_non_finite_extent_exits_2(tmp_path, capsys):
    code, _, err = run_cli(["solve", "-N", "33", "--extent", "inf",
                            "-o", str(tmp_path / "u.grid")], capsys)
    assert code == cli.EXIT_USAGE
    assert "extent must be positive and finite, got inf" in err
    grid_file = tmp_path / "inf_extent.grid"
    grid_file.write_text("grid disk 65 inf\n" + (" ".join(["0.0"] * 65) + "\n") * 65)
    code, _, err = run_cli(["analyze", "--input", str(grid_file),
                            "--csv-output", str(tmp_path / "d.csv")], capsys)
    assert code == cli.EXIT_USAGE
    assert f"{grid_file}: extent must be positive and finite, got inf" in err
    assert not (tmp_path / "u.grid").exists() and not (tmp_path / "d.csv").exists()


def _cubic65(tmp_path):
    grid_file = tmp_path / "cubic65.grid"
    save_grid(grid_file, GridFunction.from_callable(Grid2.disk(65), cubic_harmonic))
    return grid_file


def test_analyze_with_a_zero_source_file_is_homogeneous(tmp_path, capsys):
    u_file = _cubic65(tmp_path)
    zero_file = tmp_path / "zero65.grid"
    save_grid(zero_file, GridFunction.zeros(Grid2.disk(65)))
    runs = []
    for extra in ([], ["--source-file", str(zero_file)]):
        csv_file = tmp_path / f"d{len(runs)}.csv"
        code, out, err = run_cli(["analyze", "--input", str(u_file), *extra,
                                  "--csv-output", str(csv_file)], capsys)
        assert code == cli.EXIT_OK, err
        payload = json.loads(out)
        assert payload.pop("csv_output") == str(csv_file)
        runs.append((json.dumps(payload), csv_file.read_bytes()))
    assert runs[0] == runs[1]
    payload = json.loads(runs[1][0])
    assert payload["mode"] == "homogeneous"
    assert payload["certificate"]["measured_seminorm"] > 0


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


def test_cordes_rejects_a_grid_without_a_full_stencil(tmp_path, capsys):
    # a ring of boundary nodes gives no node a discrete Hessian to audit
    g = Grid2.disk(33)
    grid_file = tmp_path / "ring.grid"
    save_grid(grid_file, GridFunction.from_callable(g, saddle, g.boundary))
    code, out, err = run_cli(["cordes", "--input", str(grid_file),
                              "--csv-output", str(tmp_path / "c.csv")], capsys)
    assert code == cli.EXIT_USAGE and out == ""
    assert "9-point stencil" in err
    assert not (tmp_path / "c.csv").exists()


# Each run starts a fresh interpreter and reads sys.modules after cli.main returns;
# an empty argv only imports the CLI.
_IMPORT_PROBE = (
    "import json, sys\n"
    "from ellreg import cli\n"
    "argv = json.loads(sys.argv[1])\n"
    "code = cli.main(argv) if argv else 0\n"
    "print(json.dumps([code, sorted(sys.modules)]))\n"
)


@pytest.mark.parametrize("argv, unloaded", [
    ([], ["numpy"]),
    (["constants", "-o", "k.json"], ["numpy", "scipy"]),
    (["cordes", "-o", "c.json", "--csv-output", "c.csv"],
     ["scipy", "mpmath", "ellreg.campanato", "ellreg.checks", "ellreg.mollifier"]),
    (["solve", "-N", "33", "-o", "u.grid", "--summary", "s.json"],
     ["mpmath", "scipy", "ellreg.campanato", "ellreg.checks", "ellreg.mollifier",
      "ellreg.cordes"]),
    (["solve", "-N", "33", "--perturbation", "sine", "--eps", "0.05", "-o", "u.grid"],
     ["mpmath", "scipy", "ellreg.campanato", "ellreg.checks", "ellreg.mollifier",
      "ellreg.cordes"]),
    (["solve", "-N", "33", "--w11", "1.25", "--w12", "0.15", "-o", "u.grid"],
     ["mpmath", "scipy", "ellreg.campanato", "ellreg.checks", "ellreg.mollifier",
      "ellreg.cordes"]),
    (["solve", "-N", "33", "--perturbation", "sine", "--eps", "0.9", "--boundary",
      "cubic_harmonic", "--max-sweeps", "50", "-o", "u.grid", "--summary", "s.json"],
     ["mpmath", "scipy", "ellreg.campanato", "ellreg.checks", "ellreg.mollifier",
      "ellreg.cordes"]),
    (["analyze", "-N", "33", "-o", "a.json", "--csv-output", "d.csv"], ["ellreg.checks"]),
    (["analyze", "--input", "u.grid", "-o", "a.json", "--csv-output", "d.csv"],
     ["scipy", "ellreg.checks", "numpy.ma"]),
    (["analyze", "--input", "u.grid", "--pointwise", "-o", "a.json", "--csv-output", "d.csv"],
     ["scipy", "ellreg.checks", "numpy.ma"]),
    (["selftest", "-o", "t.json"], ["scipy", "numpy.ma"]),
], ids=["import", "constants", "cordes", "solve", "solve_chord", "solve_cross_term",
        "solve_newton", "analyze", "analyze_input", "analyze_input_pointwise", "selftest"])
def test_each_subcommand_loads_only_what_it_runs(tmp_path, argv, unloaded):
    if "--input" in argv:
        g = Grid2.disk(65)
        save_grid(tmp_path / "u.grid", GridFunction.from_callable(g, saddle))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == cli.EXIT_OK
    assert "ellreg.cli" in modules
    assert [m for m in unloaded if m in modules] == []
    if argv and argv[0] == "cordes":
        assert json.loads((tmp_path / "c.json").read_text())["nodes"] == 1
    if "--eps" in argv and "0.9" in argv:  # the solve did reach its Newton steps
        assert json.loads((tmp_path / "s.json").read_text())["newton_steps"] >= 1


# Runs each argv in turn as a child of this small process and prints their exit
# codes and ru_maxrss: Linux carries a parent's peak RSS into a child it spawns,
# so a child of the test process itself would read at least pytest's own peak.
_RSS_PROBE = (
    "import json, os, sys\n"
    "out = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ)\n"
    "    _, status, usage = os.wait4(pid, 0)\n"
    "    out.append([os.waitstatus_to_exitcode(status), usage.ru_maxrss * 1024])\n"
    "print(json.dumps(out))\n"
)


def test_analyze_513_peaks_below_a_fixed_working_set(tmp_path):
    # analyze --input on a disk N=513 field, against a child that only imports
    # what it runs.  The run reads 29.1 MiB above the imports; 33.9 MiB with a
    # multigrid hierarchy that held a 0/1 float copy of each level's mask, a
    # scratch and a restriction buffer per level and the finest level's
    # inverse diagonal as an array, and 45.9 MB with a direct SVD of the scale
    # fits' tall designs and a CG loop in buffers of its own.
    g = Grid2.disk(513)
    save_grid(tmp_path / "u.grid", GridFunction.from_callable(
        g, lambda x, y: saddle(x, y) + 0.5 * cubic_harmonic(x, y) + 0.02 * np.sin(2 * x) * np.sin(y)))
    runs = [["-c", "from ellreg import campanato, cli"],
            ["-m", "ellreg.cli", "analyze", "--input", "u.grid", "-o", "a.json",
             "--csv-output", "d.csv"]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", _RSS_PROBE, json.dumps(runs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    (import_code, import_peak), (code, peak) = json.loads(done.stdout)
    assert import_code == code == cli.EXIT_OK
    assert peak - import_peak < 32 * 2**20, (peak - import_peak) / 2**20


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


def test_analyze_pointwise_rejects_a_clipped_ball_under_twelve_nodes(tmp_path, capsys):
    # without --pointwise the holed field is analyzed; a pointwise ball that
    # holds 9 defined nodes cannot be fitted, so --pointwise exits 2
    grid_file = tmp_path / "u.grid"
    save_grid(grid_file, island_field(Grid2.disk(65)))
    base = ["analyze", "--input", str(grid_file), "--alpha0", "1.0",
            "--csv-output", str(tmp_path / "d.csv"), "-o", str(tmp_path / "a.json")]
    assert run_cli(base, capsys)[0] == cli.EXIT_OK
    code, _, err = run_cli(base + ["--pointwise"], capsys)
    assert code == cli.EXIT_USAGE
    assert "holds 9 nodes; need at least 12" in err


def test_analyze_step_report_writes_the_whole_step(tmp_path, capsys):
    # step_report carries every StepReport field, in its order, at an extent
    # whose step the absolute radii used to skip
    code, out, _ = run_cli(["analyze", "-N", "65", "--extent", "0.35", "--eps", "0.05",
                            "--perturbation", "sine", "--boundary", "quartic",
                            "--lambda", "0.95", "--Lambda", "1.1", "--alpha0", "1.0",
                            "--kmax", "3", "--csv-output", str(tmp_path / "d.csv")], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["warnings"] == []
    step = payload["step_report"]
    assert list(step) == [f.name for f in dataclasses.fields(campanato.StepReport)]
    assert 0 < abs(step["c_correction"]) <= 0.05
    assert step["operator_residual"] <= 1e-14
    assert (step["replace_radius"], step["r_used"]) == (0.8 * 0.35, 0.25 * 0.35)


def test_analyze_names_an_under_resolved_certificate_ball(tmp_path, capsys):
    # undefined inside 8.5h but for the 3 x 3 block at the origin: the
    # certificate ball of radius 1/4 = 8h holds one node with a full stencil
    g = Grid2.disk(65)
    i, j = np.mgrid[-32:33, -32:33]
    defined = g.defined & ((i * i + j * j > 8.5**2) | ((np.abs(i) <= 1) & (np.abs(j) <= 1)))
    grid_file = tmp_path / "u.grid"
    save_grid(grid_file, GridFunction(g, np.where(defined, cubic_harmonic(g.X, g.Y), np.nan),
                                      defined))
    code, out, err = run_cli(["analyze", "--input", str(grid_file), "--alpha0", "1.0",
                              "--csv-output", str(tmp_path / "d.csv")], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert ("the certificate ball B_(1/(4 Lambda)) of radius 0.25 holds 1 nodes with a full "
            "9-point stencil; it needs at least 2") in err


# the check names the selftest reported before it ran the acceptance registry
_LEGACY_SELFTEST_CHECKS = {
    "constants_r0", "constants_chain", "pointwise_factor", "mollifier_mass",
    "mollifier_linear_fixed_point", "mollifier_max_norm", "solver_quadratic",
    "solver_max_principle", "solver_nonlinear_match", "solver_perturbed_converged",
    "operators_residual", "operators_normalize", "operators_fd_gradient",
    "campanato_idempotence", "campanato_cubic_decay", "campanato_inhomogeneous_reduction",
    "certificate_cubic_satisfied", "cordes_exact_margins", "cordes_hessian_identity",
}


@pytest.mark.parametrize("seed", [0, 1, 2**63])
def test_selftest_passes_for_seed(capsys, seed):
    code, out, _ = run_cli(["selftest", "--seed", str(seed)], capsys)
    payload = json.loads(out)
    assert code == cli.EXIT_OK and payload["all_pass"]
    assert payload["seed"] == seed
    names = [c["name"] for c in payload["checks"]]
    assert len(names) == len(set(names))
    assert _LEGACY_SELFTEST_CHECKS < set(names)
    assert "solver_two_grid_order" in names and "campanato_telescoping" in names


def test_selftest_grids_stay_coarse():
    assert max(checks.REDUCED["n"], checks.REDUCED["fine_n"], checks.REDUCED["rate_n"],
               *checks.REDUCED["order_ns"]) <= 129


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


_CONFIG_DECLS = {(section, key): (cast, kw)
                 for section, params in (cli._GRID, cli._OPERATOR, cli._SOLVE, cli._CONSTANTS,
                                         cli._ANALYZE, cli._CORDES)
                 for _, key, cast, _, kw in params}


def _config_values(key, cast, kw):
    """Values a config file may give the parameter, as the text it holds."""
    if "choices" in kw:
        return st.sampled_from(kw["choices"])
    if key == "perturbation":
        return st.sampled_from(operators.PERTURBATIONS)
    if key in ("boundary", "source"):
        return st.sampled_from(sorted(cli.PROFILES))
    if cast is int:
        return st.integers(-10**6, 10**6).map(str)
    if cast is float:
        return st.floats(allow_nan=False, allow_infinity=False).map(repr)
    return st.text("abcdefghijklmnopqrstuvwxyz0123456789_./-", min_size=1, max_size=20)


@st.composite
def _configs(draw):
    keys = draw(st.sets(st.sampled_from(sorted(_CONFIG_DECLS))))
    cfg = {}
    for section, key in sorted(keys):
        cast, kw = _CONFIG_DECLS[section, key]
        cfg.setdefault(section, {})[key] = draw(_config_values(key, cast, kw))
    return cfg


@settings(max_examples=60, deadline=None)
@given(_configs())
def test_load_config_keeps_every_key_and_its_text(cfg):
    assert {("constants", "lambda"), ("constants", "Lambda")} <= _CONFIG_DECLS.keys()
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_dict(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        with open(path, "w") as fh:
            parser.write(fh)
        parsed = cli._load_config(str(path))
    # every key keeps its case and its text, and each value still casts
    assert {s: dict(parsed[s]) for s in parsed.sections()} == cfg
    for section, values in cfg.items():
        for key, text in values.items():
            cast = _CONFIG_DECLS[section, key][0]
            assert cast(parsed.get(section, key)) == cast(text)


def test_unknown_config_keys_exit_2(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    for argv, text, named in (
            (["constants"], "[constants]\nlamda = 0.5\n", "[constants] lamda"),
            (["cordes", "--csv-output", str(tmp_path / "c.csv")], "[operator]\nw_22 = 2\n",
             "[operator] w_22"),
            # [DEFAULT] keys reach every section, so none is read
            (["constants"], "[DEFAULT]\nlamda = 0.5\n", "[DEFAULT] lamda"),
            (["constants"], "[DEFAULT]\neps = 0.05\n\n[grid]\nn = 65\n", "[DEFAULT] eps"),
            # the seminorms take every node, so the old node cap is no key
            (["constants"], "[analyze]\nsubsample = 1089\n", "[analyze] subsample")):
        cfgfile.write_text(text)
        code, out, err = run_cli([*argv, "--config", str(cfgfile)], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert f"{cfgfile}: unknown config key {named}" in err
    # keys of other subcommands are known, so one config file serves them all
    cfgfile.write_text("[grid]\nn = 65\n\n[solve]\ntol = 1e-9\n\n[analyze]\nf_bound = 0.1\n")
    code, _, _ = run_cli(["constants", "--config", str(cfgfile)], capsys)
    assert code == cli.EXIT_OK


def test_malformed_config_value_names_its_key(tmp_path, capsys):
    grid_file = tmp_path / "u.grid"
    save_grid(grid_file, GridFunction.from_callable(Grid2.disk(33), saddle))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[solve]\ntol = oops\n")
    # resolution is eager: analyze --input never solves, yet the value is checked
    code, _, err = run_cli(["analyze", "--input", str(grid_file), "--config", str(cfgfile),
                            "--csv-output", str(tmp_path / "d.csv")], capsys)
    assert code == cli.EXIT_USAGE
    assert f"{cfgfile}: [solve] tol:" in err and "oops" in err
    assert not (tmp_path / "d.csv").exists()


def test_analyze_inhomogeneous_in_process(tmp_path, capsys):
    argv = ["analyze", "-N", "129", "--boundary", "cubic_harmonic", "--source", "poisson_quartic",
            "--csv-output", str(tmp_path / "d.csv")]
    code, out, err = run_cli(argv, capsys)
    assert code == cli.EXIT_OK, err
    payload = json.loads(out)
    assert payload["mode"] == "inhomogeneous"
    assert payload["certificate"]["informational"]
    csv_text = (tmp_path / "d.csv").read_text()
    code2, out2, _ = run_cli(argv, capsys)
    assert code2 == code and out2 == out
    assert (tmp_path / "d.csv").read_text() == csv_text
    # analyze --input of the same solve reads the same source
    u_file = tmp_path / "u.grid"
    code, _, err = run_cli(["solve", "-N", "129", "--boundary", "cubic_harmonic",
                            "--source", "poisson_quartic", "-o", str(u_file)], capsys)
    assert code == cli.EXIT_OK, err
    (tmp_path / "d.csv").unlink()
    code3, out3, _ = run_cli(["analyze", "--input", str(u_file), "--source", "poisson_quartic",
                              "--csv-output", str(tmp_path / "d.csv")], capsys)
    assert code3 == code2 and out3 == out
    assert (tmp_path / "d.csv").read_text() == csv_text
    # a source file off the input's lattice is a usage error
    f_file = tmp_path / "f65.grid"
    save_grid(f_file, GridFunction.from_callable(Grid2.disk(65), lambda x, y: 12.0 * x**2))
    code, _, err = run_cli(["analyze", "--input", str(u_file), "--source-file", str(f_file),
                            "--csv-output", str(tmp_path / "d.csv")], capsys)
    assert code == cli.EXIT_USAGE and "does not match the run lattice" in err
    # and so is one of the input's N and extent on a square instead of its disk
    f_file = tmp_path / "f129square.grid"
    save_grid(f_file, GridFunction.from_callable(Grid2.square(129), lambda x, y: 12.0 * x**2))
    code, _, err = run_cli(["analyze", "--input", str(u_file), "--source-file", str(f_file),
                            "--csv-output", str(tmp_path / "d.csv")], capsys)
    assert code == cli.EXIT_USAGE and "does not match the run lattice" in err


# every [section] key a subcommand reads, a value other than its fallback, its
# flag, and the flag group it belongs to ([analyze] eps_slack and f_bound are
# read by cordes alone)
_SURFACE = [
    ("grid", "shape", "square", "--grid-shape", "grid"),
    ("grid", "n", "41", "-N", "grid"),
    ("grid", "extent", "1.5", "--extent", "grid"),
    ("operator", "w11", "1.1", "--w11", "operator"),
    ("operator", "w12", "0.05", "--w12", "operator"),
    ("operator", "w22", "0.95", "--w22", "operator"),
    ("operator", "eps", "0.02", "--eps", "operator"),
    ("operator", "perturbation", "smooth_max", "--perturbation", "operator"),
    ("solve", "boundary", "quadratic_bowl", "--boundary", "solve"),
    ("solve", "source", "one", "--source", "solve"),
    ("solve", "source_file", None, "--source-file", "solve"),  # path filled in below
    ("solve", "tol", "1e-09", "--tol", "solve"),
    ("solve", "max_sweeps", "500", "--max-sweeps", "solve"),
    ("constants", "n", "3", "-n", "constants"),
    ("constants", "lambda", "0.9", "--lambda", "constants"),
    ("constants", "Lambda", "1.2", "--Lambda", "constants"),
    ("constants", "alpha_bar", "0.6", "--alpha-bar", "constants"),
    ("constants", "alpha", "0.3", "--alpha", "constants"),
    ("constants", "K1", "1.5", "--K1", "constants"),
    ("constants", "alpha0", "0.2", "--alpha0", "constants"),
    ("constants", "C_prime", "2.0", "--C-prime", "constants"),
    ("constants", "K2", "1.5", "--K2", "constants"),
    ("constants", "C3", "2.0", "--C3", "constants"),
    ("constants", "c0_variant", "statement", "--c0-variant", "constants"),
    ("analyze", "rho", "0.6", "--rho", "analyze"),
    ("analyze", "kmax", "3", "--kmax", "analyze"),
    ("analyze", "eps_slack", "0.5", "--eps-slack", "cordes"),
    ("analyze", "f_bound", "0.1", "--f-bound", "cordes"),
]
_SURFACE_GROUPS = {
    "constants": {"constants"},
    "solve": {"grid", "operator", "solve"},
    "analyze": {"grid", "operator", "solve", "constants", "analyze"},
    "cordes": {"operator", "cordes"},
}


def test_every_parameter_reaches_the_output_from_config_and_flags(tmp_path, capsys):
    src_file = tmp_path / "f.grid"
    save_grid(src_file, GridFunction.from_callable(Grid2("square", 41, 1.5),
                                                   lambda x, y: 0.5 + 0.0 * x))
    rows = [(s, k, str(src_file) if v is None else v, flag, grp) for s, k, v, flag, grp in _SURFACE]
    cfgfile = tmp_path / "all.cfg"
    sections = {}
    for section, key, value, _, _ in rows:
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    cfgfile.write_text("".join(f"[{s}]\n" + "".join(lines) + "\n" for s, lines in sections.items()))
    tails = {
        "constants": [],
        "solve": ["-o", str(tmp_path / "u.grid")],
        # [constants] n = 3 reaches the constants output; analyze runs on a 2-D
        # lattice, so its run sets n back to 2 (no analyze assertion reads n)
        "analyze": ["-n", "2", "--pointwise", "--csv-output", str(tmp_path / "d.csv")],
        "cordes": ["--csv-output", str(tmp_path / "c.csv")],
    }
    outputs = {}
    for command, groups in _SURFACE_GROUPS.items():
        flags = [a for _, _, value, flag, grp in rows if grp in groups for a in (flag, value)]
        code, out, err = run_cli([command, "--config", str(cfgfile), *tails[command]], capsys)
        code2, out2, _ = run_cli([command, *flags, *tails[command]], capsys)
        assert code != cli.EXIT_USAGE, err
        assert (code2, out2) == (code, out)
        outputs[command] = json.loads(out)
    value = {(s, k): v for s, k, v, _, _ in rows}

    report = outputs["constants"]
    for (section, key), v in value.items():
        if section == "constants":
            assert str(report[key]) == v, key
    summary = outputs["solve"]
    assert summary["grid"] == "square 41 1.5"
    assert summary["operator"] == {k: value["operator", k] for k in
                                   ("w11", "w12", "w22", "eps", "perturbation")}
    assert summary["tol"] == 1e-9
    analysis = outputs["analyze"]
    assert analysis["rho"] == 0.6 and analysis["scales"] == 4
    assert analysis["pointwise"]["alpha"] == 0.3
    assert analysis["mode"] == "inhomogeneous"  # the source file reached the solve
    nirenberg = outputs["cordes"]["nirenberg"]
    assert nirenberg["k"] == pytest.approx(2.0 / (1.0 - 1.5 * nirenberg["max_dev_sq"]), rel=1e-12)
    assert nirenberg["max_dev_sq"] > 0
    assert nirenberg["k1"] == pytest.approx(0.3, rel=1e-12)


# Run settings no run can use: each exits 2 before any file is written, with a
# message naming the parameter.
_OUTPUTS = {
    "solve": ["-o", "{d}/u.grid", "--summary", "{d}/s.json"],
    "analyze": ["-o", "{d}/a.json", "--csv-output", "{d}/d.csv"],
    "cordes": ["-o", "{d}/c.json", "--csv-output", "{d}/c.csv"],
}
_SOLVE_SINE = "solve -N 33 --eps 0.05 --perturbation sine"
_ANALYZE_CUBIC = "analyze -N 65 --boundary cubic_harmonic"
_REJECTED = [
    ("cordes --eps nan --perturbation sine", None, "eps must be finite, got nan"),
    ("cordes --w12 nan", None, "w12 must be finite, got nan"),
    ("solve -N 33 --eps nan", None, "eps must be finite, got nan"),
    ("solve -N 33 --w11 inf", None, "w11 must be finite, got inf"),
    ("cordes --eps-slack nan", None, "eps_slack must be positive and finite, got nan"),
    ("cordes --eps-slack 0", None, "eps_slack must be positive and finite, got 0.0"),
    ("cordes --f-bound nan", None, "f_bound must be nonnegative and finite, got nan"),
    ("cordes --f-bound inf", None, "f_bound must be nonnegative and finite, got inf"),
    ("cordes --f-bound -1", None, "f_bound must be nonnegative and finite, got -1.0"),
    (_SOLVE_SINE + " --tol 0", None, "tol must be positive and finite, got 0.0"),
    (_SOLVE_SINE + " --tol -1", None, "tol must be positive and finite, got -1.0"),
    (_SOLVE_SINE + " --tol nan", None, "tol must be positive and finite, got nan"),
    (_SOLVE_SINE, "[solve]\ntol = 0\n", "tol must be positive and finite, got 0.0"),
    (_SOLVE_SINE + " --max-sweeps -5", None, "max_sweeps must be nonnegative, got -5"),
    (_ANALYZE_CUBIC + " --gamma -0.1", None, "--gamma must be positive and finite, got -0.1"),
    (_ANALYZE_CUBIC + " --gamma 0", None, "--gamma must be positive and finite, got 0.0"),
    (_ANALYZE_CUBIC + " --gamma nan", None, "--gamma must be positive and finite, got nan"),
    (_ANALYZE_CUBIC + " --rho 1.5", None, "--rho must lie in (0,1), got 1.5"),
    (_ANALYZE_CUBIC + " --rho nan", None, "--rho must lie in (0,1), got nan"),
    (_ANALYZE_CUBIC + " --rho 0", None, "--rho must lie in (0,1), got 0.0"),
    (_ANALYZE_CUBIC + " --kmax -1", None, "--kmax must be nonnegative, got -1"),
    (_ANALYZE_CUBIC + " --K1 1e-40", None, "gamma must stay below 1/5"),
    (_ANALYZE_CUBIC + " -n 3", None, "[constants] n must be 2, got 3"),
]


@pytest.mark.parametrize("command,config,message", _REJECTED,
                         ids=[c + (" and " + k.replace("\n", " ").strip() if k else "")
                              for c, k, _ in _REJECTED])
def test_settings_that_cannot_work_exit_2_and_write_nothing(tmp_path, capsys, monkeypatch,
                                                           command, config, message):
    argv = command.split()
    if argv[0] == "analyze":  # analyze rejects its settings before it solves
        def no_solve(*args, **kwargs):
            raise AssertionError("analyze solved before rejecting its settings")
        monkeypatch.setattr(solver, "solve_fully_nonlinear", no_solve)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    extra = [a.format(d=out_dir) for a in _OUTPUTS[argv[0]]]
    if config is not None:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        extra += ["--config", str(cfgfile)]
    code, out, err = run_cli(argv + extra, capsys)
    assert code == cli.EXIT_USAGE, err
    assert message in err and out == ""
    assert not any(out_dir.iterdir())
