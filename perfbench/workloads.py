"""Workload definitions: seeded inputs, the CLI ops of one pass, output checks.

Every op is one ``python -m ellreg.cli`` invocation with its flags and the
paths of the files it writes.  The inputs it reads are grid files built from
the benchmark seed before the first pass; the program sees only those files
and its flags.  Each op carries the exit code it must return and a check of
the files it wrote, so a wrong answer counts as a failed op.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("solve-perturbed", "analyze-fine", "short-runs")
OP_TIMEOUT_S = 150.0

# The two boundary profiles the solve ops name, written as the CLI writes them.
BOUNDARY = {
    "cubic_harmonic": lambda x, y: x**3 - 3.0 * x * y**2,
    "sine": lambda x, y: np.sin(2.0 * x) * np.cos(y),
}
CSV_HEADER = "k,radius,sup_dev,a,b1,b2,c11,c12,c22"


class CheckFailed(Exception):
    """An op's output does not meet its contract."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    kind: str  # names the per-subcommand metric <kind>_s
    args: list
    outputs: list
    check: Callable[[], None]
    expected_exit: int = 0


@dataclass
class OpResult:
    name: str
    kind: str
    wall_s: float
    rss_mb: float
    error: str | None = None


# ---------------------------------------------------------------------------
# seeded inputs


def solve_source(seed: int, salt: int):
    """Smooth source: a constant background plus seeded plane waves.

    The waves are odd under (x, y) -> (-x, -y), so they leave the slowest
    (even) mode of the damped iteration to the constant; the sweep count and
    with it the cost of a solve then hardly depend on the seed.
    """
    rng = np.random.default_rng([seed, salt])
    amp = 0.05 * rng.uniform(-1.0, 1.0, 3) / 3.0
    k = rng.uniform(-2.0, 2.0, (3, 2))

    def f(x, y):
        out = np.full_like(x, 0.25)
        for a, (kx, ky) in zip(amp, k):
            out = out + a * np.sin(kx * x + ky * y)
        return out

    return f


def analysis_field(seed: int, salt: int):
    """Seeded harmonic polynomial of degrees 2..4 plus a small non-harmonic term."""
    rng = np.random.default_rng([seed, salt])
    coef = rng.uniform(0.5, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
    phase = rng.uniform(0.0, 2.0 * math.pi, 3)
    kx, ky = rng.uniform(1.0, 3.0, 2)

    def u(x, y):
        z = x + 1j * y
        out = 0.02 * np.sin(kx * x) * np.sin(ky * y)
        for deg, c, p in zip((2, 3, 4), coef, phase):
            out = out + c * np.real(np.exp(1j * p) * z**deg)
        return out

    return u


def write_inputs(workload: str, seed: int, where: Path) -> dict:
    """Write the workload's seeded input grids into ``where``; returns name -> path."""
    from ellreg.grid import Grid2, GridFunction, save_grid

    specs = {
        "solve-perturbed": [("source_disk81", "disk", 81, solve_source(seed, 1)),
                            ("source_square65", "square", 65, solve_source(seed, 2))],
        "analyze-fine": [("field257", "disk", 257, analysis_field(seed, 3)),
                         ("field513", "disk", 513, analysis_field(seed, 4))],
        "short-runs": [],
    }[workload]
    paths = {}
    for name, shape, n, fn in specs:
        path = where / f"{name}.grid"
        save_grid(path, GridFunction.from_callable(Grid2(shape, n), fn))
        paths[name] = path
    return paths


# ---------------------------------------------------------------------------
# output checks


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: not valid JSON ({exc})") from None


def check_solve(out: Path, summary: Path, source: Path, boundary: str, operator: dict):
    """Residual contract re-evaluated on the written grid; boundary held to the profile."""
    from ellreg import operators, solver
    from ellreg.grid import load_grid

    s = _read_json(summary)
    tol = s.get("tol")
    require(isinstance(tol, float) and tol > 0, "summary has no positive tol")
    u = load_grid(out)
    f = load_grid(source)
    g = u.grid
    spec = operators.OperatorSpec(**operator)
    H = solver.hessian(u)
    inner = g.interior
    require(not (inner & ~H.mask).any(), "written grid lacks stencil support at interior nodes")
    F = operators.evaluate_batch(spec, H.h11[inner], H.h12[inner], H.h22[inner])
    res = float(np.max(np.abs(F - f.values[inner])))
    require(res <= tol, f"re-evaluated residual {res:.3e} exceeds tol {tol:.3e}")
    b = g.boundary
    want = BOUNDARY[boundary](g.X[b], g.Y[b])
    dev = float(np.max(np.abs(u.values[b] - want)))
    require(dev <= 1e-14 * max(1.0, float(np.max(np.abs(want)))),
            f"boundary deviates from the {boundary} profile by {dev:.3e}")


def check_analyze(out: Path, csv: Path, pointwise: bool):
    d = _read_json(out)
    exponent = d.get("fitted_exponent")
    require(isinstance(exponent, float) and math.isfinite(exponent), "fitted_exponent undefined")
    require(d.get("certificate", {}).get("satisfied") is True, "certificate not satisfied")
    rows = csv.read_text().splitlines()
    require(rows and rows[0] == CSV_HEADER, "decay CSV header changed")
    require(len(rows) - 1 == d.get("scales"), "decay CSV rows do not match the scale count")
    for row in rows[1:]:
        cells = [float(c) for c in row.split(",")]
        require(len(cells) == 9 and all(map(math.isfinite, cells)), f"bad decay CSV row {row!r}")
    if pointwise:
        pw = d.get("pointwise") or {}
        bound = pw.get("certified_bound")
        require(isinstance(bound, float) and math.isfinite(bound) and bound > 0,
                "pointwise certified_bound missing")
        require(pw.get("centers", 0) > 0, "pointwise fit has no centers")


def check_cordes(out: Path, csv: Path, satisfied: bool):
    d = _read_json(out)
    nodes = d.get("nodes")
    require(isinstance(nodes, int) and nodes > 0, "cordes summary has no nodes")
    require(d.get("min_kepsprime", 0.0) > 0.0, "min_kepsprime not positive")
    require(d.get("zero_trace_nodes") == [], "zero-trace nodes reported")
    nirenberg = d.get("nirenberg") or {}
    if satisfied:
        require(isinstance(nirenberg.get("k"), float), "Nirenberg constants missing")
    else:
        require("error" in nirenberg, "Nirenberg deviation error missing")
    rows = csv.read_text().splitlines()
    require(len(rows) == nodes + 1, "cordes CSV rows do not match the node count")
    for row in rows[1:]:
        require(len(row.split(",")) == 5, f"bad cordes CSV row {row!r}")


def check_constants(out: Path):
    d = _read_json(out)
    checks = d.get("chain_checks")
    require(checks, "no chain checks reported")
    bad = [c.get("name") for c in checks if c.get("satisfied") is not True]
    require(not bad, f"chain checks failed: {bad}")


def check_selftest(out: Path):
    d = _read_json(out)
    require(d.get("checks"), "selftest ran no checks")
    require(d.get("all_pass") is True,
            f"selftest failures: {[c['name'] for c in d['checks'] if not c['pass']]}")


# ---------------------------------------------------------------------------
# the ops of one pass


def build_ops(workload: str, inputs: dict, out: Path) -> list:
    """The CLI ops of one pass; outputs go to ``out``."""

    def solve(name, source, boundary, operator, flags):
        grid, summary = out / f"{name}.grid", out / f"{name}.json"
        return Op(name, "solve",
                  ["solve", *flags, "--boundary", boundary, "--source-file", str(inputs[source]),
                   "-o", str(grid), "--summary", str(summary)],
                  [grid, summary], lambda: check_solve(grid, summary, inputs[source], boundary, operator))

    def analyze(name, field_name, pointwise):
        js, csv = out / f"{name}.json", out / f"{name}.csv"
        return Op(name, "analyze_pointwise" if pointwise else "analyze",
                  ["analyze", "--input", str(inputs[field_name]), *(["--pointwise"] if pointwise else []),
                   "-o", str(js), "--csv-output", str(csv)],
                  [js, csv], lambda: check_analyze(js, csv, pointwise))

    def cordes(name, flags, expected_exit=0):
        js, csv = out / f"{name}.json", out / f"{name}.csv"
        return Op(name, "cordes", ["cordes", *flags, "-o", str(js), "--csv-output", str(csv)],
                  [js, csv], lambda: check_cordes(js, csv, expected_exit == 0), expected_exit)

    def constants(name, flags):
        js = out / f"{name}.json"
        return Op(name, "constants", ["constants", *flags, "-o", str(js)], [js],
                  lambda: check_constants(js))

    if workload == "solve-perturbed":
        return [
            solve("solve-disk81", "source_disk81", "cubic_harmonic",
                  dict(w11=1.0, w12=0.0, w22=1.0, eps=0.05, perturbation="sine"),
                  ["--grid-shape", "disk", "-N", "81", "--perturbation", "sine", "--eps", "0.05"]),
            solve("solve-square65", "source_square65", "sine",
                  dict(w11=1.25, w12=0.15, w22=1.0, eps=0.05, perturbation="smooth_max"),
                  ["--grid-shape", "square", "-N", "65", "--perturbation", "smooth_max",
                   "--eps", "0.05", "--w11", "1.25", "--w12", "0.15"]),
        ]
    if workload == "analyze-fine":
        return [
            analyze("analyze-257", "field257", False),
            analyze("analyze-pointwise-257", "field257", True),
            cordes("cordes-257", ["--input", str(inputs["field257"])]),
            analyze("analyze-513", "field513", False),
        ]
    if workload == "short-runs":
        selftest = out / "selftest.json"
        return [
            constants("constants-default", []),
            constants("constants-alpha0-Lambda", ["--alpha0", "1", "--Lambda", "2"]),
            constants("constants-statement", ["--c0-variant", "statement"]),
            cordes("cordes-zero", []),
            cordes("cordes-w22", ["--w22", "2"], expected_exit=1),
            Op("selftest", "selftest", ["selftest", "-o", str(selftest)], [selftest],
               lambda: check_selftest(selftest)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running and checking ops


def run_child(argv, env: dict, cwd: Path, log: Path, timeout: float = OP_TIMEOUT_S):
    """Run one process; returns (wall seconds spawn to exit, max RSS in MB, exit code).

    The exit code is None when the process was killed at the timeout.
    """
    reaped = {}

    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=fh, stderr=subprocess.STDOUT)

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped["t1"] = time.perf_counter()
            reaped["status"] = status
            reaped["rss_kb"] = usage.ru_maxrss

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(timeout)
        timed_out = waiter.is_alive()
        if timed_out:
            proc.kill()
            waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    code = None if timed_out else proc.returncode
    return reaped["t1"] - t0, reaped["rss_kb"] / 1024.0, code


def verify(op: Op, exit_code, first_digests: dict):
    """Check one finished op; returns an error message or None.

    ``first_digests`` maps op name to the SHA-256 of its output files on its
    first run in this invocation; later runs must match them byte for byte.
    """
    try:
        require(exit_code is not None, "timed out")
        require(exit_code == op.expected_exit,
                f"exit code {exit_code}, expected {op.expected_exit}")
        missing = [p.name for p in op.outputs if not p.is_file()]
        require(not missing, f"missing outputs {missing}")
        op.check()
        digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in op.outputs}
        require(digest == first_digests.setdefault(op.name, digest),
                "outputs differ from this op's first run")
        return None
    except Exception as exc:  # a failed check is counted, never fatal
        return f"{type(exc).__name__}: {exc}"


def run_pass(ops, cli_argv, env: dict, cwd: Path, first_digests: dict) -> list:
    """Run every op once as a subprocess, then check it."""
    results = []
    for op in ops:
        for p in op.outputs:
            p.unlink(missing_ok=True)
        wall, rss, code = run_child([*cli_argv, *op.args], env, cwd, cwd / f"{op.name}.log")
        results.append(OpResult(op.name, op.kind, wall, rss, verify(op, code, first_digests)))
    return results
