"""Command-line orchestration for reproducible analysis runs.

Subcommands: constants, solve, analyze, cordes, selftest.  Run parameters
come from an INI-style config file (sections [grid], [operator], [constants],
[solve], [analyze], [run]) with command-line flags overriding file values.
All outputs are deterministic: identical config plus seed yields byte
identical files.  Randomized audits draw from counter-based Philox
generators keyed by the single 64-bit run seed.

Exit codes: 0 success / condition satisfied; 1 condition not satisfied;
2 usage or validation error; 3 numerical failure.

analyze --pointwise fits the quadratics of all centers whose fit ball lies on
defined nodes together (one shared design matrix, ball membership decided in
integer lattice offsets) and fits each center with a clipped ball alone.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys

import numpy as np

from . import campanato, constants, cordes, mollifier, operators, solver
from .grid import Grid2, GridFunction, load_grid, save_grid

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

PROFILES = {
    "zero": lambda x, y: np.zeros_like(x),
    "one": lambda x, y: np.ones_like(x),
    "quadratic_saddle": lambda x, y: x**2 - y**2,
    "quadratic_bowl": lambda x, y: x**2 + y**2,
    "cubic_harmonic": lambda x, y: x**3 - 3.0 * x * y**2,
    "quartic": lambda x, y: x**4,
    "sine": lambda x, y: np.sin(2.0 * x) * np.cos(y),
    "radial_sqrt": lambda x, y: np.hypot(x, y) ** 0.5,
    "poisson_quartic": lambda x, y: 12.0 * x**2,
}


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _Resolver:
    """Flag value if given, else config value, else fallback."""

    def __init__(self, args, cfg: configparser.ConfigParser):
        self.args = args
        self.cfg = cfg

    def get(self, attr: str, section: str, key: str, fallback, cast=float):
        val = getattr(self.args, attr, None)
        if val is not None:
            return val
        if self.cfg.has_option(section, key):
            raw = self.cfg.get(section, key)
            return raw if cast is str else cast(raw)
        return fallback


def _load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if path:
        with open(path) as fh:
            cfg.read_file(fh, source=path)
    return cfg


def canonical_config(cfg: configparser.ConfigParser) -> str:
    """Canonical serialization (sorted sections and keys); parsing the output
    and re-serializing reproduces it byte for byte."""
    lines = []
    for section in sorted(cfg.sections()):
        lines.append(f"[{section}]")
        for key in sorted(cfg.options(section)):
            lines.append(f"{key} = {cfg.get(section, key)}")
        lines.append("")
    return "\n".join(lines)


def _profile(name: str):
    if name not in PROFILES:
        raise ValueError(f"unknown field profile {name!r}; choose from {sorted(PROFILES)}")
    return PROFILES[name]


def _build_grid(r: _Resolver) -> Grid2:
    shape = r.get("grid_shape", "grid", "shape", "disk", cast=str)
    n = int(r.get("grid_n", "grid", "n", 129, cast=int))
    extent = r.get("extent", "grid", "extent", 1.0)
    return Grid2(shape, n, extent)


def _build_spec(r: _Resolver) -> operators.OperatorSpec:
    return operators.OperatorSpec(
        w11=r.get("w11", "operator", "w11", 1.0),
        w12=r.get("w12", "operator", "w12", 0.0),
        w22=r.get("w22", "operator", "w22", 1.0),
        eps=r.get("eps", "operator", "eps", 0.0),
        perturbation=r.get("perturbation", "operator", "perturbation", "none", cast=str),
    )


def _build_constants_inputs(r: _Resolver):
    n = int(r.get("n", "constants", "n", 2, cast=int))
    bounds = constants.EllipticityBounds(
        r.get("lam", "constants", "lambda", 1.0),
        r.get("Lam", "constants", "Lambda", 1.0),
    )
    pair = constants.HolderPair(
        alpha_bar=r.get("alpha_bar", "constants", "alpha_bar", 0.5),
        alpha=r.get("alpha", "constants", "alpha", 0.25),
    )
    ext = constants.ExternalConstants(
        K1=r.get("K1", "constants", "K1", 1.0),
        alpha0=r.get("alpha0", "constants", "alpha0", 0.1),
        C_prime=r.get("C_prime", "constants", "C_prime", 1.0),
        K2=r.get("K2", "constants", "K2", 1.0),
        C3=r.get("C3", "constants", "C3", 1.0),
    )
    variant = r.get("c0_variant", "constants", "c0_variant", "proof", cast=str)
    return n, bounds, pair, ext, variant


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(args) -> int:
    cfg = _load_config(args.config)
    r = _Resolver(args, cfg)
    n, bounds, pair, ext, variant = _build_constants_inputs(r)
    report = constants.build_report(n, bounds, pair, ext, variant)
    _emit(constants.report_to_json(report), args.output)
    return EXIT_OK if report.all_checks_pass() else EXIT_UNSATISFIED


def _solve_from_config(r: _Resolver):
    grid = _build_grid(r)
    spec = _build_spec(r)
    gname = r.get("boundary", "solve", "boundary", "quadratic_saddle", cast=str)
    fname = r.get("source", "solve", "source", "zero", cast=str)
    ffile = r.get("source_file", "solve", "source_file", None, cast=str)
    tol = r.get("tol", "solve", "tol", None)
    max_sweeps = int(r.get("max_sweeps", "solve", "max_sweeps", 1_000_000, cast=int))
    g = _profile(gname)
    if ffile:
        f = load_grid(ffile)
        if f.grid.N != grid.N or f.grid.extent != grid.extent:
            raise ValueError("source grid file does not match the run lattice")
    elif fname == "zero":
        f = None
    else:
        f = GridFunction.from_callable(grid, _profile(fname))
    u = solver.solve_fully_nonlinear(spec, f, g, grid, tol=tol, max_sweeps=max_sweeps)
    return grid, spec, f, u


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    r = _Resolver(args, cfg)
    grid, spec, f, u = _solve_from_config(r)
    save_grid(args.output, u)
    summary = {
        "final_residual": u.meta["residual"],
        "sweeps": u.meta["sweeps"],
        "jacobian_refactors": u.meta["jacobian_refactors"],
        "residual_history": u.meta["residual_history"],
        "h": grid.h,
        "tol": u.meta["tol"],
        "grid": f"{grid.shape} {grid.N} {grid.extent!r}",
        "operator": operators.spec_to_config(spec),
        "output": args.output,
    }
    _emit(_json_dump(summary), args.summary)
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = _load_config(args.config)
    r = _Resolver(args, cfg)
    spec = _build_spec(r)
    warnings: list[str] = []
    if args.input:
        u = load_grid(args.input)
        grid = u.grid
        f = None
    else:
        grid, spec, f, u = _solve_from_config(r)

    rho = r.get("rho", "analyze", "rho", 0.5)
    kmax = int(r.get("kmax", "analyze", "kmax", 4, cast=int))
    alpha = r.get("alpha", "constants", "alpha", 0.25)
    subsample = int(r.get("subsample", "analyze", "subsample", 1089, cast=int))

    if f is None:
        table = campanato.campanato_iterate(u, spec, rho=rho, kmax=kmax)
    else:
        table = campanato.inhomogeneous_iterate(u, spec, f, mu=rho, kmax=kmax, alpha=alpha)
    if table.truncated:
        warnings.append(f"decay table truncated: scale {len(table.records)} under-resolved")

    n, bounds, pair, ext, variant = _build_constants_inputs(r)
    report = constants.build_report(n, bounds, pair, ext, variant)
    cert = campanato.certificate_check(u, spec, f, report, bounds, subsample=subsample)

    pointwise_payload = None
    if args.pointwise:
        fits = campanato.pointwise_fit_constants(
            u, alpha, region_radius=min(0.25 * grid.extent, grid.extent - 4 * grid.h))
        pointwise_payload = {
            "certified_bound": campanato.pointwise_to_holder(fits, alpha),
            "centers": len(fits),
            "alpha": alpha,
        }

    step_payload = None
    gamma = args.gamma if args.gamma is not None else 4.0 * grid.h
    try:
        _, step = campanato.improvement_step(u, spec, report, gamma_used=gamma)
        step_payload = {
            "gamma_used": step.gamma_used,
            "r_used": step.r_used,
            "sup_u_minus_h": step.sup_u_minus_h,
            "sup_h_minus_p": step.sup_h_minus_p,
            "sup_u_minus_p": step.sup_u_minus_p,
            "d2h_norm": step.d2h_norm,
            "d2h_bound_ok": step.d2h_bound_ok,
            "c_correction": step.c_correction,
        }
    except (ValueError, solver.SolverError) as exc:
        warnings.append(f"improvement step skipped: {exc}")

    with open(args.csv_output, "w") as fh:
        fh.write(table.to_csv())
    payload = {
        "fitted_exponent": table.fitted_exponent if table.exponent_defined else None,
        "exponent_defined": table.exponent_defined,
        "truncated": table.truncated,
        "scales": len(table.records),
        "rho": table.rho,
        "mode": table.mode,
        "certificate": {
            "measured_seminorm": cert.measured_seminorm,
            "bound": cert.bound,
            "satisfied": cert.satisfied,
            "informational": cert.informational,
            "ball_radius": cert.ball_radius,
            "alpha_used": cert.alpha_used,
        },
        "subsample_cap": subsample,
        "pointwise": pointwise_payload,
        "step_report": step_payload,
        "csv_output": args.csv_output,
        "warnings": warnings,
    }
    _emit(_json_dump(payload), args.output)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.strict and warnings:
        return EXIT_UNSATISFIED
    return EXIT_OK if cert.satisfied else EXIT_UNSATISFIED


def cmd_cordes(args) -> int:
    cfg = _load_config(args.config)
    r = _Resolver(args, cfg)
    spec = _build_spec(r)
    eps_slack = r.get("eps_slack", "analyze", "eps_slack", 1.0)
    f_bound = r.get("f_bound", "analyze", "f_bound", 0.0)

    if args.input:
        u = load_grid(args.input)
        field = cordes.linearized_field(spec, u)
        xs, ys = field.x, field.y
        keps, kepsp, cdel = field.keps, field.kepsprime, field.cordesdelta
        zero_nodes = field.zero_trace_nodes
        a_stack = np.empty((field.g11.size, 2, 2))
        a_stack[:, 0, 0] = field.g11
        a_stack[:, 0, 1] = a_stack[:, 1, 0] = field.g12
        a_stack[:, 1, 1] = field.g22
    else:
        G0 = operators.gradient(spec, np.zeros((2, 2)))
        xs = np.array([0.0])
        ys = np.array([0.0])
        ev = np.linalg.eigvalsh(G0)
        keps = np.array([cordes.k_eps_margin(ev)])
        kepsp = keps.copy()
        cdel = np.array([cordes.cordes_delta(G0)])
        zero_nodes = []
        a_stack = G0[None, :, :]

    lines = ["x,y,keps,kepsprime,cordesdelta"]
    for i in range(len(xs)):
        lines.append(",".join(repr(float(v)) for v in (xs[i], ys[i], keps[i], kepsp[i], cdel[i])))
    with open(args.csv_output, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    nirenberg = None
    deviation_ok = True
    try:
        nres = cordes.nirenberg_constants(a_stack, f_bound, eps_slack)
        nirenberg = {
            "k": nres.k,
            "k1": nres.k1,
            "max_dev_sq": nres.max_dev_sq,
            "threshold": None if math.isinf(nres.threshold) else nres.threshold,
            "threshold_ok": nres.threshold_ok,
            "note": nres.note,
        }
    except ValueError as exc:
        deviation_ok = False
        nirenberg = {"error": str(exc)}

    min_kepsp = float(np.nanmin(kepsp))
    summary = {
        "min_keps": float(np.nanmin(keps)),
        "min_kepsprime": min_kepsp,
        "min_cordes_delta": float(np.nanmin(cdel)),
        "nodes": int(len(xs)),
        "zero_trace_nodes": [list(t) for t in zero_nodes],
        "nirenberg": nirenberg,
        "csv_output": args.csv_output,
    }
    _emit(_json_dump(summary), args.output)
    ok = min_kepsp > 0.0 and deviation_ok and not zero_nodes
    return EXIT_OK if ok else EXIT_UNSATISFIED


# ---------------------------------------------------------------------------
# selftest: a reduced-scale deterministic mirror of the acceptance suite


def _selftest_checks(seed: int):
    checks = []

    def add(name, ok, value):
        checks.append({"name": name, "pass": bool(ok), "value": value})

    # constants chain at flat ellipticity
    bounds = constants.EllipticityBounds(1.0, 1.0)
    pair = constants.HolderPair(alpha_bar=0.5, alpha=0.25)
    ext = constants.ExternalConstants(K1=1.0, alpha0=0.1, C_prime=1.0, K2=1.0, C3=1.0)
    rep = constants.build_report(2, bounds, pair, ext)
    r0_ok = abs(float(rep.r0) - 2.25e-6) <= 1e-10 * 2.25e-6
    add("constants_r0", r0_ok, repr(float(rep.r0)))
    add("constants_chain", rep.all_checks_pass(),
        [c.name for c in rep.chain_checks if not c.satisfied])
    add("pointwise_factor", abs(float(constants.pointwise_factor(0.5)) - 58.62741699796952) < 1e-9,
        repr(float(constants.pointwise_factor(0.5))))

    # mollifier
    g65 = Grid2.disk(65)
    offs, w = mollifier.discrete_kernel(g65.h, 4.0 * g65.h)
    add("mollifier_mass", math.fsum(w) == 1.0, repr(math.fsum(w)))
    lin = GridFunction.from_callable(g65, lambda x, y: 0.3 + 1.2 * x - 0.7 * y)
    ml = mollifier.mollify(lin, 4.0 * g65.h)
    dev = float(np.max(np.abs(ml.values[ml.defined] - lin.values[ml.defined])))
    add("mollifier_linear_fixed_point", dev <= 1e-12, repr(dev))
    g33 = Grid2.disk(33)
    rng = np.random.Generator(np.random.Philox(key=seed))
    sup_ok = True
    for _ in range(10):
        vals = rng.standard_normal((33, 33))
        u = GridFunction(g33, np.where(g33.defined, vals, np.nan), g33.defined.copy())
        m = mollifier.mollify(u, 3.0 * g33.h)  # 4h would exceed extent/5 at N = 33
        sup_ok &= m.sup() <= u.sup()
    add("mollifier_max_norm", sup_ok, None)

    # solver
    lap = solver.solve_laplace_dirichlet(PROFILES["quadratic_saddle"], g65)
    exact = PROFILES["quadratic_saddle"](g65.X, g65.Y)
    err = float(np.max(np.abs(lap.values[lap.defined] - exact[lap.defined])))
    add("solver_quadratic", err <= 1e-8, repr(err))
    mp_ok = True
    for _ in range(10):
        gb = rng.standard_normal((33, 33))
        sol = solver.solve_laplace_dirichlet(gb, g33)
        lo = float(np.min(gb[g33.boundary]))
        hi = float(np.max(gb[g33.boundary]))
        vals = sol.values[g33.interior]
        mp_ok &= (vals.min() >= lo - 1e-10) and (vals.max() <= hi + 1e-10)
    add("solver_max_principle", mp_ok, None)
    spec0 = operators.OperatorSpec(1.25, 0.15, 1.0)
    direct = solver.solve_linear_dirichlet(spec0.W0, None, PROFILES["sine"], g33)
    fixed = solver.solve_fully_nonlinear(spec0, None, PROFILES["sine"], g33, tol=1e-11)
    diff = float(np.max(np.abs(direct.values[g33.interior] - fixed.values[g33.interior])))
    add("solver_nonlinear_match", diff <= 1e-8, repr(diff))
    g49 = Grid2.disk(49)
    spec_sine = operators.OperatorSpec(1.0, 0.0, 1.0, 0.05, "sine")
    up = solver.solve_fully_nonlinear(spec_sine, None, PROFILES["quadratic_saddle"], g49)
    add("solver_perturbed_converged", up.meta["residual"] <= up.meta["tol"],
        repr(up.meta["residual"]))

    # operators
    res_ok = True
    worst = 0.0
    for sp in operators.catalog_specs():
        rr = operators.residual_audit(sp, samples=2000, seed=seed)
        worst = max(worst, rr - sp.eps)
        res_ok &= rr <= sp.eps + 1e-15
    add("operators_residual", res_ok, repr(worst))
    nr = operators.normalize(operators.OperatorSpec(1.7, 0.3, 1.1))
    dfd = operators.fd_gradient(operators.OperatorSpec(1.7, 0.3, 1.1), np.zeros((2, 2)))
    add("operators_normalize",
        nr.identity_defect <= 1e-12
        and float(np.max(np.abs(nr.transformed.gradient(np.zeros((2, 2))) - np.eye(2)))) <= 1e-6,
        repr(nr.identity_defect))
    add("operators_fd_gradient",
        float(np.max(np.abs(dfd - operators.OperatorSpec(1.7, 0.3, 1.1).W0))) <= 1e-6, None)

    # campanato
    quad = GridFunction.from_callable(g65, lambda x, y: 1.0 + x - 2.0 * y + x * y + x**2)
    tq = campanato.campanato_iterate(quad, spec0, rho=0.5, kmax=3)
    qdev = max(rec.sup_dev for rec in tq.records)
    add("campanato_idempotence", qdev <= 1e-9 * quad.sup(), repr(qdev))
    g129 = Grid2.disk(129)
    cubic = GridFunction.from_callable(g129, PROFILES["cubic_harmonic"])
    spec_id = operators.OperatorSpec(1.0, 0.0, 1.0)
    tc = campanato.campanato_iterate(cubic, spec_id, rho=0.5, kmax=4)
    add("campanato_cubic_decay", tc.exponent_defined and tc.fitted_exponent >= 2.8,
        repr(tc.fitted_exponent))
    th = campanato.inhomogeneous_iterate(cubic, spec_id, GridFunction.zeros(g129),
                                         mu=0.5, kmax=4, alpha=0.25)
    same = all(a.sup_dev == b.sup_dev and a.poly.a == b.poly.a
               for a, b in zip(tc.records, th.records))
    add("campanato_inhomogeneous_reduction", same, None)
    cert = campanato.certificate_check(cubic, spec_id, None, rep, bounds)
    add("certificate_cubic_satisfied", cert.satisfied, repr(cert.measured_seminorm))

    # cordes
    add("cordes_exact_margins",
        cordes.k_eps_margin([1.0, 2.0]) == 8.0 / 9.0
        and cordes.cordes_delta(np.eye(2)) == 1.0
        and cordes.cordes_delta(np.eye(3)) == 1.0
        and cordes.kprime_prefactor(3) == 2.75,
        repr(cordes.k_eps_margin([1.0, 2.0])))
    wavy = GridFunction.from_callable(g33, lambda x, y: np.sin(x) * np.sin(y))
    add("cordes_hessian_identity", cordes.hessian_identity_check(wavy) <= 1e-10,
        repr(cordes.hessian_identity_check(wavy)))

    return checks


def cmd_selftest(args) -> int:
    seed = args.seed if args.seed is not None else 12345
    checks = _selftest_checks(seed)
    payload = {
        "suite": "ellreg-selftest",
        "seed": seed,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    _emit(_json_dump(payload), args.output)
    return EXIT_OK if payload["all_pass"] else EXIT_UNSATISFIED


# ---------------------------------------------------------------------------
# argument parsing


def _add_config(p):
    p.add_argument("--config", help="INI config file; flags override file values")


def _add_float(p, *names, **kw):
    p.add_argument(*names, type=float, default=None, **kw)


def _add_operator_flags(p):
    _add_float(p, "--w11")
    _add_float(p, "--w12")
    _add_float(p, "--w22")
    _add_float(p, "--eps")
    p.add_argument("--perturbation", choices=operators.PERTURBATIONS, default=None)


def _add_grid_flags(p):
    p.add_argument("--grid-shape", dest="grid_shape", choices=("disk", "square"), default=None)
    p.add_argument("-N", "--grid-n", dest="grid_n", type=int, default=None)
    _add_float(p, "--extent")


def _add_solve_flags(p):
    p.add_argument("--boundary", default=None, help=f"boundary profile: {sorted(PROFILES)}")
    p.add_argument("--source", default=None, help="source profile (zero for homogeneous)")
    p.add_argument("--source-file", dest="source_file", default=None,
                   help="load the source term from a grid file instead of a profile")
    _add_float(p, "--tol")
    p.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=None)


def _add_constants_flags(p):
    p.add_argument("-n", dest="n", type=int, default=None)
    _add_float(p, "--lambda", dest="lam")
    _add_float(p, "--Lambda", dest="Lam")
    _add_float(p, "--alpha-bar", dest="alpha_bar")
    _add_float(p, "--alpha", dest="alpha")
    _add_float(p, "--K1", dest="K1")
    _add_float(p, "--alpha0", dest="alpha0")
    _add_float(p, "--C-prime", dest="C_prime")
    _add_float(p, "--K2", dest="K2")
    _add_float(p, "--C3", dest="C3")
    p.add_argument("--c0-variant", dest="c0_variant", choices=("proof", "statement"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellreg",
        description="Explicit-constants regularity toolkit for almost-linear elliptic equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="evaluate the universal-constants chain")
    _add_config(p)
    _add_constants_flags(p)
    p.add_argument("--output", "-o", default=None, help="write JSON here (default stdout)")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("solve", help="solve F(D^2 u) = f with Dirichlet data")
    _add_config(p)
    _add_grid_flags(p)
    _add_operator_flags(p)
    _add_solve_flags(p)
    p.add_argument("--output", "-o", default="solution.grid", help="solution grid file")
    p.add_argument("--summary", default=None, help="write summary JSON here (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="decay table, certificate, improvement step")
    _add_config(p)
    _add_grid_flags(p)
    _add_operator_flags(p)
    _add_solve_flags(p)
    _add_constants_flags(p)
    p.add_argument("--input", help="solution grid file (otherwise solve in-process)")
    _add_float(p, "--rho")
    p.add_argument("--kmax", type=int, default=None)
    _add_float(p, "--gamma")
    p.add_argument("--subsample", type=int, default=None)
    p.add_argument("--pointwise", action="store_true",
                   help="add the per-center certified Hoelder bound (centers whose fit ball "
                        "lies on defined nodes share one least-squares design)")
    p.add_argument("--strict", action="store_true", help="warnings become exit code 1")
    p.add_argument("--csv-output", dest="csv_output", default="decay.csv")
    p.add_argument("--output", "-o", default=None, help="certificate JSON (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cordes", help="spread-condition margins of the linearized field")
    _add_config(p)
    _add_operator_flags(p)
    p.add_argument("--input", help="solution grid file (otherwise audit at the zero Hessian)")
    _add_float(p, "--eps-slack", dest="eps_slack")
    _add_float(p, "--f-bound", dest="f_bound")
    p.add_argument("--csv-output", dest="csv_output", default="cordes.csv")
    p.add_argument("--output", "-o", default=None, help="summary JSON (default stdout)")
    p.set_defaults(func=cmd_cordes)

    p = sub.add_parser("selftest", help="reduced-scale deterministic acceptance mirror")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, configparser.Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except solver.SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
