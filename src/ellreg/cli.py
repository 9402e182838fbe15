"""Command-line orchestration for reproducible analysis runs.

Subcommands: constants, solve, analyze, cordes, selftest.  Run parameters
come from an INI-style config file (sections [grid], [operator], [constants],
[solve], [analyze], [run]) with command-line flags overriding file values.
All outputs are deterministic: identical config plus seed yields byte
identical files.  Randomized audits draw from counter-based Philox
generators keyed by the single 64-bit run seed.

Exit codes: 0 success / condition satisfied; 1 condition not satisfied;
2 usage or validation error (including analyze on an even N, which has no
center node, analyze with an operator whose ellipticity bounds fall outside
the [constants] lambda/Lambda, and a grid file with an infinite value);
3 numerical failure.

selftest runs the acceptance check registry (ellreg.checks) at its reduced
scale, with every Philox key set to the run seed.

analyze --pointwise fits the quadratics of all centers whose fit ball lies on
defined nodes together (one shared design matrix, ball membership decided in
integer lattice offsets) and fits each center with a clipped ball alone; the
per-center constants K_c read their distances from one table over integer
lattice offsets.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys

import numpy as np

from . import campanato, checks, constants, cordes, operators, solver
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
    # Keys are case-sensitive: [constants] needs both lambda and Lambda.
    cfg.optionxform = str
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


def _solve_from_config(r: _Resolver, grid: Grid2):
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
    return spec, f, u


def cmd_solve(args) -> int:
    cfg = _load_config(args.config)
    r = _Resolver(args, cfg)
    grid = _build_grid(r)
    spec, f, u = _solve_from_config(r, grid)
    save_grid(args.output, u)
    summary = {
        "final_residual": u.meta["residual"],
        "sweeps": u.meta["sweeps"],
        "jacobian_refactors": u.meta["jacobian_refactors"],
        "factor_nnz": u.meta["factor_nnz"],
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
    n, bounds, pair, ext, variant = _build_constants_inputs(r)
    eff = operators.effective_bounds(spec)
    if eff.lam < bounds.lam * (1.0 - 1e-12) or eff.Lam > bounds.Lam * (1.0 + 1e-12):
        raise ValueError(
            f"operator bounds (lambda, Lambda) = ({eff.lam!r}, {eff.Lam!r}) fall outside "
            f"the certificate's [constants] bounds ({bounds.lam!r}, {bounds.Lam!r})")
    warnings: list[str] = []
    if args.input:
        u, f = load_grid(args.input), None
        grid = u.grid
    else:
        grid = _build_grid(r)
    if grid.N % 2 == 0:
        raise ValueError(f"analyze needs a center node: N must be odd, got {grid.N}")
    if not args.input:
        spec, f, u = _solve_from_config(r, grid)

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
            "factor_nnz": step.factor_nnz,
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
        field = cordes.linearized_field(spec, load_grid(args.input))
        xs, ys, entries = field.x, field.y, (field.g11, field.g12, field.g22)
        keps, cdel, zero_nodes = field.keps, field.cordesdelta, field.zero_trace_nodes
    else:  # DF at the zero Hessian, one node at the origin
        entries = operators.gradient_batch(spec, *np.zeros((3, 1)))
        xs = ys = np.array([0.0])
        keps, cdel, _ = cordes.margins_2x2(*entries)
        zero_nodes = []
    a_stack = np.empty((xs.size, 2, 2))
    a_stack[:, 0, 0], a_stack[:, 1, 1] = entries[0], entries[2]
    a_stack[:, 0, 1] = a_stack[:, 1, 0] = entries[1]

    # in 2-D the trace-form margin k'_eps equals k_eps, so keps fills both columns
    lines = ["x,y,keps,kepsprime,cordesdelta"]
    lines += [f"{x},{y},{k},{k},{d}" for x, y, k, d in
              zip(*(map(repr, np.asarray(a, dtype=float).tolist()) for a in (xs, ys, keps, cdel)))]
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

    min_keps = float(np.nanmin(keps))
    summary = {
        "min_keps": min_keps,
        "min_kepsprime": min_keps,
        "min_cordes_delta": float(np.nanmin(cdel)),
        "nodes": int(len(xs)),
        "zero_trace_nodes": [list(t) for t in zero_nodes],
        "nirenberg": nirenberg,
        "csv_output": args.csv_output,
    }
    _emit(_json_dump(summary), args.output)
    ok = min_keps > 0.0 and deviation_ok and not zero_nodes
    return EXIT_OK if ok else EXIT_UNSATISFIED


# ---------------------------------------------------------------------------
# selftest: the acceptance check registry at reduced scale


def cmd_selftest(args) -> int:
    seed = args.seed if args.seed is not None else 12345
    records = [rec for criterion in checks.CRITERIA.values()
               for rec in criterion(checks.REDUCED, seed)]
    payload = {
        "suite": "ellreg-selftest",
        "seed": seed,
        "checks": records,
        "all_pass": all(c["pass"] for c in records),
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

    p = sub.add_parser("selftest", help="the acceptance check registry at reduced scale")
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
