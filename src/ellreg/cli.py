"""Command-line orchestration for reproducible analysis runs.

Subcommands: constants, solve, analyze, cordes, selftest.  Run parameters
come from an INI-style config file (sections [grid], [operator], [constants],
[solve], [analyze]) with command-line flags overriding file values; a key
that no subcommand declares is rejected, so one config file serves them all.
All outputs are deterministic: identical config plus seed yields byte
identical files.  Randomized audits draw from counter-based Philox
generators keyed by the single 64-bit run seed.

Exit codes: 0 success / condition satisfied; 1 condition not satisfied;
2 usage or validation error (including an unknown config key, a config value
its type rejects, analyze on an even N, which has no center node, analyze
with a [constants] n other than 2 or with an operator whose ellipticity
bounds fall outside the [constants] lambda/Lambda, a source grid file whose
shape, N or extent differs from the run's, a grid file with an infinite
value, a non-finite operator weight or eps, a tol that is not positive and
finite, a negative max_sweeps, a --gamma that is not positive and finite, a
--rho outside (0,1), a negative --kmax, constants inputs the chain rejects,
and an eps_slack or f_bound that cordes cannot use); 3 numerical failure.
analyze checks its settings and builds its one constants report before it
loads or solves anything.

Start-up: this module imports only the standard library, and each cmd_*
imports the ellreg modules it runs, so constants loads mpmath and no numpy,
solve and cordes load no mpmath, and cordes without --input no solver or
grid module.  The parser reads no numpy module: the operator checks --perturbation.

selftest runs the acceptance check registry (ellreg.checks) at its reduced
scale, with every Philox key set to the run seed.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import json
import math
import sys

EXIT_OK = 0
EXIT_UNSATISFIED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Field profiles (x, y) -> values for --boundary and --source, each taking
# numpy first: _profile hands it in, so the parser lists the names without it.
PROFILES = {
    "zero": lambda np, x, y: np.zeros_like(x),
    "one": lambda np, x, y: np.ones_like(x),
    "quadratic_saddle": lambda np, x, y: x**2 - y**2,
    "quadratic_bowl": lambda np, x, y: x**2 + y**2,
    "cubic_harmonic": lambda np, x, y: x**3 - 3.0 * x * y**2,
    "quartic": lambda np, x, y: x**4,
    "sine": lambda np, x, y: np.sin(2.0 * x) * np.cos(y),
    "radial_sqrt": lambda np, x, y: np.hypot(x, y) ** 0.5,
    "poisson_quartic": lambda np, x, y: 12.0 * x**2,
}


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    # Keys are case-sensitive: [constants] needs both lambda and Lambda.
    cfg.optionxform = str
    if path:
        with open(path) as fh:
            cfg.read_file(fh, source=path)
    return cfg


def _profile(name: str):
    if name not in PROFILES:
        raise ValueError(f"unknown field profile {name!r}; choose from {sorted(PROFILES)}")
    import numpy  # deferred: only a run that builds a field needs it

    return functools.partial(PROFILES[name], numpy)


def _build_spec(args):
    from . import operators

    return operators.OperatorSpec(args.w11, args.w12, args.w22, args.eps, args.perturbation)


def _constants_report(args):
    """The run's one constants report, from its [constants] parameters."""
    from . import constants

    return constants.build_report(
        args.n, constants.EllipticityBounds(args.lam, args.Lam),
        constants.HolderPair(args.alpha_bar, args.alpha),
        constants.ExternalConstants(args.K1, args.alpha0, args.C_prime, args.K2, args.C3),
        args.c0_variant)


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(args) -> int:
    from . import constants

    report = _constants_report(args)
    _emit(constants.report_to_json(report), args.output)
    return EXIT_OK if report.all_checks_pass() else EXIT_UNSATISFIED


def _source(args, grid):
    """The source on grid's lattice (--source-file, else --source); None when it is zero."""
    from .grid import GridFunction, load_grid

    if args.source_file:
        f = load_grid(args.source_file)
        if (f.grid.shape, f.grid.N, f.grid.extent) != (grid.shape, grid.N, grid.extent):
            raise ValueError("source grid file does not match the run lattice")
        return f if f.values[f.defined].any() else None
    return None if args.source == "zero" else GridFunction.from_callable(grid, _profile(args.source))


def _solve_from_args(args, spec, grid):
    from . import solver

    g = _profile(args.boundary)
    f = _source(args, grid)
    u = solver.solve_fully_nonlinear(spec, f, g, grid, tol=args.tol, max_sweeps=args.max_sweeps)
    return f, u


def cmd_solve(args) -> int:
    from . import operators
    from .grid import Grid2, save_grid

    grid = Grid2(args.grid_shape, args.grid_n, args.extent)
    spec = _build_spec(args)
    f, u = _solve_from_args(args, spec, grid)
    save_grid(args.output, u)
    summary = {
        "final_residual": u.meta["residual"],
        "sweeps": u.meta["sweeps"],
        "newton_steps": u.meta["newton_steps"],
        "mg_iterations": u.meta["mg_iterations"],
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
    # every setting is checked, and the report built, before anything is loaded or solved;
    # improvement_step's own gamma errors become warnings, so a meaningless value stops here
    if args.gamma is not None and not 0 < args.gamma < math.inf:
        raise ValueError(f"--gamma must be positive and finite, got {args.gamma!r}")
    if not 0 < args.rho < 1:
        raise ValueError(f"--rho must lie in (0,1), got {args.rho!r}")
    if args.kmax < 0:
        raise ValueError(f"--kmax must be nonnegative, got {args.kmax!r}")
    if args.n != 2:
        raise ValueError(f"analyze runs on a 2-D lattice: [constants] n must be 2, got {args.n!r}")
    from . import campanato, operators, solver
    from .grid import Grid2, load_grid

    spec = _build_spec(args)
    report = _constants_report(args)
    bounds = report.bounds
    eff = operators.effective_bounds(spec)
    if eff.lam < bounds.lam * (1.0 - 1e-12) or eff.Lam > bounds.Lam * (1.0 + 1e-12):
        raise ValueError(
            f"operator bounds (lambda, Lambda) = ({eff.lam!r}, {eff.Lam!r}) fall outside "
            f"the certificate's [constants] bounds ({bounds.lam!r}, {bounds.Lam!r})")
    warnings: list[str] = []
    if args.input:
        u = load_grid(args.input)
        grid = u.grid
    else:
        grid = Grid2(args.grid_shape, args.grid_n, args.extent)
    if grid.N % 2 == 0:
        raise ValueError(f"analyze needs a center node: N must be odd, got {grid.N}")
    if args.input:
        f = _source(args, grid)
    else:
        f, u = _solve_from_args(args, spec, grid)

    table = campanato.campanato_iterate(u, spec, rho=args.rho, kmax=args.kmax, f=f,
                                        alpha=args.alpha)
    if table.truncated:
        warnings.append(f"decay table truncated: scale {len(table.records)} under-resolved")

    cert = campanato.certificate_check(u, spec, f, report, bounds)

    pointwise_payload = None
    if args.pointwise:
        coef, K = campanato.pointwise_fit_constants(u, args.alpha)
        pointwise_payload = {
            "certified_bound": campanato.pointwise_to_holder(K, args.alpha),
            "centers": coef.shape[1],
            "alpha": args.alpha,
        }

    step_payload = None
    try:
        _, step = campanato.improvement_step(u, spec, report, gamma_used=args.gamma)
        step_payload = dataclasses.asdict(step)
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
        "certificate": dataclasses.asdict(cert),
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
    import numpy as np

    from . import cordes

    spec = _build_spec(args)
    u = None
    if args.input:
        from .grid import load_grid  # deferred: the zero-Hessian audit reads no grid
        u = load_grid(args.input)
    field = cordes.linearized_field(spec, u)
    a_stack = np.empty((field.x.size, 2, 2))
    a_stack[:, 0, 0], a_stack[:, 1, 1] = field.g11, field.g22
    a_stack[:, 0, 1] = a_stack[:, 1, 0] = field.g12
    try:
        nres = cordes.nirenberg_constants(a_stack, args.f_bound, args.eps_slack)
        nirenberg = {
            "k": nres.k,
            "k1": nres.k1,
            "max_dev_sq": nres.max_dev_sq,
            "threshold": None if math.isinf(nres.threshold) else nres.threshold,
            "threshold_ok": nres.threshold_ok,
            "note": nres.note,
        }
    except cordes.DeviationError as exc:
        nirenberg = {"error": str(exc)}

    # a node's x and y are entries of the increasing lattice coordinates xs (the
    # one zero without a grid): each entry is formatted once, taken by its index
    xs = np.zeros(1) if u is None else u.grid.xs
    text = np.array([repr(v) for v in xs.tolist()], dtype=object)
    # in 2-D the trace-form margin k'_eps equals k_eps, so keps fills both columns
    lines = ["x,y,keps,kepsprime,cordesdelta"]
    lines += [f"{x},{y},{k},{k},{d}" for x, y, k, d in
              zip(*(text[np.searchsorted(xs, a)] for a in (field.x, field.y)),
                  *(map(repr, a.tolist()) for a in (field.keps, field.cordesdelta)))]
    with open(args.csv_output, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    summary = {
        "min_keps": field.min_keps,
        "min_kepsprime": field.min_keps,
        "min_cordes_delta": field.min_cordes_delta,
        "nodes": int(len(field.x)),
        "zero_trace_nodes": [list(t) for t in field.zero_trace_nodes],
        "nirenberg": nirenberg,
        "csv_output": args.csv_output,
    }
    _emit(_json_dump(summary), args.output)
    ok = field.min_keps > 0.0 and "error" not in nirenberg and not field.zero_trace_nodes
    return EXIT_OK if ok else EXIT_UNSATISFIED


# ---------------------------------------------------------------------------
# selftest: the acceptance check registry at reduced scale


def cmd_selftest(args) -> int:
    from . import checks

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


def _p(*flags, default, type=float, key=None, **kw):
    """One run parameter: its flags, config key (by default the last flag's name),
    type, fallback and further add_argument keywords."""
    return flags, key or flags[-1].lstrip("-").replace("-", "_"), type, default, kw


# Every run parameter is declared once, in a (config section, parameters) group.
# main fills each one the command line leaves unset from its key in the
# --config file, cast by its type, or else with its fallback.
_GRID = ("grid", (
    _p("--grid-shape", key="shape", default="disk", type=str, choices=("disk", "square")),
    _p("-N", "--grid-n", key="n", default=129, type=int),
    _p("--extent", default=1.0),
))
_OPERATOR = ("operator", (
    _p("--w11", default=1.0),
    _p("--w12", default=0.0),
    _p("--w22", default=1.0),
    _p("--eps", default=0.0),
    _p("--perturbation", default="none", type=str,
       help="perturbation phi of the operator catalog (ellreg.operators.PERTURBATIONS)"),
))
_SOLVE = ("solve", (
    _p("--boundary", default="quadratic_saddle", type=str,
       help=f"boundary profile: {sorted(PROFILES)}"),
    _p("--source", default="zero", type=str, help="source profile (zero for homogeneous)"),
    _p("--source-file", default=None, type=str,
       help="load the source term from a grid file instead of a profile"),
    _p("--tol", default=None),
    _p("--max-sweeps", default=1_000_000, type=int),
))
_CONSTANTS = ("constants", (
    _p("-n", default=2, type=int),
    _p("--lambda", dest="lam", default=1.0),
    _p("--Lambda", dest="Lam", default=1.0),
    _p("--alpha-bar", default=0.5),
    _p("--alpha", default=0.25),
    _p("--K1", default=1.0),
    _p("--alpha0", default=0.1),
    _p("--C-prime", default=1.0),
    _p("--K2", default=1.0),
    _p("--C3", default=1.0),
    _p("--c0-variant", default="proof", type=str, choices=("proof", "statement")),
))
_ANALYZE = ("analyze", (
    _p("--rho", default=0.5),
    _p("--kmax", default=4, type=int),
))
_CORDES = ("analyze", (  # cordes reads its two bounds from [analyze]
    _p("--eps-slack", default=1.0),
    _p("--f-bound", default=0.0),
))
_CONFIG_KEYS = {(section, key) for section, params in
                (_GRID, _OPERATOR, _SOLVE, _CONSTANTS, _ANALYZE, _CORDES)
                for _, key, *_ in params}


def _add_params(p, *groups):
    p.add_argument("--config", help="INI config file; flags override file values")
    params = []
    for section, decls in groups:
        for flags, key, cast, default, kw in decls:
            dest = p.add_argument(*flags, type=cast, default=None, **kw).dest
            params.append((dest, section, key, cast, default))
    p.set_defaults(params=params)


def _resolve(args) -> None:
    """Set every run parameter the command line left unset from the --config
    file, cast by its type, or else to its fallback.  A key no subcommand
    declares, or a value its type rejects, is a ValueError naming the file."""
    cfg = _load_config(args.config)
    # [DEFAULT] comes first: its keys would otherwise pass as keys of every section
    for section in cfg:
        for key in cfg[section]:
            if (section, key) not in _CONFIG_KEYS:
                raise ValueError(f"{args.config}: unknown config key [{section}] {key}")
    for dest, section, key, cast, default in args.params:
        if getattr(args, dest) is not None:
            continue
        if cfg.has_option(section, key):
            try:
                default = cast(cfg.get(section, key))
            except ValueError as exc:
                raise ValueError(f"{args.config}: [{section}] {key}: {exc}") from None
        setattr(args, dest, default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellreg",
        description="Explicit-constants regularity toolkit for almost-linear elliptic equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="evaluate the universal-constants chain")
    _add_params(p, _CONSTANTS)
    p.add_argument("--output", "-o", default=None, help="write JSON here (default stdout)")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("solve", help="solve F(D^2 u) = f with Dirichlet data")
    _add_params(p, _GRID, _OPERATOR, _SOLVE)
    p.add_argument("--output", "-o", default="solution.grid", help="solution grid file")
    p.add_argument("--summary", default=None, help="write summary JSON here (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="decay table, certificate, improvement step")
    _add_params(p, _GRID, _OPERATOR, _SOLVE, _CONSTANTS, _ANALYZE)
    p.add_argument("--input", help="solution grid file (otherwise solve in-process); "
                                   "the source still comes from --source or --source-file")
    p.add_argument("--gamma", type=float)
    p.add_argument("--pointwise", action="store_true",
                   help="add the certified Hoelder bound from pointwise quadratic fits "
                        "about the centers near the origin")
    p.add_argument("--strict", action="store_true", help="warnings become exit code 1")
    p.add_argument("--csv-output", dest="csv_output", default="decay.csv")
    p.add_argument("--output", "-o", default=None, help="certificate JSON (default stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("cordes", help="spread-condition margins of the linearized field")
    _add_params(p, _OPERATOR, _CORDES)
    p.add_argument("--input", help="solution grid file (otherwise audit at the zero Hessian)")
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
        if hasattr(args, "params"):
            _resolve(args)
        return args.func(args)
    except (ValueError, configparser.Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        from .solver import SolverError  # deferred: only a run that solves can raise it

        if not isinstance(exc, SolverError):
            raise
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
