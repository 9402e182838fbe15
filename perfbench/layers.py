"""Traced in-process run: spans around the calls into each ellreg module.

The tracer replaces, for the length of the run, the public functions of each
module with wrappers that record a span (name, parent, start, end) per call;
every binding of the function inside the ``ellreg`` package is replaced, so
``from .grid import save_grid`` call sites are caught too.  Nothing inside
``src/`` changes.  Spans stay in memory and are aggregated when the run ends.

A traced run of a workload times, in one process:

* a replay of the workload's ops through ``ellreg.cli.main(argv)``, one
  ``cli.main`` span per op, with the layer spans beneath it;
* the seeded input generation (grid build and save);
* a fixed probe of every layer at small size, identical on every workload,
  so that each per-layer metric has a value on each workload;
* a ladder of direct linear solves over N in {65, 129, 257, 513} for the
  5-point and the 9-point stencil;
* interpreter start and ``import ellreg.cli`` in fresh processes.

A per-layer metric is the total time of that layer's spans over the traced
run (replay, generation and probe together); ``cli.main_s`` covers the
replay alone, so ``wall_s - cli.main_s`` is the process start, import and
I/O share of a pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import math
import os
import statistics
import sys
import time

import numpy as np

from workloads import BOUNDARY, OpResult, run_child

# (span name, module, attribute, only rebind inside this module or None)
LAYERS = [
    ("grid.build", "ellreg.grid", "Grid2.__init__", None),
    ("grid.load", "ellreg.grid", "load_grid", None),
    ("grid.save", "ellreg.grid", "save_grid", None),
    ("operators.evaluate_batch", "ellreg.operators", "evaluate_batch", None),
    ("operators.gradient_batch", "ellreg.operators", "gradient_batch", None),
    ("operators.residual_audit", "ellreg.operators", "residual_audit", None),
    ("solver.hessian", "ellreg.solver", "hessian", None),
    ("solver.linear", "ellreg.solver", "solve_linear_dirichlet", None),
    ("solver.nonlinear", "ellreg.solver", "solve_fully_nonlinear", None),
    ("mollifier.discrete_kernel", "ellreg.mollifier", "discrete_kernel", None),
    ("mollifier.mollify", "ellreg.mollifier", "mollify", None),
    ("campanato.replace", "ellreg.solver", "solve_laplace_dirichlet", "ellreg.campanato"),
    ("campanato.improvement_step", "ellreg.campanato", "improvement_step", None),
    ("campanato.iterate", "ellreg.campanato", "campanato_iterate", None),
    ("campanato.iterate", "ellreg.campanato", "inhomogeneous_iterate", None),
    ("campanato.certificate", "ellreg.campanato", "certificate_check", None),
    ("campanato.pointwise", "ellreg.campanato", "pointwise_fit_constants", None),
    ("cordes.linearized_field", "ellreg.cordes", "linearized_field", None),
    ("cordes.nirenberg", "ellreg.cordes", "nirenberg_constants", None),
    ("constants.build_report", "ellreg.constants", "build_report", None),
    ("constants.report_to_json", "ellreg.constants", "report_to_json", None),
]

LADDER_N = (65, 129, 257, 513)
# 9-point means the cross coefficient w12 = 0.15, with the w11 of the square solve op.
LADDER_STENCILS = (("5pt", (1.0, 0.0, 1.0)), ("9pt", (1.25, 0.15, 1.0)))

# (metric, span name whose total time it reports)
TIME_METRICS = [
    ("cli.main_s", "cli.main"),
    ("grid.save_s", "grid.save"),
    ("grid.load_s", "grid.load"),
    ("grid.build_s", "grid.build"),
    ("operators.evaluate_batch_s", "operators.evaluate_batch"),
    ("operators.gradient_batch_s", "operators.gradient_batch"),
    ("operators.residual_audit_s", "operators.residual_audit"),
    ("solver.nonlinear_s", "solver.nonlinear"),
    ("solver.hessian_s", "solver.hessian"),
    ("mollifier.discrete_kernel_s", "mollifier.discrete_kernel"),
    ("mollifier.mollify_s", "mollifier.mollify"),
    ("campanato.improvement_step_s", "campanato.improvement_step"),
    ("campanato.replace_s", "campanato.replace"),
    ("campanato.iterate_s", "campanato.iterate"),
    ("campanato.certificate_s", "campanato.certificate"),
    ("campanato.pointwise_s", "campanato.pointwise"),
    ("cordes.linearized_field_s", "cordes.linearized_field"),
    ("cordes.nirenberg_s", "cordes.nirenberg"),
    ("constants.build_report_s", "constants.build_report"),
    ("constants.report_to_json_s", "constants.report_to_json"),
] + [(f"solver.linear_{s}_N{n}_s", f"ladder.{s}_N{n}") for n in LADDER_N for s, _ in LADDER_STENCILS]

# (metric, span name, span attribute summed over the spans)
COUNT_METRICS = [
    ("grid.file_bytes", "grid.save", "bytes"),
    ("solver.nonlinear_sweeps", "solver.nonlinear", "sweeps"),
    ("mollifier.kernel_nodes", "mollifier.mollify", "kernel_nodes"),
    ("campanato.holder_pairs", "campanato.certificate", "holder_pairs"),
    ("campanato.pointwise_centers", "campanato.pointwise", "centers"),
    ("campanato.pointwise_evals", "campanato.pointwise", "evals"),
    ("cordes.nodes", "cordes.linearized_field", "nodes"),
]


class Tracer:
    """In-memory span recorder; a span is [name, parent index, start, end, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = True
        self._restore = []
        self.unwrapped = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None, attrs]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        except Exception as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record no spans."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if hook is not None:
                with self.paused():
                    try:
                        rec[4].update(hook(fn, args, kwargs, result))
                    except Exception as exc:  # a count is lost, the call is not
                        rec[4]["hook_error"] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    def install(self):
        """Wrap every function in LAYERS; a missing one is listed in ``unwrapped``."""
        importlib.import_module("ellreg.cli")  # bind the CLI's imports before wrapping
        for name, modname, attr, only_in in LAYERS:
            module = importlib.import_module(modname)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.unwrapped.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(name, fn, HOOKS.get(name))
            if owner_name:
                self._rebind(owner, leaf, wrapped)
                continue
            for modkey, mod in list(sys.modules.items()):
                if mod is None or not (modkey == "ellreg" or modkey.startswith("ellreg.")):
                    continue
                if only_in is not None and modkey != only_in:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, wrapped)

    def _rebind(self, target, key, value):
        self._restore.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def uninstall(self):
        for target, key, value in reversed(self._restore):
            setattr(target, key, value)
        self._restore.clear()

    def aggregate(self) -> dict:
        """Per span name: call count, total (inclusive) time, self time, summed counts."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = {}
        for i, (name, _, t0, t1, attrs) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "errors": 0, "attrs": {}})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            agg["errors"] += "error" in attrs
            for key, value in attrs.items():
                if isinstance(value, str):  # labels and errors, not counts
                    continue
                sums = agg["attrs"]
                sums[key] = None if value is None or sums.get(key, 0) is None else sums.get(key, 0) + value
        return out


# ---------------------------------------------------------------------------
# counts read at the layer boundary


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _save_hook(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _nonlinear_hook(fn, args, kwargs, result):
    return {"sweeps": getattr(result, "meta", {}).get("sweeps")}


def _mollify_hook(fn, args, kwargs, result):
    return {"kernel_nodes": getattr(result, "meta", {}).get("kernel_nodes")}


def _pointwise_hook(fn, args, kwargs, result):
    u = _bound(fn, args, kwargs)["u"]
    return {"centers": len(result), "evals": len(result) * int(u.defined.sum())}


def _cordes_hook(fn, args, kwargs, result):
    return {"nodes": int(len(result.x))}


def _sampled_nodes(mask: np.ndarray, max_nodes: int) -> int:
    ii, jj = np.nonzero(mask)
    stride = max(1, math.ceil(math.sqrt(len(ii) / max_nodes)))
    return int(((ii % stride == 0) & (jj % stride == 0)).sum())


def _certificate_hook(fn, args, kwargs, result):
    """Distinct node pairs the pairwise Hoelder seminorms compare, computed
    from the same node subsample the certificate draws."""
    from ellreg.solver import hessian

    a = _bound(fn, args, kwargs)
    u, f, cap = a["u"], a["f"], a["subsample"]
    g = u.grid
    ball = np.hypot(g.X, g.Y) <= result.ball_radius * (1.0 + 1e-12)
    k = _sampled_nodes(hessian(u).mask & ball, cap)
    pairs = k * (k - 1) // 2
    if result.informational and f is not None:
        kf = _sampled_nodes(f.defined, 1089)
        pairs += kf * (kf - 1) // 2
    return {"holder_pairs": pairs}


HOOKS = {
    "grid.save": _save_hook,
    "solver.nonlinear": _nonlinear_hook,
    "mollifier.mollify": _mollify_hook,
    "campanato.pointwise": _pointwise_hook,
    "cordes.linearized_field": _cordes_hook,
    "campanato.certificate": _certificate_hook,
}


# ---------------------------------------------------------------------------
# fixed probe and linear ladder


def probe(tracer: Tracer, seed: int, where) -> list:
    """One small call into every layer (disk N=65); returns an OpResult per step."""
    from ellreg import campanato, constants, cordes, mollifier, operators, solver
    from ellreg.grid import Grid2, GridFunction, load_grid, save_grid

    steps = []

    def step(name, fn):
        t0, error, value = time.perf_counter(), None, None
        try:
            with tracer.span(f"probe.{name}"):
                value = fn()
        except Exception as exc:  # recorded as a failed step; keep probing the other layers
            error = f"{type(exc).__name__}: {exc}"
        steps.append(OpResult(f"probe.{name}", "probe", time.perf_counter() - t0, 0.0, error))
        return value

    spec = operators.OperatorSpec(1.0, 0.0, 1.0, 0.05, "sine")
    bounds = constants.EllipticityBounds(1.0, 1.0)
    pair = constants.HolderPair(alpha_bar=0.5, alpha=0.25)
    ext = constants.ExternalConstants(K1=1.0, alpha0=0.1, C_prime=1.0, K2=1.0, C3=1.0)
    path = where / "probe.grid"

    def grid_io():
        g = Grid2("disk", 65)
        save_grid(path, GridFunction.from_callable(g, lambda x, y: x**3 - 3.0 * x * y**2 + 0.1 * x * y))
        return load_grid(path)

    def constants_report():
        report = constants.build_report(2, bounds, pair, ext)
        constants.report_to_json(report)
        return report

    u = step("grid", grid_io)
    report = step("constants", constants_report)
    step("nonlinear", lambda: solver.solve_fully_nonlinear(spec, None, BOUNDARY["sine"], Grid2("disk", 33)))
    step("residual_audit", lambda: operators.residual_audit(spec, samples=2000, seed=seed))
    step("kernel", lambda: mollifier.discrete_kernel(1.0 / 32.0, 4.0 / 32.0))
    if u is not None:
        def gradient():
            H = solver.hessian(u)
            return operators.gradient_batch(spec, H.h11[H.mask], H.h12[H.mask], H.h22[H.mask])

        def nirenberg():
            field = cordes.linearized_field(spec, u)
            a = np.repeat(np.eye(2)[None], len(field.x), axis=0)
            return cordes.nirenberg_constants(a, 0.0, 1.0)

        step("gradient", gradient)
        step("cordes", nirenberg)
        step("iterate", lambda: campanato.campanato_iterate(u, spec, rho=0.5, kmax=3))
        step("pointwise", lambda: campanato.pointwise_fit_constants(u, 0.25, region_radius=0.1))
        if report is not None:
            step("certificate", lambda: campanato.certificate_check(u, spec, None, report, bounds))
            step("improvement", lambda: campanato.improvement_step(u, spec, report))
    return steps


def ladder(tracer: Tracer) -> tuple:
    """Direct solves of tr(W0 D^2_h u) = 0 with the sine boundary on the disk.

    A solve that raises (its residual contract failed) is kept in the ladder,
    timed to the raise and returned; it is not a benchmark failure.
    """
    from ellreg import solver
    from ellreg.grid import Grid2

    failures = []
    for n in LADDER_N:
        g = Grid2("disk", n)
        for stencil, (w11, w12, w22) in LADDER_STENCILS:
            W0 = np.array([[w11, w12], [w12, w22]])
            try:
                with tracer.span(f"ladder.{stencil}_N{n}"):
                    solver.solve_linear_dirichlet(W0, None, BOUNDARY["sine"], g)
            except solver.SolverError as exc:
                failures.append(f"{stencil} N={n}: {exc}")
    return failures


def import_times(python: str, env: dict, cwd, repeats: int = 5) -> dict:
    """Median wall time of a bare interpreter start and of ``import ellreg.cli``."""
    out = {}
    for metric, code in (("import.python_s", "pass"), ("import.ellreg_cli_s", "import ellreg.cli")):
        walls = []
        for _ in range(repeats):
            wall, _, status = run_child([python, "-c", code], env, cwd, cwd / "import.log")
            if status != 0:
                raise RuntimeError(f"{python} -c {code!r} exited with {status}")
            walls.append(wall)
        out[metric] = statistics.median(walls)
    return out


# ---------------------------------------------------------------------------
# the traced run


def replay(tracer: Tracer, op) -> tuple:
    """Run one op through ``ellreg.cli.main`` in this process; returns (exit code, seconds)."""
    import ellreg.cli as cli

    for p in op.outputs:
        p.unlink(missing_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with tracer.span("cli.main", op=op.name) as rec:
            code = cli.main(list(op.args))
    return code, rec[3] - rec[2]


def layer_metrics(agg: dict, imports: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from the span aggregates;
    metric -> (value, unit)."""
    metrics = {}
    for metric, span in TIME_METRICS:
        metrics[metric] = (agg.get(span, {}).get("total_s", 0.0), "s")
    for metric, span, attr in COUNT_METRICS:
        metrics[metric] = (agg.get(span, {}).get("attrs", {}).get(attr, 0), "count")
    for metric, value in imports.items():
        metrics[metric] = (value, "s")
    sweeps = metrics["solver.nonlinear_sweeps"][0]
    nonlinear = metrics["solver.nonlinear_s"][0]
    metrics["solver.nonlinear_s_per_sweep"] = (nonlinear / sweeps if sweeps else None, "s")
    metrics["solver.linear_failures"] = (agg.get("solver.linear", {}).get("errors", 0), "count")
    return metrics
