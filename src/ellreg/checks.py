"""Acceptance criteria 1-7 as one check registry, run at two scales.

``CRITERIA[k](scale, seed)`` runs criterion k and returns named records
``{"name", "pass", "value"}``; every tolerance is written here once.  A
``value`` is the checked quantity as a ``repr`` string, a count, a list of
failed names, or None.

A scale table fixes the disk sizes (``n`` for the solves and the idempotence
fit, ``fine_n`` for the cubic decay, certificate and telescoping, ``rate_n``
for the mollifier rate, ``order_ns`` for the two-grid ladder), the trial
counts and the Philox keys.  ``FULL`` is the acceptance gate
(``tests/test_acceptance.py``).  ``REDUCED`` is ``ellreg selftest``: no disk
finer than N = 129, and ``keys`` None keys every generator by the run seed.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from mpmath import mp

from . import campanato, constants, cordes, mollifier, operators, solver
from .grid import Grid2, GridFunction

FULL = dict(n=129, fine_n=257, rate_n=201, order_ns=(65, 129), mollifier_fields=50,
            max_principle_draws=50, pointwise_fields=20, rotations=100, audit_samples=10_000,
            spd_matrices=20,
            keys=dict(mollifier=2025, max_principle=909, noise=31, pointwise=314159,
                      rotations=5150, audit=424242, spd=777))
REDUCED = dict(n=49, fine_n=129, rate_n=129, order_ns=(33, 65), mollifier_fields=10,
               max_principle_draws=10, pointwise_fields=2, rotations=20, audit_samples=2000,
               spd_matrices=5, keys=None)

FLAT = constants.EllipticityBounds(1.0, 1.0)
IDENTITY = operators.OperatorSpec(1.0, 0.0, 1.0)
SINE = operators.OperatorSpec(1.0, 0.0, 1.0, 0.05, "sine")


def _key(scale: dict, seed: int, check: str) -> int:
    return seed if scale["keys"] is None else scale["keys"][check]


def _rng(scale: dict, seed: int, check: str) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_key(scale, seed, check)))


def _rec(name: str, ok, value=None) -> dict:
    if isinstance(value, (float, np.floating)):
        value = repr(float(value))
    return {"name": name, "pass": bool(ok), "value": value}


def _max_dev(a: GridFunction, b, mask) -> float:
    return float(np.max(np.abs(a.values[mask] - b[mask])))


def _saddle(x, y):
    return x**2 - y**2


def _cubic(x, y):
    return x**3 - 3.0 * x * y**2


def _exp_cos(x, y):
    return np.exp(x) * np.cos(y)


@functools.lru_cache(maxsize=None)
def _perturbed(n: int) -> GridFunction:
    return solver.solve_fully_nonlinear(SINE, None, _cubic, Grid2.disk(n))


def _flat_report():
    ext = constants.ExternalConstants(K1=1.0, alpha0=1.0, C_prime=1.0, K2=1.0, C3=1.0)
    return constants.build_report(2, FLAT, constants.HolderPair(0.5, 0.25), ext)


def constants_reproduction(scale: dict, seed: int) -> list:
    rep = _flat_report()
    r0 = float(rep.r0)
    with mp.workdps(60):
        r = (mp.mpf(3) / 2000) ** 2
        expected = min(mp.mpf(2) / 100 * r ** mp.mpf(0.5), (mp.mpf(1) / 2) ** 7 * r**10)
    eps_dev = abs(float(rep.eps0_tilde / expected) - 1.0)
    failed = [c.name for c in rep.chain_checks if not (c.satisfied and c.slack >= 0)]
    return [
        _rec("constants_r0", abs(r0 - 2.25e-6) <= 1e-10 * 2.25e-6, r0),
        _rec("constants_eps0_tilde", eps_dev < 1e-12, eps_dev),
        _rec("constants_chain", rep.chain_checks and not failed, failed),
    ]


def mollifier_suite(scale: dict, seed: int) -> list:
    g = Grid2.disk(65)
    gamma = 4.0 * g.h
    _, w = mollifier.discrete_kernel(g.h, gamma)
    mass = math.fsum(w)
    rng = _rng(scale, seed, "mollifier")
    sup_ok = True
    for _ in range(scale["mollifier_fields"]):
        vals = rng.standard_normal((g.N, g.N))
        u = GridFunction(g, np.where(g.defined, vals, np.nan), g.defined.copy())
        sup_ok &= mollifier.mollify(u, gamma).sup() <= u.sup()
    lin = GridFunction.from_callable(g, lambda x, y: 0.4 - 1.7 * x + 0.9 * y)
    ml = mollifier.mollify(lin, gamma)
    lin_dev = _max_dev(ml, lin.values, ml.defined)
    gr = Grid2.disk(scale["rate_n"])
    root = GridFunction.from_callable(gr, lambda x, y: np.hypot(x, y) ** 0.5)
    mr = mollifier.mollify(root, 0.1)
    rate_dev = _max_dev(mr, root.values, mr.defined)
    return [
        _rec("mollifier_mass", mass == 1.0, mass),
        _rec("mollifier_max_norm", sup_ok, scale["mollifier_fields"]),
        _rec("mollifier_linear_fixed_point", lin_dev <= 1e-12, lin_dev),
        _rec("mollifier_rate", rate_dev <= 0.1**0.5 + 2.0 * gr.h, rate_dev),
    ]


def solver_suite(scale: dict, seed: int) -> list:
    g = Grid2.disk(scale["n"])
    lap = solver.solve_linear_dirichlet(IDENTITY.W0, None, _saddle, g)
    quad_err = _max_dev(lap, _saddle(g.X, g.Y), lap.defined)

    errs = []
    for n in scale["order_ns"]:
        go = Grid2.disk(n)
        sol = solver.solve_linear_dirichlet(IDENTITY.W0, None, _exp_cos, go)
        errs.append(_max_dev(sol, _exp_cos(go.X, go.Y), go.interior))
    order = math.log2(errs[0] / errs[1])

    spec = operators.OperatorSpec(1.2, 0.15, 0.9)
    direct = solver.solve_linear_dirichlet(spec.W0, None, _saddle, g)
    fixed = solver.solve_fully_nonlinear(spec, None, _saddle, g, tol=1e-10)
    diff = _max_dev(direct, fixed.values, g.interior)

    rng = _rng(scale, seed, "max_principle")
    g33 = Grid2.disk(33)
    mp_ok = True
    for _ in range(scale["max_principle_draws"]):
        gb = rng.standard_normal((33, 33))
        inner = solver.solve_linear_dirichlet(IDENTITY.W0, None, gb, g33).values[g33.interior]
        mp_ok &= inner.min() >= np.min(gb[g33.boundary]) - 1e-10
        mp_ok &= inner.max() <= np.max(gb[g33.boundary]) + 1e-10

    pert = _perturbed(scale["n"])
    return [
        _rec("solver_quadratic", quad_err <= 1e-8, quad_err),
        _rec("solver_two_grid_order", order >= 1.8, order),
        _rec("solver_nonlinear_match", diff <= 1e-8, diff),
        _rec("solver_max_principle", mp_ok, scale["max_principle_draws"]),
        _rec("solver_perturbed_converged", pert.meta["residual"] <= pert.meta["tol"],
             pert.meta["residual"]),
    ]


def campanato_suite(scale: dict, seed: int) -> list:
    quad = GridFunction.from_callable(
        Grid2.disk(scale["n"]),
        lambda x, y: 0.9 - x + 0.4 * y + 0.5 * (1.1 * x * x + 0.6 * x * y - 0.7 * y * y))
    tq = campanato.campanato_iterate(quad, IDENTITY, rho=0.5, kmax=4)
    qdev = max(rec.sup_dev for rec in tq.records)

    gf = Grid2.disk(scale["fine_n"])
    cubic = GridFunction.from_callable(gf, _cubic)
    tc = campanato.campanato_iterate(cubic, IDENTITY, rho=0.5, kmax=4)
    th = campanato.campanato_iterate(cubic, IDENTITY, rho=0.5, kmax=4,
                                     f=GridFunction.zeros(gf), alpha=0.25)
    same = len(tc.records) == len(th.records) and all(
        a.sup_dev == b.sup_dev and a.poly[0] == b.poly[0] for a, b in zip(tc.records, th.records))
    cert = campanato.certificate_check(cubic, IDENTITY, None, _flat_report(), FLAT)

    tp = campanato.campanato_iterate(_perturbed(scale["n"]), SINE, rho=0.5, kmax=4)

    rng = _rng(scale, seed, "noise")
    noise = np.where(gf.defined, 0.02 * rng.standard_normal((gf.N, gf.N)), 0.0)
    noisy = GridFunction(gf, cubic.values + noise, gf.defined.copy())
    tt = campanato.campanato_iterate(noisy, IDENTITY, rho=0.5, kmax=3)
    xs = np.linspace(-0.06, 0.06, 11)
    ys = xs[::-1].copy()
    acc = np.zeros_like(xs)
    for rec in tt.records:
        acc = acc + rec.amplitude * campanato.evaluate_quadratic(
            rec.correction, xs / rec.radius, ys / rec.radius)
    direct = campanato.evaluate_quadratic(tt.records[-1].poly, xs, ys)
    tel = float(np.max(np.abs(acc - direct)))
    return [
        _rec("campanato_idempotence", qdev <= 1e-9 * quad.sup(), qdev),
        _rec("campanato_cubic_decay", tc.exponent_defined and tc.fitted_exponent >= 2.8,
             tc.fitted_exponent),
        _rec("campanato_inhomogeneous_reduction", same),
        _rec("certificate_cubic_satisfied", cert.satisfied, cert.measured_seminorm),
        _rec("campanato_perturbed_decay",
             tp.exponent_defined and tp.fitted_exponent >= 2.0 + 0.5 - 0.2, tp.fitted_exponent),
        _rec("campanato_telescoping", tel <= 1e-12 * max(1.0, float(np.max(np.abs(direct)))), tel),
    ]


def pointwise_suite(scale: dict, seed: int) -> list:
    factor = float(constants.pointwise_factor(0.5))
    g = Grid2.disk(65)
    rng = _rng(scale, seed, "pointwise")
    alpha = 0.5
    dominated = True
    worst = math.inf
    for i in range(scale["pointwise_fields"]):
        a, b1, b2 = rng.uniform(-1, 1, 3)
        cvec = rng.uniform(-1, 1, 3)
        x0, y0 = rng.uniform(-0.2, 0.2, 2)
        amp = rng.uniform(0.2, 1.0)
        k1, k2 = rng.uniform(0.5, 2.0, 2)

        def fn(x, y):
            base = a + b1 * x + b2 * y + 0.5 * (cvec[0] * x * x + 2 * cvec[1] * x * y
                                                + cvec[2] * y * y)
            bump = amp * np.hypot(x - x0, y - y0) ** 2.5
            wave = 0.1 * np.sin(k1 * x) * np.cos(k2 * y) if i % 2 else 0.0
            return base + bump + wave

        u = GridFunction.from_callable(g, fn)
        _, K = campanato.pointwise_fit_constants(u, alpha, region_radius=0.25)
        certified = campanato.pointwise_to_holder(K, alpha)
        measured = campanato.discrete_hessian_seminorm(u, alpha, radius=0.25)
        dominated &= certified >= measured
        worst = min(worst, certified / max(measured, 1e-30))
    return [
        _rec("pointwise_factor", abs(factor - (2.0 + 2.0**2.5) ** 2) <= 1e-10 * factor, factor),
        _rec("pointwise_domination", dominated, worst),
    ]


def cordes_suite(scale: dict, seed: int) -> list:
    margins = (cordes.k_eps_margin([1.0, 2.0]) == 8.0 / 9.0
               and cordes.cordes_delta(np.eye(2)) == 1.0
               and cordes.cordes_delta(np.eye(3)) == 1.0
               and cordes.kprime_prefactor(3) == 2.75)

    rng = _rng(scale, seed, "rotations")
    A = np.array([[1.3, 0.25, -0.1], [0.25, 0.95, 0.2], [-0.1, 0.2, 1.15]])
    base = cordes.cordes_delta(A)
    rot_dev = 0.0
    for _ in range(scale["rotations"]):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rot_dev = max(rot_dev, abs(cordes.cordes_delta(Q @ A @ Q.T) - base))

    g33 = Grid2.disk(33)
    ident_dev = max(cordes.hessian_identity_check(GridFunction.from_callable(g33, fn))
                    for fn in (_saddle, lambda x, y: x * y, lambda x, y: np.sin(x) * np.sin(y),
                               lambda x, y: np.exp(0.3 * x) * np.cos(y)))
    return [
        _rec("cordes_exact_margins", margins, cordes.k_eps_margin([1.0, 2.0])),
        _rec("cordes_prime_coincidence",
             cordes.k_eps_prime_margin([0.6, 1.7]) == cordes.k_eps_margin([0.6, 1.7])),
        _rec("cordes_orthogonal_invariance", rot_dev <= 1e-10, rot_dev),
        _rec("cordes_hessian_identity", ident_dev <= 1e-10, ident_dev),
    ]


def operator_suite(scale: dict, seed: int) -> list:
    worst = max(operators.residual_audit(spec, samples=scale["audit_samples"],
                                         seed=_key(scale, seed, "audit")) - spec.eps
                for spec in operators.catalog_specs(0.05))

    rng = _rng(scale, seed, "spd")
    defect = grad_dev = fd_dev = 0.0
    for _ in range(scale["spd_matrices"]):
        B = rng.standard_normal((2, 2))
        spec = operators.make_spec(B @ B.T + np.eye(2), 0.04, "sine")
        res = operators.normalize(spec)
        W = operators.df_at_zero(spec)
        defect = max(defect, float(np.max(np.abs(res.A @ res.A.T @ W - np.eye(2)))))
        G0 = operators.fd_gradient(res.transformed, np.zeros((2, 2)))
        grad_dev = max(grad_dev, float(np.max(np.abs(G0 - np.eye(2)))))
        dfd = operators.fd_gradient(spec, np.zeros((2, 2)))
        fd_dev = max(fd_dev, float(np.max(np.abs(dfd - W))))
    return [
        _rec("operators_residual", worst <= 1e-15, worst),
        _rec("operators_normalize", defect <= 1e-12 and grad_dev <= 1e-6, defect),
        _rec("operators_fd_gradient", fd_dev <= 1e-6, fd_dev),
    ]


CRITERIA = dict(enumerate((constants_reproduction, mollifier_suite, solver_suite,
                            campanato_suite, pointwise_suite, cordes_suite, operator_suite),
                           start=1))
