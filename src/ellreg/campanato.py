"""Quadratic approximation at geometrically shrinking scales.

This module carries the constructive pipeline: local least-squares quadratic
fits, the single improvement step (mollify, replace harmonically, take the
second-order Taylor polynomial, correct it onto the operator's zero set), the
scale iteration that accumulates

    P_{k+1}(x) = P_k(x) + s_k * Pbar_k(x / r_k)

and records the sup deviation on each ball, the pointwise-to-uniform Hoelder
upgrade with its explicit factor (2 + 2^(2+alpha))^2, and the certificate
comparison of a measured Hessian seminorm against the constants chain.

Scale fits are taken on the exact lattice nodes inside each ball, with
coordinates rescaled to the unit frame for conditioning; values are never
interpolated, so quadratic inputs are reproduced to rounding accuracy at
every scale.  Sup deviations are brute-force maxima over the ball nodes.

One least-squares helper serves the scale fits, fit_quadratic and the
pointwise fits; pointwise centers are lattice nodes with ball membership
decided in integer offsets, so all centers with unclipped balls share one
design matrix.  One pairwise kernel measures every Hoelder seminorm over a
subsampled node set (entrywise max metric on the Hessian, matching the
pointwise-to-uniform statement), exact on the sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .constants import ConstantsReport, EllipticityBounds, pointwise_factor
from .grid import GridFunction
from .mollifier import mollify
from .solver import SolverError, _hessian_arrays, hessian, solve_laplace_dirichlet

__all__ = [
    "CertificateReport",
    "DecayRecord",
    "DecayTable",
    "QuadraticPolynomial",
    "StepReport",
    "campanato_iterate",
    "certificate_check",
    "check_f_decay",
    "discrete_hessian_seminorm",
    "fit_quadratic",
    "improvement_step",
    "inhomogeneous_iterate",
    "pointwise_fit_constants",
    "pointwise_to_holder",
]


@dataclass
class QuadraticPolynomial:
    """P(x) = a + b . x + (1/2) x^T c x with symmetric c."""

    a: float
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float).reshape(2)
        self.c = np.asarray(self.c, dtype=float).reshape(2, 2)
        if not np.allclose(self.c, self.c.T, atol=0.0):
            raise ValueError("c must be symmetric")

    @classmethod
    def zero(cls) -> "QuadraticPolynomial":
        return cls(0.0, np.zeros(2), np.zeros((2, 2)))

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (self.a + self.b[0] * x + self.b[1] * y
                + 0.5 * (self.c[0, 0] * x * x + 2.0 * self.c[0, 1] * x * y + self.c[1, 1] * y * y))

    def __add__(self, other: "QuadraticPolynomial") -> "QuadraticPolynomial":
        return QuadraticPolynomial(self.a + other.a, self.b + other.b, self.c + other.c)

    def rescaled(self, scale: float, amplitude: float = 1.0) -> "QuadraticPolynomial":
        """amplitude * P(x / scale) expanded in physical coordinates."""
        return QuadraticPolynomial(amplitude * self.a,
                                   (amplitude / scale) * self.b,
                                   (amplitude / scale**2) * self.c)

    def recentered(self, center) -> "QuadraticPolynomial":
        """P(x - center) expanded about the origin."""
        cx = np.asarray(center, dtype=float)
        b_new = self.b - self.c @ cx
        a_new = self.a - float(self.b @ cx) + 0.5 * float(cx @ self.c @ cx)
        return QuadraticPolynomial(a_new, b_new, self.c.copy())


def _design(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones_like(xi), xi, eta, 0.5 * xi * xi, xi * eta, 0.5 * eta * eta])


def _coeffs_to_poly(coef: np.ndarray) -> QuadraticPolynomial:
    a = float(coef[0])
    b = np.array([coef[1], coef[2]])
    c = np.array([[coef[3], coef[4]], [coef[4], coef[5]]])
    return QuadraticPolynomial(a, b, c)


def _fit_ball(xi: np.ndarray, eta: np.ndarray, vals: np.ndarray):
    """Least-squares quadratic in the unit-frame coordinates (xi, eta) for one
    value column or a (nodes, k) stack of columns; returns the coefficients
    and the max node deviation of each column."""
    A = _design(xi, eta)
    coef, _, rank, _ = np.linalg.lstsq(A, vals, rcond=None)
    if rank < 6:
        raise ValueError("degenerate node set: quadratic fit is rank-deficient")
    return coef, np.max(np.abs(vals - A @ coef), axis=0)


def fit_quadratic(u: GridFunction, center, r: float):
    """Least-squares quadratic over the nodes in the ball; returns the
    polynomial in physical coordinates and the max node deviation."""
    g = u.grid
    cx, cy = float(center[0]), float(center[1])
    mask = u.defined & (np.hypot(g.X - cx, g.Y - cy) <= r * (1.0 + 1e-12))
    count = int(mask.sum())
    if count < 12:
        raise ValueError(f"ball of radius {r} holds {count} nodes; need at least 12")
    coef, sup_dev = _fit_ball((g.X[mask] - cx) / r, (g.Y[mask] - cy) / r, u.values[mask])
    poly = _coeffs_to_poly(coef).rescaled(r).recentered([cx, cy])
    return poly, float(sup_dev)


# ---------------------------------------------------------------------------
# single improvement step


@dataclass
class StepReport:
    gamma_used: float
    r_used: float
    replace_radius: float
    sup_u: float
    sup_u_minus_h: float
    sup_h_minus_p: float
    sup_u_minus_p: float
    d2h_norm: float
    d2h_bound: float
    d2h_bound_ok: bool
    c_correction: float
    operator_residual: float


def _taylor_at_center(h_fun: GridFunction) -> QuadraticPolynomial:
    g = h_fun.grid
    if g.N % 2 == 0:
        raise ValueError("grid must have a center node (odd N)")
    i0 = (g.N - 1) // 2
    window = np.s_[i0 - 1:i0 + 2, i0 - 1:i0 + 2]
    if not h_fun.defined[window].all():
        raise ValueError("center node lacks full stencil support")
    v = h_fun.values[window]
    center = np.zeros((3, 3), dtype=bool)
    center[1, 1] = True
    c11, c12, c22 = (float(c[0]) for c in _hessian_arrays(v, g.h, center))
    b = np.array([(v[2, 1] - v[0, 1]) / (2 * g.h), (v[1, 2] - v[1, 0]) / (2 * g.h)])
    return QuadraticPolynomial(float(v[1, 1]), b, np.array([[c11, c12], [c12, c22]]))


def improvement_step(u: GridFunction, spec, constants: ConstantsReport | None = None,
                     gamma_used: float | None = None, r_used: float = 0.25,
                     replace_radius: float = 0.8):
    """Mollify, replace harmonically on the inner disk, take the second-order
    Taylor polynomial of the replacement at the origin, then move it onto the
    operator's zero set with a scalar correction c |x|^2 ||D^2 h(0)|| / (2 lam)
    found by bisection on c in [-eps, eps] (monotone in c by ellipticity).

    Returns the corrected polynomial and a report of every measured quantity,
    including the harmonic-derivative bound check ||D^2 h(0)|| <= (25/4) n^2 M.
    The documented closed-form radii are far below any lattice resolution, so
    gamma defaults to 4h and the deviation ball to r_used; the literal
    constants live in the constants module.
    """
    g = u.grid
    if gamma_used is None:
        gamma_used = 4.0 * g.h
    if replace_radius + gamma_used + 2.0 * g.h >= g.extent:
        raise ValueError("domain too small for mollification plus replacement collar")
    u_moll = mollify(u, gamma_used)
    sub = g.subregion(replace_radius)
    if (sub.defined & ~u_moll.defined).any():
        raise ValueError("mollified data does not cover the replacement disk")
    h_fun = solve_laplace_dirichlet(u_moll, g, region=sub)
    P0 = _taylor_at_center(h_fun)

    M = u.sup()
    d2h_norm = float(operators.op_norm_sym2(P0.c[0, 0], P0.c[0, 1], P0.c[1, 1]))
    d2h_bound = 25.0 / 4.0 * 4.0 * M  # (25/4) n^2 with n = 2
    eff = operators.effective_bounds(spec)

    if spec.eps == 0.0 or d2h_norm <= 1e-12 * max(M, 1.0):
        # a correction proportional to ||D^2 h(0)|| cannot move F at rounding level
        c_corr = 0.0
        P = P0
    else:
        shift = d2h_norm / eff.lam * np.eye(2)

        def fval(t):
            return operators.evaluate(spec, P0.c + t * shift)

        lo, hi = -spec.eps, spec.eps
        flo, fhi = fval(lo), fval(hi)
        if flo > 0 or fhi < 0:
            raise SolverError(
                "correction bisection cannot bracket a zero of F; "
                "the operator's eps is too small for this instance")
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if fval(mid) <= 0:
                lo = mid
            else:
                hi = mid
        c_corr = 0.5 * (lo + hi)
        P = QuadraticPolynomial(P0.a, P0.b, P0.c + c_corr * shift)

    ball = g.ball_mask(r_used)
    both = sub.defined & u.defined
    diff_uh = np.abs(u.values - h_fun.values)
    sup_u_minus_h = float(np.max(diff_uh[both]))
    hp = np.abs(h_fun.values - P(g.X, g.Y))
    sup_h_minus_p = float(np.max(hp[both & ball]))
    up = np.abs(u.values - P(g.X, g.Y))
    sup_u_minus_p = float(np.max(up[u.defined & ball]))
    report = StepReport(
        gamma_used=gamma_used, r_used=r_used, replace_radius=replace_radius,
        sup_u=M, sup_u_minus_h=sup_u_minus_h, sup_h_minus_p=sup_h_minus_p,
        sup_u_minus_p=sup_u_minus_p, d2h_norm=d2h_norm, d2h_bound=d2h_bound,
        d2h_bound_ok=bool(d2h_norm <= d2h_bound * (1 + 1e-12)),
        c_correction=float(c_corr),
        operator_residual=abs(operators.evaluate(spec, P.c)),
    )
    return P, report


# ---------------------------------------------------------------------------
# scale iteration


@dataclass
class DecayRecord:
    k: int
    radius: float
    poly: QuadraticPolynomial
    sup_dev: float
    correction: QuadraticPolynomial
    amplitude: float
    operator_residual: float
    f_check: float | None = None


@dataclass
class DecayTable:
    records: list
    fitted_exponent: float
    rho: float
    truncated: bool
    exponent_defined: bool
    mode: str
    alpha: float | None = None

    CSV_HEADER = "k,radius,sup_dev,a,b1,b2,c11,c12,c22"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.records:
            p = r.poly
            lines.append(",".join(repr(float(v)) for v in
                                  (r.k, r.radius, r.sup_dev, p.a, p.b[0], p.b[1],
                                   p.c[0, 0], p.c[0, 1], p.c[1, 1])))
        return "\n".join(lines) + "\n"


def _resolvable(grid, radius: float) -> bool:
    if radius < 4.0 * grid.h * (1.0 - 1e-12):
        return False
    return int(grid.ball_mask(radius).sum()) >= 12


def _iterate(u: GridFunction, spec, ratio: float, kmax: int, f: GridFunction | None,
             alpha: float | None, mode: str) -> DecayTable:
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0,1)")
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    g = u.grid
    P = QuadraticPolynomial.zero()
    records = []
    truncated = False
    for k in range(kmax + 1):
        radius = ratio**k * g.extent
        if not _resolvable(g, radius):
            truncated = True
            break
        mask = u.defined & g.ball_mask(radius)
        resid = u.values[mask] - P(g.X[mask], g.Y[mask])
        coef, sup_dev = _fit_ball(g.X[mask] / radius, g.Y[mask] / radius, resid)
        correction_physical = _coeffs_to_poly(coef).rescaled(radius)
        P = P + correction_physical
        amplitude = ratio ** (2 * k) if mode == "homogeneous" else ratio ** (k * (2 + alpha))
        correction_scaled = correction_physical.rescaled(1.0 / radius, 1.0 / amplitude)
        f_check = None
        if f is not None:
            fmask = f.defined & g.ball_mask(radius)
            if fmask.any():
                mean_n = float(np.mean(np.abs(f.values[fmask]) ** 2))
                f_check = math.sqrt(mean_n) / radius ** (alpha if alpha is not None else 0.0)
        records.append(DecayRecord(
            k=k, radius=radius, poly=QuadraticPolynomial(P.a, P.b.copy(), P.c.copy()),
            sup_dev=float(sup_dev), correction=correction_scaled, amplitude=amplitude,
            operator_residual=abs(operators.evaluate(spec, P.c)), f_check=f_check))
    floor = 1e-13 * max(u.sup(), 1.0)
    pts = [(math.log(r.radius), math.log(r.sup_dev)) for r in records if r.sup_dev > floor]
    if len(pts) >= 3:
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
        exponent_defined = True
    else:
        slope = float("nan")
        exponent_defined = False
    return DecayTable(records=records, fitted_exponent=slope, rho=ratio,
                      truncated=truncated, exponent_defined=exponent_defined,
                      mode=mode, alpha=alpha)


def campanato_iterate(u: GridFunction, spec, rho: float = 0.5, kmax: int = 4) -> DecayTable:
    """Fit and accumulate quadratics on balls of radius rho^k; the regression
    slope of log sup-deviation against log radius estimates the decay order."""
    return _iterate(u, spec, rho, kmax, None, None, "homogeneous")


def inhomogeneous_iterate(u: GridFunction, spec, f: GridFunction, mu: float = 0.5,
                          kmax: int = 4, alpha: float = 0.25) -> DecayTable:
    """Same accumulation with the source-aware normalization mu^(k(2+alpha));
    records the source decay check at every scale.  With f identically zero
    this reproduces campanato_iterate bit for bit."""
    return _iterate(u, spec, mu, kmax, f, alpha, "inhomogeneous")


def check_f_decay(f: GridFunction, alpha: float) -> float:
    """Smallest admissible source-decay constant: the max over lattice radii
    r in {4h, ..., extent} of (node-mean of |f|^n over B_r)^(1/n) / r^alpha."""
    g = f.grid
    rr = np.hypot(g.X[f.defined], g.Y[f.defined])
    vals = np.abs(f.values[f.defined]) ** 2
    order = np.argsort(rr, kind="stable")
    rr = rr[order]
    csum = np.cumsum(vals[order])
    worst = 0.0
    jmax = (g.N - 1) // 2
    for j in range(4, jmax + 1):
        r = j * g.h
        count = int(np.searchsorted(rr, r * (1.0 + 1e-12), side="right"))
        if count == 0:
            continue
        avg = csum[count - 1] / count
        worst = max(worst, math.sqrt(avg) / r**alpha)
    return worst


# ---------------------------------------------------------------------------
# pointwise-to-uniform Hoelder upgrade and certificates


def pointwise_to_holder(fits, alpha: float) -> float:
    """(2 + 2^(2+alpha))^2 times the largest per-center pointwise constant."""
    ks = [k for _, k in fits]
    if not ks:
        raise ValueError("missing fits: need at least one per-center constant")
    return float(pointwise_factor(alpha)) * max(ks)


_CENTER_CHUNK = 256  # centers per multi-column solve; bounds the value block at N = 513


def pointwise_fit_constants(u: GridFunction, alpha: float, region_radius: float = 0.25,
                            stride: int = 2, fit_radius: float = 0.3):
    """Per-center quadratic fits with their pointwise Hoelder constants
    K_c = max_x |u(x) - P_c(x)| / |x - c|^(2+alpha) over the whole domain.

    Centers are lattice nodes, so ball membership is decided in integer
    offsets, (di^2 + dj^2) h^2 <= (fit_radius (1 + 1e-12))^2, and every center
    whose offset ball lies on defined nodes shares one design matrix: those
    centers are fitted by one multi-column least-squares solve per chunk of
    at most 256 centers.  A center whose ball is clipped by the domain is
    fitted alone by fit_quadratic on its own node set.  The result order is
    fixed by the center enumeration.
    """
    g = u.grid
    centers_mask = u.defined & (np.hypot(g.X, g.Y) <= region_radius * (1.0 + 1e-12))
    ii, jj = np.nonzero(centers_mask)
    keep = (ii % stride == 0) & (jj % stride == 0)
    ii, jj = ii[keep], jj[keep]
    if not len(ii):
        raise ValueError("no fit centers inside the requested region")
    reach = fit_radius * (1.0 + 1e-12)
    m = int(reach / g.h) + 1
    di, dj = np.mgrid[-m:m + 1, -m:m + 1]
    ball = (di * di + dj * dj) * g.h**2 <= reach**2
    di, dj = di[ball], dj[ball]
    if len(di) < 12:
        raise ValueError(f"ball of radius {fit_radius} holds {len(di)} nodes; need at least 12")
    # NaN off the defined nodes and in a frame wide enough for every offset ball
    padded = np.pad(u.filled(np.nan), m, constant_values=np.nan)
    offsets = di * padded.shape[1] + dj
    flat = (ii + m) * padded.shape[1] + (jj + m)
    xi, eta = di * g.h / fit_radius, dj * g.h / fit_radius

    polys = []
    for lo in range(0, len(ii), _CENTER_CHUNK):
        chunk = range(lo, min(lo + _CENTER_CHUNK, len(ii)))
        vals = padded.ravel()[flat[lo:chunk.stop] + offsets[:, None]]
        full = ~np.isnan(vals).any(axis=0)
        coef = np.empty((6, len(chunk)))
        if full.any():
            coef[:, full] = _fit_ball(xi, eta, vals[:, full])[0]
        for t, c in enumerate(chunk):
            center = (g.X[ii[c], jj[c]], g.Y[ii[c], jj[c]])
            if full[t]:
                polys.append(_coeffs_to_poly(coef[:, t]).rescaled(fit_radius).recentered(center))
            else:
                polys.append(fit_quadratic(u, center, fit_radius)[0])

    allx, ally = g.X[u.defined], g.Y[u.defined]
    allv = u.values[u.defined]
    fits = []
    for i, j, poly in zip(ii, jj, polys):
        cx, cy = g.X[i, j], g.Y[i, j]
        dist = np.hypot(allx - cx, ally - cy)
        far = dist > 0.5 * g.h
        ratios = np.abs(allv[far] - poly(allx[far], ally[far])) / dist[far] ** (2.0 + alpha)
        fits.append((poly, float(np.max(ratios))))
    return fits


def _pairwise_holder(g, mask: np.ndarray, fields, alpha: float, max_nodes: int) -> float:
    """Max over distinct node pairs of max_k |v_k(x) - v_k(y)| / |x - y|^alpha,
    with v_k the lattice arrays in fields, over the nodes of mask kept by the
    lattice stride that leaves at most about max_nodes of them."""
    ii, jj = np.nonzero(mask)
    stride = max(1, math.ceil(math.sqrt(len(ii) / max_nodes)))
    keep = (ii % stride == 0) & (jj % stride == 0)
    ii, jj = ii[keep], jj[keep]
    x, y = g.X[ii, jj], g.Y[ii, jj]
    cols = [v[ii, jj] for v in fields]
    worst = 0.0
    chunk = 256
    for lo in range(0, len(ii), chunk):
        s = slice(lo, lo + chunk)
        dist = np.hypot(x[s][:, None] - x[None, :], y[s][:, None] - y[None, :])
        diff = np.abs(cols[0][s][:, None] - cols[0][None, :])
        for v in cols[1:]:
            diff = np.maximum(diff, np.abs(v[s][:, None] - v[None, :]))
        np.fill_diagonal(dist[:, lo:lo + diff.shape[0]], np.inf)
        worst = max(worst, float(np.max(diff / dist**alpha)))
    return worst


def discrete_hessian_seminorm(u: GridFunction, alpha: float, radius: float = 0.25,
                              max_nodes: int = 1089) -> float:
    """Brute-force pairwise [D^2 u]_alpha over a subsample of ball nodes,
    entrywise max metric on the Hessian difference."""
    H = hessian(u)
    g = u.grid
    mask = H.mask & (np.hypot(g.X, g.Y) <= radius * (1.0 + 1e-12))
    if int(mask.sum()) < 2:
        raise ValueError("ball under-resolved for a pairwise seminorm")
    return _pairwise_holder(g, mask, (H.h11, H.h12, H.h22), alpha, max_nodes)


@dataclass
class CertificateReport:
    measured_seminorm: float
    bound: float
    satisfied: bool
    informational: bool
    ball_radius: float
    alpha_used: float
    constants_used: ConstantsReport | None = None


def certificate_check(u: GridFunction, spec, f: GridFunction | None,
                      constants: ConstantsReport, bounds: EllipticityBounds,
                      subsample: int = 1089) -> CertificateReport:
    """Homogeneous: measured [D^2 u]_alpha_bar over B_(1/(4 Lam)) against
    C1 ||u||_inf (pass/fail).  Inhomogeneous: the accumulated-decay bound
    assembled from C4, delta and the pointwise factor; the full closed-form
    constant is never stated explicitly, so the comparison is informational.
    """
    g = u.grid
    ball_radius = g.extent / (4.0 * bounds.Lam)
    if ball_radius < 4.0 * g.h:
        raise ValueError("certificate ball under-resolved on this lattice")
    homogeneous = f is None or not np.any(np.abs(f.values[f.defined]) > 0)
    sup_u = u.sup()
    if homogeneous:
        ab = constants.pair.alpha_bar
        measured = discrete_hessian_seminorm(u, ab, radius=ball_radius, max_nodes=subsample)
        bound = float(constants.C1) * sup_u
        return CertificateReport(measured, bound, bool(measured <= bound), False,
                                 ball_radius, ab, constants)
    if constants.pair.alpha is None or constants.delta is None:
        raise ValueError("inhomogeneous certificate needs a full (alpha, alpha_bar) report")
    a = constants.pair.alpha
    measured = discrete_hessian_seminorm(u, a, radius=ball_radius, max_nodes=subsample)
    f_semi = _pairwise_holder(f.grid, f.defined, (f.values,), a, 1089)
    T = float(1.0 / float(constants.delta)) * f_semi + sup_u
    bound = float(pointwise_factor(a)) * 2.0**a * float(constants.C4) * T
    return CertificateReport(measured, bound, bool(measured <= bound), True,
                             ball_radius, a, constants)
