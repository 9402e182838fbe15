"""Quadratic approximation at geometrically shrinking scales.

This module carries the constructive pipeline: local least-squares quadratic
fits, the single improvement step (mollify, replace by the solution of the
linear equation tr(W0 D^2 h) = 0 that F is eps-close to, take the second-order
Taylor polynomial, correct it onto the operator's zero set), the
scale iteration that accumulates

    P_{k+1}(x) = P_k(x) + s_k * Pbar_k(x / r_k)

and records the sup deviation on each ball, the pointwise-to-uniform Hoelder
upgrade with its explicit factor (2 + 2^(2+alpha))^2, and the certificate
comparison of a measured Hessian seminorm against the constants chain.

A quadratic is one coefficient vector (a, b1, b2, c11, c12, c22) against the
monomial basis (1, x, y, x^2/2, xy, y^2/2); every fit solves for that vector,
and QuadraticPolynomial holds it.

Scale fits are taken on the exact lattice nodes inside each ball, with
coordinates rescaled to the unit frame for conditioning; values are never
interpolated, so quadratic inputs are reproduced to rounding accuracy at
every scale.  Sup deviations are brute-force maxima over the ball nodes.

Every quadratic fit is one truncated-SVD least-squares solve with lstsq's rank
rule, on the triangular factor the design's row blocks reduce to; a ball's
fit takes one design row per defined node, so an undefined node drops out by
selection.  Pointwise centers are lattice nodes, so all centers with unclipped
balls share one design matrix, factored once, and a clipped ball takes its
rows at its defined nodes.  For their one constant K = max_c K_c, bounds on
(center, lattice tile) pairs, taken after one common quadratic is subtracted
from u and every fit, leave only the pairs that may hold the max to be
evaluated, node by node.
One pairwise kernel measures every Hoelder seminorm over every node of its
mask (entrywise max metric on the Hessian, matching the pointwise-to-uniform
statement): bounds on pairs of lattice tiles leave only the tile pairs that
may hold the max to be evaluated, node by node.  Both sups read distance
powers from one table over integer offsets, _offset_powers; _tiling cuts the
lattice into t x t tiles for both, t by one rule, _tile_side, and one branch
and bound, _lattice_max, finds both, the max over all node pairs bit for bit,
in blocks of at most _BLOCK entries, so its memory does not grow with the
lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .constants import ConstantsReport, EllipticityBounds, pointwise_factor
from .grid import GridFunction, ball_reach
from .mollifier import mollify
from .solver import SolverError, hessian, solve_linear_dirichlet

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
    "improvement_step",
    "pointwise_fit_constants",
    "pointwise_to_holder",
]


class QuadraticPolynomial:
    """P(x, y) = coef . _monomials(x, y) = a + b . x + (1/2) x^T c x, with the
    read-only coefficient vector coef, b = (b1, b2) and c = [[c11, c12], [c12, c22]]."""

    def __init__(self, coef):
        self.coef = np.array(coef, dtype=float).reshape(6)
        self.coef.flags.writeable = False

    @property
    def a(self) -> float:
        return float(self.coef[0])

    @property
    def b(self) -> np.ndarray:
        return self.coef[1:3]

    @property
    def c(self) -> np.ndarray:
        return self.coef[[3, 4, 4, 5]].reshape(2, 2)

    def __call__(self, x, y):
        return _evaluate(self.coef, np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def __add__(self, other: "QuadraticPolynomial") -> "QuadraticPolynomial":
        return QuadraticPolynomial(self.coef + other.coef)


def _evaluate(coef, x, y):
    """The quadratic with coefficient vector coef at (x, y), in one fixed order
    of elementwise operations; coef may stack arrays that broadcast against x."""
    a, b1, b2, c11, c12, c22 = coef
    return a + b1 * x + b2 * y + 0.5 * (c11 * x * x + 2.0 * c12 * x * y + c22 * y * y)


def _monomials(x, y) -> tuple:
    """The monomial basis at the points (x, y), one array per monomial."""
    return np.ones_like(x), x, y, 0.5 * x * x, x * y, 0.5 * y * y


def _physical(coef: np.ndarray, r: float, cx, cy) -> np.ndarray:
    """Coefficients of a fit in the unit frame of the ball of radius r about
    (cx, cy), expanded in physical coordinates about the origin; one column
    or a (6, k) stack with one center per column."""
    s1, s2 = 1.0 / r, 1.0 / r**2
    b1, b2 = s1 * coef[1], s1 * coef[2]
    c11, c12, c22 = s2 * coef[3], s2 * coef[4], s2 * coef[5]
    g1, g2 = c11 * cx + c12 * cy, c12 * cx + c22 * cy
    a = coef[0] - (b1 * cx + b2 * cy) + 0.5 * (g1 * cx + g2 * cy)
    return np.array([a, b1 - g1, b2 - g2, c11, c12, c22])


def _lstsq(design: np.ndarray):
    """Truncated-SVD least squares for one (m, 6) design or a (k, m, 6) stack, rank by
    lstsq's default rcond: (solve, rank), with solve mapping values (m,) or (m, p), stacked
    alike, to minimum-norm coefficients (6,) or (6, p).  A zeroed row drops out of its fit.

    Every design is reduced to a small triangular factor, so the SVD makes no copy of
    it: a Householder QR of each block of _QR_ROWS rows, then one QR of the stacked
    block factors (TSQR: J. Demmel, L. Grigori, M. Hoemmen and J. Langou, SIAM J. Sci.
    Comput. 34, 2012).  The SVD and the rank rule, which keeps max(m, 6) of the full
    design, run on that factor, and solve applies the stored block Qs."""
    cuts = range(_QR_ROWS, design.shape[-2], _QR_ROWS)
    blocks, factors = zip(*map(np.linalg.qr, np.split(design, cuts, axis=-2)))
    q, factor = np.linalg.qr(np.concatenate(factors, axis=-2))
    u, s, vt = np.linalg.svd(factor, full_matrices=False)
    ut = np.swapaxes(q @ u, -1, -2)  # the design's left factor is diag(blocks) q u
    keep = s > np.finfo(float).eps * max(design.shape[-2:]) * s[..., :1]
    w = np.swapaxes(vt, -1, -2) * np.divide(1.0, s, out=np.zeros_like(s), where=keep)[..., None, :]
    axis = design.ndim - 2  # the row axis of values, (m,) and (m, p) alike

    def solve(values):
        parts = zip(blocks, np.split(values, cuts, axis=axis))
        return w @ (ut @ np.concatenate([np.swapaxes(b, -1, -2) @ v for b, v in parts], axis=axis))
    return solve, np.count_nonzero(keep, axis=-1)


def _fit_solve(design: np.ndarray):
    """_lstsq's solve for a quadratic fit on the nodes of a ball, one row of design
    per node; fewer than _MIN_FIT_NODES rows, or a rank below 6, is an error."""
    if len(design) < _MIN_FIT_NODES:
        raise ValueError(f"a fit ball holds {len(design)} nodes; need at least {_MIN_FIT_NODES}")
    solve, rank = _lstsq(design)
    if rank < 6:
        raise ValueError("degenerate node set: quadratic fit is rank-deficient")
    return solve


def _fit_rows(design: np.ndarray, vals: np.ndarray):
    """Least-squares quadratic to the values vals on the rows of design, one per
    node of a ball in its unit frame: the coefficients in that frame and the max
    node deviation.  A node drops out of a fit by leaving out its row."""
    coef = _fit_solve(design)(vals)
    return coef, np.max(np.abs(vals - design @ coef))


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
    mg_iterations: list[int]  # PCG iterations of each sweep of the harmonic replacement


def _taylor_at_center(h_fun: GridFunction) -> np.ndarray:
    """Coefficients of the second-order Taylor polynomial of h_fun at the origin,
    read from the 3 x 3 block of nodes about it; the second differences are
    hessian's, in its order of operations, so they match it bit for bit."""
    g = h_fun.grid
    if g.N % 2 == 0:
        raise ValueError("grid must have a center node (odd N)")
    i0 = (g.N - 1) // 2
    block = np.s_[i0 - 1:i0 + 2, i0 - 1:i0 + 2]
    if not h_fun.defined[block].all():
        raise ValueError("center node lacks full stencil support")
    v, h2 = h_fun.values[block], g.h * g.h
    b1, b2 = (v[2, 1] - v[0, 1]) / (2 * g.h), (v[1, 2] - v[1, 0]) / (2 * g.h)
    h11 = (v[2, 1] - 2.0 * v[1, 1] + v[0, 1]) / h2
    h22 = (v[1, 2] - 2.0 * v[1, 1] + v[1, 0]) / h2
    h12 = (v[2, 2] + v[0, 0] - v[2, 0] - v[0, 2]) / (4.0 * h2)
    return np.array([v[1, 1], b1, b2, h11, h12, h22])


# radii of the harmonic-replacement disk and of the ball the step's deviations
# are taken on, as fractions of the extent
_REPLACE_RADIUS = 0.8
_DEVIATION_RADIUS = 0.25


def improvement_step(u: GridFunction, spec, constants: ConstantsReport | None = None,
                     gamma_used: float | None = None):
    """Mollify, replace on the inner disk by the solution h of tr(W0 D^2 h) = 0
    (the linear equation F is eps-close to), take the second-order Taylor
    polynomial of the replacement at the origin, then move it onto the
    operator's zero set with a scalar correction c |x|^2 ||D^2 h(0)|| / (2 lam)
    found by bisection on c in [-eps, eps] (monotone in c by ellipticity).

    Returns the corrected polynomial and a report of every measured quantity,
    including the derivative bound check ||D^2 h(0)|| <= (25/4) n^2 M
    lam_max(W0) / lam_min(W0): h o W0^(1/2) is harmonic, on a disk smaller by
    sqrt(lam_max(W0)), and D^2 h = W0^(-1/2) D^2 (h o W0^(1/2)) W0^(-1/2).
    The documented closed-form radii are far below any lattice resolution, so
    gamma defaults to 4h and the deviation ball to _DEVIATION_RADIUS times the
    extent; the literal constants live in the constants module.  Both step radii
    scale with the extent, so under u -> e^2 u(x / e) on a lattice of extent e
    D^2 h(0) and the correction keep their values and the sup deviations scale
    as e^2.
    """
    g = u.grid
    if gamma_used is None:
        gamma_used = 4.0 * g.h
    replace_radius, r_used = _REPLACE_RADIUS * g.extent, _DEVIATION_RADIUS * g.extent
    if replace_radius + gamma_used + 2.0 * g.h >= g.extent:
        raise ValueError("domain too small for mollification plus replacement collar")
    u_moll = mollify(u, gamma_used)
    sub = g.subregion(replace_radius)
    if (sub.defined & ~u_moll.defined).any():
        raise ValueError("mollified data does not cover the replacement disk")
    h_fun = solve_linear_dirichlet(spec.W0, None, u_moll, g, region=sub)
    coef = _taylor_at_center(h_fun)

    M = u.sup()
    d2h_norm = float(operators.op_norm_sym2(*coef[3:]))
    lam_min, lam_max = np.linalg.eigvalsh(spec.W0)
    d2h_bound = 25.0 / 4.0 * 4.0 * M * float(lam_max / lam_min)  # (25/4) n^2 with n = 2
    eff = operators.effective_bounds(spec)

    if spec.eps == 0.0 or d2h_norm <= 1e-12 * max(M, 1.0):
        # a correction proportional to ||D^2 h(0)|| cannot move F at rounding level
        c_corr = 0.0
        P = QuadraticPolynomial(coef)
    else:
        shift = d2h_norm / eff.lam * np.array([0.0, 0.0, 0.0, 1.0, 0.0, 1.0])

        def fval(t):
            return spec.evaluate(QuadraticPolynomial(coef + t * shift).c)

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
        P = QuadraticPolynomial(coef + c_corr * shift)

    ball = g.ball_mask(r_used)
    both = sub.defined & u.defined
    diff_uh = np.abs(u.values - h_fun.values)
    sup_u_minus_h = float(np.max(diff_uh[both]))
    p_vals = P(g.X, g.Y)
    hp = np.abs(h_fun.values - p_vals)
    sup_h_minus_p = float(np.max(hp[both & ball]))
    up = np.abs(u.values - p_vals)
    sup_u_minus_p = float(np.max(up[u.defined & ball]))
    report = StepReport(
        gamma_used=gamma_used, r_used=r_used, replace_radius=replace_radius,
        sup_u=M, sup_u_minus_h=sup_u_minus_h, sup_h_minus_p=sup_h_minus_p,
        sup_u_minus_p=sup_u_minus_p, d2h_norm=d2h_norm, d2h_bound=d2h_bound,
        d2h_bound_ok=bool(d2h_norm <= d2h_bound * (1 + 1e-12)),
        c_correction=float(c_corr),
        operator_residual=abs(spec.evaluate(P.c)),
        mg_iterations=h_fun.meta["mg_iterations"],
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


@dataclass
class DecayTable:
    records: list
    fitted_exponent: float
    rho: float
    truncated: bool
    exponent_defined: bool
    mode: str

    CSV_HEADER = "k,radius,sup_dev,a,b1,b2,c11,c12,c22"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(",".join(repr(float(v)) for v in
                                  (r.k, r.radius, r.sup_dev, *r.poly.coef)))
        return "\n".join(lines) + "\n"


def campanato_iterate(u: GridFunction, spec, rho: float = 0.5, kmax: int = 4,
                      f: GridFunction | None = None, alpha: float = 0.25) -> DecayTable:
    """Fit and accumulate quadratics on balls of radius rho^k; the regression
    slope of log sup-deviation against log radius estimates the decay order.
    Corrections are normalized by rho^(2k), or with a source f by the
    source-aware rho^(k(2+alpha)); the fits never read f, so with f zero they
    match the sourceless ones bit for bit.  A scale whose ball holds fewer than
    _MIN_FIT_NODES defined nodes of u, or whose radius is below 4h, ends the
    table as truncated."""
    if not 0 < rho < 1:
        raise ValueError("rho must lie in (0,1)")
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    g = u.grid
    P = QuadraticPolynomial(np.zeros(6))
    records = []
    truncated = False
    for k in range(kmax + 1):
        radius = rho**k * g.extent
        mask = u.defined & g.ball_mask(radius)
        if radius < 4.0 * g.h * (1.0 - 1e-12) or np.count_nonzero(mask) < _MIN_FIT_NODES:
            truncated = True
            break
        vals = u.values[mask] - P(g.X[mask], g.Y[mask])
        coef, sup_dev = _fit_rows(
            np.column_stack(_monomials(g.X[mask] / radius, g.Y[mask] / radius)), vals)
        P = P + QuadraticPolynomial(_physical(coef, radius, 0.0, 0.0))
        amplitude = rho ** (2 * k) if f is None else rho ** (k * (2 + alpha))
        records.append(DecayRecord(
            k=k, radius=radius, poly=P,
            sup_dev=float(sup_dev), correction=QuadraticPolynomial(coef / amplitude),
            amplitude=amplitude, operator_residual=abs(spec.evaluate(P.c))))
    floor = 1e-13 * max(u.sup(), 1.0)
    pts = np.array([(math.log(r.radius), math.log(r.sup_dev))
                    for r in records if r.sup_dev > floor])
    exponent_defined = len(pts) >= 3
    slope = float(np.polyfit(pts[:, 0], pts[:, 1], 1)[0]) if exponent_defined else float("nan")
    return DecayTable(records=records, fitted_exponent=slope, rho=rho,
                      truncated=truncated, exponent_defined=exponent_defined,
                      mode="homogeneous" if f is None else "inhomogeneous")


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
        count = int(np.searchsorted(rr, ball_reach(r), side="right"))
        if count == 0:
            continue
        avg = csum[count - 1] / count
        worst = max(worst, math.sqrt(avg) / r**alpha)
    return worst


# ---------------------------------------------------------------------------
# pointwise-to-uniform Hoelder upgrade and certificates


def pointwise_to_holder(K: float, alpha: float) -> float:
    """(2 + 2^(2+alpha))^2 times the pointwise constant K = max_c K_c."""
    return float(pointwise_factor(alpha)) * K


# entries of one block array in the lattice-sup kernels (512 KB of doubles): the
# bounds of one row block of _lattice_max, the nodes of its exact evaluations,
# and the pointwise fits' gathered values
_BLOCK = 1 << 16
# rows of one block of a least-squares design's QR reduction (_lstsq): one
# block of 6 columns holds about _BLOCK doubles
_QR_ROWS = 10_922
_FIT_STRIDE = 2  # centers on every second lattice row and column
_FIT_RADIUS = 0.3  # the pointwise fit balls' radius, as a fraction of the extent
_MIN_FIT_NODES = 12  # the fewest nodes any quadratic fit takes, twice its coefficients
# widening of a tile bound per unit of the magnitudes its rounded terms are
# formed from (about 4500 double epsilons); those magnitudes bound every
# residual in the tile too, so the widening covers the relative rounding of
# the division as well
_BOUND_ABS = 1e-12


def pointwise_fit_constants(u: GridFunction, alpha: float, region_radius: float | None = None):
    """The per-center quadratic fits P_c, in center order, and the pointwise
    Hoelder constant K = max_c K_c, with K_c = max_x |u(x) - P_c(x)| /
    |x - c|^(2+alpha) over the whole domain, the centers within region_radius,
    by default min(extent / 4, extent - 4h), of the origin.  Each P_c fits the
    ball of radius _FIT_RADIUS * extent about c, so K scales as e^-alpha
    under u -> e^2 u(x / e) on a lattice of extent e.

    Centers are lattice nodes, so ball membership is decided in integer
    offsets, (di^2 + dj^2) h^2 <= ball_reach(_FIT_RADIUS * extent)^2, and every
    center whose offset ball lies on defined nodes shares one design matrix, factored
    once by _fit_solve; its solve is applied to the values of each chunk of
    centers gathered in one block.  A center whose ball holds an undefined node
    is fitted alone by _fit_rows, on that design's rows at its defined nodes.

    K is taken in integer offsets too, |x - c|^(2+alpha) read from one table
    of ((di^2 + dj^2) h^2)^(1+alpha/2) whose zero offset holds inf, so each
    center drops out of its own K_c; _tiles bounds every (center, tile) pair
    and _lattice_max evaluates only the pairs those bounds leave.  Both take
    u and every P_c less Q0, the entrywise median of the P_c coefficients, so
    the bounds' rounding widening scales with the deviations and not with a
    quadratic the fits share.
    """
    g = u.grid
    if region_radius is None:
        region_radius = min(0.25 * g.extent, g.extent - 4 * g.h)
    ii, jj = np.nonzero(u.defined & g.ball(region_radius))
    keep = (ii % _FIT_STRIDE == 0) & (jj % _FIT_STRIDE == 0)
    ii, jj = ii[keep], jj[keep]
    if not len(ii):
        raise ValueError("no fit centers inside the requested region")
    radius = _FIT_RADIUS * g.extent
    reach = ball_reach(radius)
    m = int(reach / g.h) + 1
    di, dj = np.mgrid[-m:m + 1, -m:m + 1]
    ball = (di * di + dj * dj) * g.h**2 <= reach**2
    di, dj = di[ball], dj[ball]
    # NaN off the defined nodes and in a frame wide enough for every offset ball
    padded = np.pad(u.filled(np.nan), m, constant_values=np.nan)
    offsets = di * padded.shape[1] + dj
    flat = (ii + m) * padded.shape[1] + (jj + m)
    design = np.column_stack(_monomials(di * g.h / radius, dj * g.h / radius))
    solve = _fit_solve(design)
    cx, cy = g.X[ii, jj], g.Y[ii, jj]

    # physical coefficients, one column per center
    coef = np.empty((6, len(ii)))
    step = max(1, _BLOCK // len(di))
    for lo in range(0, len(ii), step):
        cols = np.arange(lo, min(lo + step, len(ii)))
        vals = padded.ravel()[flat[cols, None] + offsets]
        full = ~np.isnan(vals).any(axis=1)
        coef[:, cols[full]] = _physical(solve(vals[full].T), radius,
                                        cx[cols[full]], cy[cols[full]])
        for c, v in zip(cols[~full], vals[~full]):  # a clipped ball: its defined nodes' rows
            on = ~np.isnan(v)
            coef[:, c] = _physical(_fit_rows(design[on], v[on])[0], radius, cx[c], cy[c])
    # (u - Q0) - (P_c - Q0) is u - P_c in exact arithmetic; Q0 is np.median's
    # value, taken from one sort
    ordered, mid = np.sort(coef, axis=1), len(ii) // 2
    q0 = ordered[:, mid] if len(ii) % 2 else 0.5 * (ordered[:, mid - 1] + ordered[:, mid])
    shifted = GridFunction(g, u.values - _evaluate(q0, g.xs[:, None], g.xs), u.defined)
    K = _lattice_max(len(ii), *_tiles(shifted, coef - q0[:, None], ii, jj, alpha))
    return [QuadraticPolynomial(coef[:, c]) for c in range(len(ii))], K


def _tile_side(nodes: int) -> int:
    """Side t of the tiles that bound a lattice sup over this many nodes.  A
    seminorm bounds (nodes / t^2)^2 / 2 tile pairs and evaluates t^4 node
    pairs per tile pair it keeps; K_c bounds centers x nodes / t^2 (center,
    tile) pairs and evaluates t^2 nodes per pair it keeps, a few per center.
    Both costs balance near a quarter root of the node count, so t is about
    nodes^(1/4) / 2 for both; t^4 <= _BLOCK keeps one tile pair in a block."""
    return max(1, min(round(0.5 * nodes**0.25), math.isqrt(math.isqrt(_BLOCK))))


def _tiling(defined: np.ndarray):
    """The t x t tiles of the lattice, t = _tile_side of the node count of
    defined and the lattice padded past its frame to side n, that hold a node
    of defined: (cut, t, ti, tj, box, n).  cut(a) gives the entries of the
    lattice array a on those tiles, one row of t*t per tile in row-major
    order, NaN off defined; (ti, tj) are each tile's first row and column,
    and box = (rlo, rhi, clo, chi) the first and last lattice row and column
    of its defined nodes."""
    t = _tile_side(int(np.count_nonzero(defined)))
    N = defined.shape[0]
    nt = -(-N // t)
    n = nt * t

    def tiled(a, fill):
        a = np.pad(a, ((0, n - N),) * 2, constant_values=fill)
        return a.reshape(nt, t, nt, t).swapaxes(1, 2).reshape(nt * nt, t * t)

    present = tiled(defined, False)
    live = np.flatnonzero(present.any(axis=1))
    ti, tj = live // nt * t, live % nt * t
    box = []
    for axis, first in ((2, ti), (1, tj)):
        seen = present[live].reshape(-1, t, t).any(axis=axis)
        box += [first + np.argmax(seen, axis=1), first + t - 1 - np.argmax(seen[:, ::-1], axis=1)]

    def cut(a):
        return tiled(np.where(defined, a, np.nan), np.nan)[live]

    return cut, t, ti, tj, tuple(box), n


def _offset_powers(n: int, h: float, power: float) -> np.ndarray:
    """((di^2 + dj^2) h^2)^power for 0 <= di, dj < n, flat at di * n + dj, inf at
    (0, 0); from s = di^2 + dj^2 to s + 1 an entry grows by a relative power /
    (s + 1) or more, far above the rounding, so it never falls as s grows."""
    table = ((np.arange(n)[:, None] ** 2 + np.arange(n) ** 2) * h**2) ** power
    table[0, 0] = np.inf
    return table.ravel()


def _tiles(u: GridFunction, coef: np.ndarray, ii, jj, alpha: float):
    """The tiles of the lattice for the K_c of the quadratics in the columns of
    coef centered at the nodes (ii, jj): (count, t^2, bound, exact), t^2 the
    nodes exact reads for one pair.

    A node x contributes |u(x) - P_c(x)| / table[|i - i_c|, |j - j_c|], with
    P_c evaluated by _evaluate and NaN off the defined nodes, which a max
    skips.  _tiling cuts the lattice into t x t tiles, and the count tiles
    with a defined node each get the box of their defined nodes, a
    least-squares quadratic Q_t in index units about the box center and its
    largest node residual e_t (a minimum-norm fit of any rank: e_t bounds its
    residual).  bound(start, stop) gives, for the centers start to stop - 1,
    every tile's (e_t + max over the box of |Q_t - P_c|) / dmin^(2+alpha),
    with dmin the box's integer offset from c floored at h, widened by
    _BOUND_ABS for rounding, and 0, the index of its first tile; exact(cols,
    tids) gives the max contribution of center cols[p] over tile tids[p].
    """
    g = u.grid
    cut, t, ti, tj, (rlo, rhi, clo, chi), n = _tiling(u.defined)
    tiles = cut(u.values)
    present = ~np.isnan(tiles)
    count = len(ti)
    # each box's center, counted from its tile's first node, and half widths
    mr, mc = 0.5 * (rlo + rhi) - ti, 0.5 * (clo + chi) - tj
    wr, wc = 0.5 * (rhi - rlo), 0.5 * (chi - clo)
    xs = np.pad(g.xs, (0, n - g.N))  # X[i, j] = xs[i] and Y[i, j] = xs[j]
    flat = _offset_powers(n, g.h, 1.0 + 0.5 * alpha)

    a, b = np.divmod(np.arange(t * t), t)
    full = present.all(axis=1)
    fits, err = np.empty((6, count)), np.empty(count)
    local = np.column_stack(_monomials(a - 0.5 * (t - 1), b - 0.5 * (t - 1)))
    fits[:, full] = _lstsq(local)[0](tiles[full].T)
    err[full] = np.max(np.abs(tiles[full] - fits[:, full].T @ local.T), axis=1)
    on = present[~full, :, None]  # the partial tiles, the rows of undefined nodes zeroed
    design = np.stack(_monomials(a - mr[~full, None], b - mc[~full, None]), axis=-1) * on
    part = _lstsq(design)[0](np.where(on, tiles[~full, :, None], 0.0))
    fits[:, ~full] = part[..., 0].T
    err[~full] = np.fmax.reduce(np.abs(tiles[~full, :, None] - design @ part), axis=(1, 2))

    # P_c about each box center in index units: value and h times the gradient,
    # each one product with coef; h^2 times the Hessian is h^2 coef[3:]
    x0, y0 = xs[0] + (ti + mr) * g.h, xs[0] + (tj + mc) * g.h
    zero, one = np.zeros_like(x0), np.ones_like(x0)
    taylor = np.hstack([np.stack(_monomials(x0, y0)),
                        g.h * np.stack([zero, one, zero, x0, y0, zero]),
                        g.h * np.stack([zero, zero, one, zero, x0, y0])])
    reach = np.stack([0.5 * wr * wr, wr * wc, 0.5 * wc * wc])  # of the Hessian monomials
    # e_t plus the widening for the terms and values of each tile, and for the
    # largest term of each P_c on the lattice
    scale_t = (np.abs(fits[0]) + wr * np.abs(fits[1]) + wc * np.abs(fits[2])
               + np.sum(reach * np.abs(fits[3:]), axis=0) + np.fmax.reduce(np.abs(tiles), axis=1))
    const_t = err + _BOUND_ABS * scale_t
    e = g.extent
    scale_c = _BOUND_ABS * np.abs(coef).T @ np.array([1.0, e, e, 0.5 * e * e, e * e, 0.5 * e * e])
    hess_c = g.h**2 * coef[3:]

    def bound(start, stop):
        cols = np.arange(start, stop)
        ci, cj = ii[cols, None], jj[cols, None]
        p = coef[:, cols].T @ taylor
        out = np.add.outer(scale_c[cols], const_t)
        out += np.abs(np.subtract(fits[0], p[:, :count], out=p[:, :count]))
        for q, w, part in ((fits[1], wr, p[:, count:2 * count]), (fits[2], wc, p[:, 2 * count:])):
            np.subtract(q, part, out=part)
            np.abs(part, out=part)
            part *= w
            out += part
        for q, w, c in zip(fits[3:], reach, hess_c[:, cols, None]):
            part = np.abs(q - c)
            part *= w
            out += part
        di = np.maximum(np.maximum(rlo - ci, ci - rhi), 0)
        dj = np.maximum(np.maximum(clo - cj, cj - chi), 0)
        di *= n
        di += dj
        out /= flat[np.maximum(di, 1, out=di)]  # offset (0, 1) for the center's own tile
        return out, 0

    def exact(cols, tids):
        rows, lines = ti[tids, None] + np.arange(t), tj[tids, None] + np.arange(t)
        ratio = _evaluate(coef[:, cols, None, None], xs[rows][:, :, None], xs[lines][:, None, :])
        np.subtract(tiles[tids].reshape(-1, t, t), ratio, out=ratio)
        np.abs(ratio, out=ratio)
        ratio /= flat[(np.abs(rows - ii[cols, None]) * n)[:, :, None]
                      + np.abs(lines - jj[cols, None])[:, None, :]]
        return np.fmax.reduce(ratio.reshape(-1, t * t), axis=1)

    return count, t * t, bound, exact


def _holder_tiles(g, mask: np.ndarray, fields, alpha: float):
    """The tiles of the lattice for the pairwise seminorm of the lattice arrays
    in fields over the nodes of mask: (count, t^4, bound, exact), t^4 the
    node pairs exact reads for one tile pair.

    A pair of nodes (x, y) contributes max_k |v_k(x) - v_k(y)| over the
    _offset_powers entry of |x - y|^alpha, inf for x = y.
    _tiling cuts the lattice into t x t tiles, and the count tiles with a
    node each get the box of their nodes and every field's NaN-aware min and
    max there.  bound(start, stop) gives, for each tile A from start to
    stop - 1 against every tile B from start on, the largest over the fields
    of max(max_A v - min_B v, max_B v - min_A v) over the table entry of the
    boxes' integer offset floored at (0, 1), and -inf for B before A, and
    start, the index of its first tile B; exact(p, q) gives the max
    contribution of a node of tile p[s] and a node of tile q[s], each pair in
    the same expression.  No spread rounds below a difference of its nodes,
    nor is its entry larger than theirs, so a bound needs no widening.
    """
    nodes = int(np.count_nonzero(mask))
    if nodes < 2:
        raise ValueError(f"a pairwise seminorm needs at least 2 nodes, got {nodes}")
    cut, t, ti, tj, (rlo, rhi, clo, chi), _ = _tiling(mask)
    count = len(rlo)
    dr, dc = np.divmod(np.arange(t * t), t)
    rows, lines = ti[:, None] + dr, tj[:, None] + dc  # each tile's nodes, in cut's order
    n = max(np.ptp(rows), np.ptp(lines)) + 1  # past every offset of two tiles' nodes
    flat = _offset_powers(n, g.h, 0.5 * alpha)
    vals = [cut(v) for v in fields]
    lo = [np.fmin.reduce(v, axis=1) for v in vals]
    hi = [np.fmax.reduce(v, axis=1) for v in vals]

    def bound(start, stop):
        a, b = slice(start, stop), slice(start, count)
        spread, other = np.full((2, stop - start, count - start), -np.inf)
        for top, bottom in zip(hi, lo):
            np.maximum(spread, np.subtract(top[a, None], bottom[b], out=other), out=spread)
            np.maximum(spread, np.subtract(top[b], bottom[a, None], out=other), out=spread)
        di, dj = (np.maximum(np.maximum(first[b] - last[a, None], first[a, None] - last[b]), 0)
                  for first, last in ((rlo, rhi), (clo, chi)))
        di *= n
        di += dj
        spread /= flat[np.maximum(di, 1, out=di)]  # offset (0, 1) for a tile with itself
        spread[np.tri(*spread.shape, -1, dtype=bool)] = -np.inf
        return spread, start

    def exact(p, q):
        index = np.abs(np.subtract(rows[p, :, None], rows[q, None, :]))
        index *= n
        index += np.abs(np.subtract(lines[p, :, None], lines[q, None, :]))
        diff = np.abs(np.subtract(vals[0][p, :, None], vals[0][q, None, :]))
        other = np.empty_like(diff)
        for v in vals[1:]:
            np.abs(np.subtract(v[p, :, None], v[q, None, :], out=other), out=other)
            np.maximum(diff, other, out=diff)
        diff /= np.take(flat, index, out=other)
        return np.fmax.reduce(diff.reshape(len(p), -1), axis=1)

    return count, t**4, bound, exact


def _lattice_max(rows: int, cols: int, work: int, bound, exact) -> float:
    """Max of exact over the (row, column) pairs of a rows x cols lattice sup,
    by branch and bound; 0 if no pair's bound is positive.

    In row blocks of at most _BLOCK pairs, bound(start, stop) gives the bounds
    of rows start to stop - 1 against the columns from its second value,
    first, on.  The pairs whose bound beats the best value so far are
    evaluated in falling bound order by exact(p, q), which gives the values
    of the pairs (p[s], q[s]) from work entries each; so the result is the
    max over all pairs bit for bit.  The chunks of pairs to one exact call
    double from 1 up to _BLOCK // work over the search, so the best value
    rises from 0 before a large chunk is evaluated whatever its bounds.
    """
    step, per = max(1, _BLOCK // cols), max(1, _BLOCK // work)
    best, size = 0.0, 1
    for lo in range(0, rows, step):
        bounds, first = bound(lo, min(lo + step, rows))
        width = bounds.shape[1]
        bounds = bounds.ravel()
        pairs = np.flatnonzero(bounds > best)
        pairs = pairs[np.argsort(bounds[pairs])[::-1]]
        top = bounds[pairs]
        del bounds  # not held through the exact evaluations
        s = 0
        while s < len(top):
            take = pairs[s:s + size][top[s:s + size] > best]
            if not len(take):
                break
            best = max(best, float(np.max(exact(lo + take // width, first + take % width))))
            s, size = s + size, min(2 * size, per)
    return best


def _pairwise_holder(g, mask: np.ndarray, fields, alpha: float) -> float:
    """Max over distinct node pairs of mask of max_k |v_k(x) - v_k(y)| /
    |x - y|^alpha, with v_k the lattice arrays in fields, finite on mask;
    fewer than 2 nodes is an error.  _lattice_max searches the tile pairs
    of _holder_tiles, so the result is the max over all node pairs bit for bit.
    """
    count, *search = _holder_tiles(g, mask, fields, alpha)
    return _lattice_max(count, count, *search)


def discrete_hessian_seminorm(u: GridFunction, alpha: float, radius: float = 0.25) -> float:
    """Pairwise [D^2 u]_alpha over every ball node with a Hessian, entrywise
    max metric on the Hessian difference."""
    H = hessian(u)
    g = u.grid
    return _pairwise_holder(g, H.mask & g.ball(radius), (H.h11, H.h12, H.h22), alpha)


@dataclass
class CertificateReport:
    measured_seminorm: float
    bound: float
    satisfied: bool
    informational: bool
    ball_radius: float
    alpha_used: float


def certificate_check(u: GridFunction, spec, f: GridFunction | None,
                      constants: ConstantsReport, bounds: EllipticityBounds) -> CertificateReport:
    """Homogeneous: measured [D^2 u]_alpha_bar over B_(e/(4 Lam)), e the
    extent, against C1 e^-(2+alpha_bar) ||u||_inf (pass/fail).  Inhomogeneous:
    the accumulated-decay bound e^-alpha (2 + 2^(2+alpha))^2 2^alpha C4
    ((1/delta) e^alpha [f]_alpha + e^-2 ||u||_inf); the full closed-form
    constant is never stated explicitly, so the comparison is informational.
    Both are the unit-ball bounds of v(y) = u(e y) / e^2, source f(e y),
    pulled back to extent e, so measured / bound is invariant under the blow-up.
    Both pairwise seminorms, [D^2 u] over the ball and the source's over
    every defined node, are exact maxima over all their node pairs; a ball
    with fewer than 2 nodes of full 9-point stencil is an error that names it.
    """
    g = u.grid
    e = g.extent
    ball_radius = e / (4.0 * bounds.Lam)
    if ball_radius < 4.0 * g.h:
        raise ValueError("certificate ball under-resolved on this lattice")
    homogeneous = f is None or not np.any(np.abs(f.values[f.defined]) > 0)
    sup_u = u.sup()
    if not homogeneous and (constants.pair.alpha is None or constants.delta is None):
        raise ValueError("inhomogeneous certificate needs a full (alpha, alpha_bar) report")
    a = constants.pair.alpha_bar if homogeneous else constants.pair.alpha
    H = hessian(u)
    mask = H.mask & g.ball(ball_radius)
    nodes = int(np.count_nonzero(mask))
    if nodes < 2:
        raise ValueError(f"the certificate ball B_({e:g}/(4 Lambda)) of radius {ball_radius!r} holds "
                         f"{nodes} nodes with a full 9-point stencil; it needs at least 2")
    measured = _pairwise_holder(g, mask, (H.h11, H.h12, H.h22), a)
    if homogeneous:
        bound = float(constants.C1) * e ** -(2.0 + a) * sup_u
    else:
        f_semi = _pairwise_holder(f.grid, f.defined, (f.values,), a)
        T = float(1.0 / float(constants.delta)) * e**a * f_semi + e**-2.0 * sup_u
        bound = e**-a * float(pointwise_factor(a)) * 2.0**a * float(constants.C4) * T
    return CertificateReport(measured, bound, bool(measured <= bound), not homogeneous,
                             ball_radius, a)
