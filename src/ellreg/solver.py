"""Finite-difference Dirichlet solvers on masked 2-D grids.

Second derivatives use the central stencils exact on quadratics: the 3-point
stencil for u_xx/u_yy and the 4-point cross stencil for u_xy.

Both Dirichlet solves run one chord loop with boundary values fixed,

    u <- u - L^{-1} (F(D^2_h u) - f),     L = tr(W0 D^2_h),

from the boundary data with zero interior values.  The residual is measured
by differences (the second differences of u, then F) on the iterate before
it is touched, so the returned function reproduces its reported residual;
the sum b - A x would add more rounding than the residual it measures.  The
loop keeps its best iterate.  For a linear F = tr(W0 M) the first step is
the direct solve, and once the best residual meets the contract, a step that
fails to halve it ends the solve.  For the almost-linear F the perturbation
derivative of every catalog operator is bounded by eps < lam_min(W0), so the
frozen Jacobian stays close to DF and the step contracts.  When eps > 0,
every step after the first slow one (a cut of the max-node residual by less
than a fixed factor) is a Newton step, J d = F(D^2_h u) - f with
J = tr(DF(D^2_h u) D^2_h .) at the current iterate (D. A. Knoll and D. E.
Keyes, J. Comput. Phys. 193, 2004).  The 9-point stencil is not monotone, so
the residual may rise or stall: three steps without a new best residual end
the loop, which fails unless that best meets the contract.

No matrix is assembled.  Every stencil the loop meets stays within eps of
L, so one inverse serves them all: a multigrid V-cycle of W0's diagonal part
w11 u_xx + w22 u_yy on the lattice arrays themselves (red-black Gauss-Seidel
on masked levels of the interior's bounding box, full weighting, bilinear
interpolation and a dense solve on the coarsest level).  It preconditions
conjugate gradients on L, whose operator product adds W0's cross term, and
GMRES on each Newton Jacobian, whose product is the second differences
weighted by DF node by node.  Each iteration takes O(n) work and memory, and
the solver needs numpy alone.  Conjugate gradients keeps its residual in the
finest level's right-hand side b, which the V-cycle reads in place, and the
operator product in that level's r, free between cycles, so a CG iteration
adds only its iterate and search direction to the hierarchy's arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .grid import Grid2, GridFunction, SubRegion, neighbours

__all__ = [
    "HessianField",
    "SolverError",
    "hessian",
    "solve_fully_nonlinear",
    "solve_linear_dirichlet",
]


class SolverError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# discrete Hessian


@dataclass
class HessianField:
    """Per-node symmetric 2x2 second differences; NaN off the support mask."""

    h11: np.ndarray
    h12: np.ndarray
    h22: np.ndarray
    mask: np.ndarray


def _hessian_arrays(v: np.ndarray, h: float, mask: np.ndarray):
    """Second differences of the lattice array v at the nodes of mask, in
    row-major order (the order of the assembled unknowns); mask must stay off
    the lattice frame."""
    h2 = h * h
    c = v[1:-1, 1:-1]
    inner = mask[1:-1, 1:-1]
    h11 = (v[2:, 1:-1] - 2.0 * c + v[:-2, 1:-1])[inner] / h2
    h22 = (v[1:-1, 2:] - 2.0 * c + v[1:-1, :-2])[inner] / h2
    h12 = (v[2:, 2:] + v[:-2, :-2] - v[2:, :-2] - v[:-2, 2:])[inner] / (4.0 * h2)
    return h11, h12, h22


def hessian(u: GridFunction) -> HessianField:
    """Central second differences wherever the full 9-node stencil is defined."""
    stencil = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    support = np.logical_and.reduce(neighbours(u.defined, stencil, False))
    v = u.filled(0.0)
    h11, h12, h22 = (np.full_like(v, np.nan) for _ in range(3))
    h11[support], h12[support], h22[support] = _hessian_arrays(v, u.grid.h, support)
    return HessianField(h11, h12, h22, support)


# ---------------------------------------------------------------------------
# boundary / source data normalization


def _lattice_values(data, grid: Grid2, mask: np.ndarray, name: str, nodes: str) -> np.ndarray:
    """Full lattice array carrying data on ``mask`` (zero elsewhere); errors
    call the data ``name`` and the nodes of mask ``nodes`` nodes."""
    out = np.zeros((grid.N, grid.N))
    if callable(data):
        out[mask] = np.asarray(data(grid.X[mask], grid.Y[mask]), dtype=float)
    elif isinstance(data, GridFunction):
        if (mask & ~data.defined).any():
            raise ValueError(f"{name} not defined on every {nodes} node")
        out[mask] = data.values[mask]
    elif np.isscalar(data):
        out[mask] = float(data)
    else:
        arr = np.asarray(data, dtype=float)
        if arr.shape != (grid.N, grid.N):
            raise ValueError(f"{name} array must cover the full lattice")
        out[mask] = arr[mask]
    if not np.isfinite(out[mask]).all():
        raise ValueError(f"{name} must be finite on every {nodes} node")
    return out


# ---------------------------------------------------------------------------
# Krylov solves preconditioned by the multigrid V-cycle of W0's diagonal part

# The coarsest level spans at most _COARSEST_INTERVALS lattice intervals per
# side, so its dense matrix has at most 7^2 unknowns.  A Krylov solve stops
# after _KRYLOV_MAX_ITERATIONS CG or _GMRES_MAX_ITERATIONS GMRES iterations
# whatever its residual; the chord loop then judges the iterate like any
# other.  _PCG_TOL is a CG solve's stopping residual as a fraction of the
# chord loop's target; a Newton step's GMRES stops at _GMRES_RTOL of its
# right-hand side's 2-norm.  GMRES never restarts: the chord loop's next
# Newton step starts a fresh cycle from the true nonlinear residual.
_COARSEST_INTERVALS = 8
_KRYLOV_MAX_ITERATIONS = 100
_PCG_TOL = 0.1
_GMRES_RTOL = 1e-2
_GMRES_MAX_ITERATIONS = 40
_FIVE_POINT = ((1, 0), (-1, 0), (0, 1), (0, -1))
_DIAGONALS = ((1, 1), (-1, -1), (1, -1), (-1, 1))


class _Level:
    """One level of the hierarchy on the padded box: its interior mask, the
    mask as 0/1 floats, the weight ratio of a y-neighbour to an x-neighbour
    (which weighs 1), and work arrays that live as long as the level: the
    iterate x, the right-hand side b, and r, which holds the residual until
    it is restricted and then the interpolated correction; all are zero off
    the mask.  Between V-cycles the finest level's b holds the CG residual and
    its r the operator product.  apply reads the operator's diagonal divided
    by that ratio, a scalar on the finest level, where it is constant.

    The box has an odd number of columns n1 = 2 q + 1, so in row-major order
    the node (i, j) is red (i + j even) exactly when its flat index is even.
    Red node 2 t then has the black neighbours t - 1, t (left and right) and
    t - q - 1, t + q (up and down) in the black nodes' own order, and black
    node 2 t + 1 the red neighbours t, t + 1, t - q, t + q + 1.  A colour's
    Gauss-Seidel step is thus four shifted slices of the other colour; it
    covers the rows off the frame, and frame columns keep x zero because the
    inverse diagonal held for the step is zero off the mask."""

    def __init__(self, mask: np.ndarray, diag: np.ndarray | float, ratio: float):
        self.mask = mask
        self.weight = mask.astype(float)
        self.ratio = ratio
        self.x, self.b, self.r = (np.zeros(mask.shape) for _ in range(3))
        self.coarse: _Level | None = None
        self.inverse: np.ndarray | None = None  # the coarsest level's dense inverse
        n0, n1 = mask.shape
        self._diag_rows = diag / ratio if np.isscalar(diag) else (diag / ratio).ravel()[n1:-n1]
        self._weight_rows = self.weight.ravel()[n1:-n1]
        inv = (self.weight / diag).ravel()
        q = n1 // 2
        x, b = self.x.ravel(), self.b.ravel()
        red, black = x[0::2], x[1::2]
        scratch = np.empty((n0 - 1) * n1 // 2)  # the neighbour sums of either colour
        colours = []
        for p, (own, other, shifts) in enumerate(((red, black, (0, -1, q, -q - 1)),
                                                  (black, red, (1, 0, q + 1, -q)))):
            lo, hi = (n1 + 1 - p) // 2, ((n0 - 1) * n1 + 1 - p) // 2
            near = tuple(other[lo + d:hi + d] for d in shifts)
            colours.append((near, b[p::2][lo:hi], inv[p::2][lo:hi].copy(), own[lo:hi],
                            scratch[:hi - lo]))
        self.colours = tuple(colours)

    def apply(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = diag v minus the weighted neighbour sum at the interior nodes,
        zero elsewhere, for v zero off the mask; out's frame rows must be zero.
        It forms ((diag / ratio) v - the y-neighbours) ratio - the x-neighbours:
        with ratio 1 every product is exact, and the sum keeps one order."""
        n1 = v.shape[1]
        lo, hi = n1, v.size - n1
        v, o = v.ravel(), out.ravel()[lo:hi]
        np.multiply(self._diag_rows, v[lo:hi], out=o)
        for d in (-1, 1):
            o -= v[lo + d:hi + d]
        o *= self.ratio
        for d in (-n1, n1):
            o -= v[lo + d:hi + d]
        o *= self._weight_rows
        return out

    def smooth(self, colours) -> None:
        """Gauss-Seidel on x for b, in place, one colour after the other."""
        for near, b, inv, x, sum_ in colours:
            np.add(near[0], near[1], out=sum_)  # the y-neighbours
            sum_ *= self.ratio
            sum_ += near[2]
            sum_ += near[3]
            sum_ += b
            np.multiply(sum_, inv, out=x)

    def link(self, coarse: "_Level") -> None:
        """Make coarse the next level down, with the views its transfers use:
        restriction writes the full weighting of r onto the even-index nodes,
        times 4 (the transpose of bilinear interpolation), into coarse.b on
        its mask, by a row pass into a buffer and a column pass; interpolation
        writes coarse.x onto the even-index nodes of r, averages it onto the
        odd rows, then onto the odd columns."""
        self.coarse = coarse
        r, c = self.r, coarse.x
        t = np.empty(((r.shape[0] - 1) // 2 - 1, r.shape[1]))
        self._restrict = ((r[2:-1:2], r[1:-2:2], r[3::2], t),
                          (t[:, 2:-1:2], t[:, 1:-2:2], t[:, 3::2], coarse.b[1:-1, 1:-1]),
                          0.25 * coarse.weight[1:-1, 1:-1])
        self._prolong = ((c, r[::2, ::2]), (c[:-1], c[1:], r[1::2, ::2]),
                         (r[:, :-1:2], r[:, 2::2], r[:, 1::2]))

    def cycle(self) -> None:
        """One V-cycle from zero for b, into x; the coarsest level applies
        its dense inverse instead."""
        if self.coarse is None:
            self.x[self.mask] = self.inverse @ self.b[self.mask]
            return
        self.x.fill(0.0)
        self.smooth(self.colours)
        np.subtract(self.b, self.apply(self.x, self.r), out=self.r)
        self.restrict()
        self.coarse.cycle()
        self.prolong()
        self.r *= self.weight
        self.x += self.r
        self.smooth(self.colours[::-1])

    def restrict(self) -> None:
        """coarse.b = 4 times the full weighting of r, on coarse's mask."""
        rows, cols, weight = self._restrict
        for mid, low, high, out in (rows, cols):
            np.multiply(mid, 2.0, out=out)
            out += low
            out += high
        out *= weight

    def prolong(self) -> None:
        """r = the bilinear interpolation of coarse.x."""
        (c, even), *halves = self._prolong
        np.copyto(even, c)
        for low, high, out in halves:
            np.add(low, high, out=out)
            out *= 0.5


class _Multigrid:
    """Krylov solves on region for stencils close to tr(W0 D^2_h), W0 =
    [[w11, w12], [w12, w22]] symmetric positive definite, each preconditioned
    by one V-cycle of the 5-point stencil of W0's diagonal part, w11 u_xx +
    w22 u_yy, scaled by -h^2/w11: 2 + 2 r at the node, -1 at each interior
    x-neighbour and -r at each y-neighbour, r = w22/w11 (A. Brandt, Math.
    Comp. 31, 1977; O. Tatebe, Copper Mountain Conf. on Multigrid Methods,
    1993).  An x-neighbour weighs exactly 1, so a smoothing step and an
    operator product cost one multiplication more than for the Laplacian, and
    with w11 == w22 (r = 1) every product by a weight is exact.

    The levels live on the interior's bounding box with a one-node frame,
    padded to m 2^k + 1 nodes per side with m <= _COARSEST_INTERVALS; a coarse
    interior node is a fine interior node at even indices of the box, and a
    level with none ends the hierarchy.  A coarse level's operator is the
    5-point stencil of its spacing H, with the Dirichlet condition placed
    where the finest level has it: a missing neighbour whose boundary lies
    t H away, t <= 1, adds its weight times 1/t - 1 to the diagonal (the
    linear extrapolation of G. H. Shortley and R. Weller, J. Appl. Phys. 9,
    1938), which keeps the operator symmetric.  A V-cycle smooths with
    red-black Gauss-Seidel (red then black going down, black then red coming
    up), restricts by full weighting, interpolates bilinearly and solves the
    coarsest level by the inverse of its dense matrix, so the preconditioner
    is symmetric positive definite.

    solve(r) solves A x = r for A the stencil matrix of tr(W0 D^2_h) by
    conjugate gradients on -h^2/w11 A; a cross term adds -(w12 / (2 w11))
    times the diagonal neighbours' cross sum to each operator product.  That
    matrix is symmetric, and its quadratic form is at least 1 - rho times the
    diagonal part's, rho = |w12| / sqrt(w11 w22) < 1, so the V-cycle stays an
    equivalent preconditioner (O. Axelsson and J. Karatson, Acta Numerica
    18, 2009).  A solve stops once the max-node residual of A x = r, as CG
    updates it, is at most atol.  newton(coeffs, r) solves a Newton step's
    J d = r by GMRES.  iterations holds the iteration count of every solve."""

    def __init__(self, w11: float, w12: float, w22: float, h: float, region: SubRegion,
                 atol: float):
        interior = region.interior
        if not interior.any():
            raise SolverError("region has no interior nodes")
        # the stencil must reach only defined nodes from every interior node
        offsets = (*_FIVE_POINT, *(_DIAGONALS if w12 else ()))
        if not np.logical_and.reduce(neighbours(region.defined, offsets, False))[interior].all():
            raise SolverError("interior stencil reaches an undefined node")
        rows, cols = (np.flatnonzero(interior.any(axis=a)) for a in (1, 0))
        lo = (rows[0] - 1, cols[0] - 1)
        span = (rows[-1] + 1 - lo[0], cols[-1] + 1 - lo[1])
        k = 0
        while max(span) > _COARSEST_INTERVALS << k:
            k += 1
        mask = np.zeros(tuple((-(-s >> k) << k) + 1 for s in span), dtype=bool)
        mask[:span[0], :span[1]] = interior[lo[0]:lo[0] + span[0], lo[1]:lo[1] + span[1]]
        ratio = w22 / w11
        weights = (1.0, 1.0, ratio, ratio)  # of _FIVE_POINT's offsets
        self._top = level = _Level(mask, 2.0 + 2.0 * ratio, ratio)
        for depth in range(1, k + 1):
            stride = 1 << depth
            coarse = mask[::stride, ::stride]
            if not coarse.any():
                break
            diag = np.full(coarse.shape, 2.0 + 2.0 * ratio)
            for w, (di, dj), missing in zip(weights, _FIVE_POINT,
                                            neighbours(~coarse, _FIVE_POINT, True)):
                # t: the fine steps to the first node off the mask, read where a
                # coarse neighbour is missing, so at most one coarse spacing
                t = np.full(coarse.shape, stride)
                ahead = neighbours(mask, [(s * di, s * dj) for s in range(1, stride)], False)
                for s, on in reversed(list(enumerate(ahead, 1))):
                    t[~on[::stride, ::stride]] = s
                diag += np.where(missing, w * (stride / t - 1.0), 0.0)
            level.link(_Level(coarse, diag, ratio))
            level = level.coarse
        # the coarsest matrix, column by column from the level's own operator
        nodes = np.flatnonzero(level.mask)
        M, (e, out) = np.empty((nodes.size, nodes.size)), np.zeros((2, *level.mask.shape))
        for j, node in enumerate(nodes):
            e.flat[node] = 1.0
            M[:, j] = level.apply(e, out)[level.mask]
            e.flat[node] = 0.0
        level.inverse = np.linalg.inv(M)
        # the cross term's weight at each node of the box's inner rows and columns
        self._cross = None if w12 == 0.0 else -0.5 * w12 / w11 * self._top.weight[1:-1, 1:-1]
        self._h = h
        self._scale = h * h / w11  # -h^2/w11 A is the finest level's operator
        self._atol = atol * self._scale
        self.iterations: list[int] = []

    def solve(self, r: np.ndarray) -> np.ndarray:
        top = self._top
        res, q = top.b, top.r  # the V-cycle reads res in place; q holds A p between cycles
        res[top.mask] = -self._scale * r
        x, p = np.zeros_like(res), np.zeros_like(res)
        it, rz_old = 0, None
        while max(res.max(), -res.min()) > self._atol and it < _KRYLOV_MAX_ITERATIONS:
            top.cycle()
            z = top.x
            rz = np.einsum("ij,ij->", res, z)
            if rz_old is not None:
                p *= rz / rz_old
            p += z
            top.apply(p, q)
            if self._cross is not None:
                q[1:-1, 1:-1] += self._cross * (p[2:, 2:] + p[:-2, :-2] - p[2:, :-2] - p[:-2, 2:])
            alpha = rz / np.einsum("ij,ij->", p, q)
            q *= alpha
            res -= q
            np.multiply(p, alpha, out=q)
            x += q
            rz_old = rz
            it += 1
        self.iterations.append(it)
        return x[top.mask]

    def newton(self, coeffs, r: np.ndarray) -> np.ndarray:
        """d with |J d - r| <= _GMRES_RTOL |r| in the 2-norm, or the iterate
        after _GMRES_MAX_ITERATIONS iterations, for J d = c11 d_xx + 2 c12
        d_xy + c22 d_yy with the per-node coefficients coeffs = (c11, c12,
        c22).  J is not symmetric, so it runs one cycle of GMRES (Y. Saad and
        M. H. Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) right-preconditioned
        by one V-cycle, from zero; the Krylov basis grows one vector per
        iteration, so it holds at most _GMRES_MAX_ITERATIONS vectors.  A
        residual estimate that is not finite makes the step zero."""
        top, mask = self._top, self._top.mask
        c11, c12, c22 = coeffs

        def jacobian(z):  # z is a box array, zero off the mask
            h11, h12, h22 = _hessian_arrays(z, self._h, mask)
            return c11 * h11 + 2.0 * c12 * h12 + c22 * h22

        def cycle(v):  # v times the V-cycle's inverse of W0's diagonal stencil
            top.b[mask] = -self._scale * v
            top.cycle()
            return top.x

        def norm(v):
            return math.sqrt(np.einsum("i,i->", v, v))

        stop = _GMRES_RTOL * norm(r)
        w, beta = r, norm(r)
        basis, cols, rotations, g = [], [], [], [beta]
        while abs(g[-1]) > stop and len(basis) < _GMRES_MAX_ITERATIONS:
            basis.append(w / beta)
            w = jacobian(cycle(basis[-1]))
            col = []
            for v in basis:  # modified Gram-Schmidt
                col.append(np.einsum("i,i->", v, w))
                w -= col[-1] * v
            beta = norm(w)
            for k, (c, s) in enumerate(rotations):  # the Givens rotations so far
                col[k], col[k + 1] = c * col[k] + s * col[k + 1], c * col[k + 1] - s * col[k]
            rho = math.hypot(col[-1], beta)
            c, s = col[-1] / rho, beta / rho
            col[-1] = rho
            rotations.append((c, s))
            g[-1:] = [c * g[-1], -s * g[-1]]
            cols.append(col)
        self.iterations.append(len(basis))
        if not (cols and math.isfinite(g[-1]) and math.isfinite(beta)):
            # a zero residual, or a NaN; the chord loop's checks end a solve that stalls
            return np.zeros(len(r))
        R = np.zeros((len(cols), len(cols)))
        for j, col in enumerate(cols):
            R[:j + 1, j] = col
        y = np.linalg.solve(R, g[:-1])
        return cycle(sum(yj * v for yj, v in zip(y, basis)))[mask]


# ---------------------------------------------------------------------------
# Dirichlet solves: one chord loop

# A linear solve returns a residual of at most _RESIDUAL_TOL * max(|g| / e^2,
# |f|), e the extent, or the rounding floor where larger (_dirichlet), and aims
# at 0.05 of the first in at most _REFINEMENTS steps after the direct solve.
# After the first step (eps > 0) that cuts the residual by less than
# _SLOW_CONTRACTION every step is a Newton step; _STALL steps in a row without a
# new best end the loop; meta["residual_history"] keeps _HISTORY_CAP residuals.
_RESIDUAL_TOL = 1e-10
_UNIT_ROUNDOFF = 2.0**-53
_REFINEMENTS = 3
_SLOW_CONTRACTION = 0.25
_STALL = 3
_HISTORY_CAP = 100


def _dirichlet(spec, f, g, grid: Grid2, region: SubRegion | None, tol: float | None,
               max_sweeps: int | None, linear: bool) -> GridFunction:
    """The chord loop of the module docstring, from u = g with zero interior.

    linear only sets the contract: tol = _RESIDUAL_TOL * max(|g| / extent^2,
    |f|), which the blow-up u -> e^2 u(x / e) leaves unchanged as it does the
    residual, an aim of 0.05 tol and 1 + _REFINEMENTS steps; else the aim is tol.
    The loop returns its best iterate once a residual meets the aim or, with
    the best within accept, a step fails to halve it; after max_sweeps steps or
    _STALL steps in a row without a new best it raises SolverError unless
    the best meets accept, and meta["tol"] is tol or, if the best misses
    tol, accept.  A linear accept is the larger of tol and the normwise
    backward-error floor u (||A||_inf ||x||_inf + ||b||_inf) (W. Oettli and
    W. Prager, Numer. Math. 6, 1964): u is the unit roundoff, ||A||_inf =
    (4 w11 + 4 w22 + 2 |w12|) / h^2 the stencil's row sum and ||x||_inf is
    taken as max|g|.  The stencil scales like 1/h^2, so on a fine lattice
    rounding alone can leave more than tol.  Any other accept is tol.
    """
    region = region or grid.region
    interior, boundary = region.interior, region.boundary
    v = _lattice_values(g, grid, boundary, "boundary data", "boundary")
    # no source is the scalar 0, which subtracts from a residual as a zero array does
    f_int = 0.0 if f is None else _lattice_values(f, grid, interior, "source",
                                                  "interior")[interior]
    g_max = float(np.max(np.abs(v[boundary]), initial=0.0))
    f_max = float(np.max(np.abs(f_int), initial=0.0))
    h = grid.h
    if linear:
        tol = _RESIDUAL_TOL * (max(g_max / grid.extent**2, f_max) or 1.0)
        target, max_sweeps = 0.05 * tol, 1 + _REFINEMENTS
        stencil_norm = (4.0 * spec.w11 + 4.0 * spec.w22 + 2.0 * abs(spec.w12)) / (h * h)
        accept = max(tol, _UNIT_ROUNDOFF * (stencil_norm * g_max + f_max))
    else:
        target = tol = accept = 1e-8 * (g_max + f_max + 1.0) if tol is None else tol
    inverse = _Multigrid(spec.w11, spec.w12, spec.w22, h, region, _PCG_TOL * target)

    history: list[float] = []
    best = prev = np.inf
    stall = newton_steps = sweeps = 0
    while True:
        H = _hessian_arrays(v, h, interior)
        resid = operators.evaluate_batch(spec, *H) - f_int
        res = float(np.max(np.abs(resid)))
        if not np.isfinite(res):
            raise SolverError("iteration produced non-finite values")
        if len(history) < _HISTORY_CAP:
            history.append(res)
        if res <= target:
            break
        # past the rounding floor a step trades one rounding error for another
        floor = best <= accept and res > 0.5 * best
        if res < best:
            best, kept, stall = res, v[interior], 0
        else:
            stall += 1
        if floor or stall >= _STALL or sweeps >= max_sweeps:
            if best > accept:
                why = (f"stalled: no new best residual in {_STALL} sweeps" if stall >= _STALL
                       else f"no convergence in {max_sweeps} sweeps")
                raise SolverError(f"{why} (best residual {best:.3e}, tol {accept:.3e})")
            v[interior], res = kept, best
            if best > tol:
                tol = accept
            break
        if spec.eps != 0 and (newton_steps or res > _SLOW_CONTRACTION * prev):
            # from the first slow step on, every step is a Newton step
            v[interior] -= inverse.newton(operators.gradient_batch(spec, *H), resid)
            newton_steps += 1
        else:
            del H  # not held through the linear solve
            v[interior] -= inverse.solve(resid)
        prev = res
        sweeps += 1

    v[~region.defined] = np.nan
    out = GridFunction(grid, v, region.defined.copy())
    out.meta.update(residual=res, sweeps=sweeps, tol=tol, residual_history=history,
                    newton_steps=newton_steps, mg_iterations=inverse.iterations)
    return out


def solve_linear_dirichlet(W0, f, g, grid: Grid2,
                           region: SubRegion | None = None) -> GridFunction:
    """Solve tr(W0 D^2_h u) = f, W0 symmetric positive definite, with u = g
    on the region boundary: one chord step, which is the direct solve, then
    at most _REFINEMENTS refinements.

    Raises SolverError if the stencil residual exceeds both _RESIDUAL_TOL *
    max(|g| / extent^2, |f|) and the rounding floor u (||A||_inf max|g| +
    max|f|), u the unit roundoff; meta["tol"] is the first if the residual
    meets it, else the floor.  Each sweep solves the stencil by conjugate gradients
    preconditioned by the multigrid V-cycle of W0's diagonal part, and
    meta["mg_iterations"] lists its iteration count per sweep.
    """
    return _dirichlet(operators.make_spec(W0), f, g, grid, region, None, None, linear=True)


def solve_fully_nonlinear(spec, f, g, grid: Grid2, region: SubRegion | None = None,
                          tol: float | None = None, max_sweeps: int = 1_000_000) -> GridFunction:
    """Solve F(D^2_h u) = f with u = g on the region boundary.

    max_sweeps bounds the outer (chord or Newton) iterations.  Raises
    ValueError unless tol (when given) is positive and finite and max_sweeps
    nonnegative, and SolverError on non-finite iterates, or on an exhausted
    budget or _STALL steps in a row without a new best residual when the best
    does not meet tol.  meta["newton_steps"] counts the Newton steps, and
    meta["mg_iterations"] lists the Krylov iterations of every sweep: CG for
    a chord sweep, GMRES for a Newton step, each preconditioned by the
    multigrid V-cycle of W0's diagonal part.
    """
    if tol is not None and not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be nonnegative, got {max_sweeps!r}")
    return _dirichlet(spec, f, g, grid, region, tol, max_sweeps, linear=False)

