"""Finite-difference Dirichlet solvers on masked 2-D grids.

Second derivatives use the central stencils exact on quadratics: the 3-point
stencil for u_xx/u_yy and the 4-point cross stencil for u_xy.

Both Dirichlet solves run one chord loop with boundary values fixed,

    u <- u - L^{-1} (F(D^2_h u) - f),     L = tr(W0 D^2_h) inverted once,

from the boundary data with zero interior values.  The residual is measured
by differences (the second differences of u, then F) on the iterate before
it is touched, so the returned function reproduces its reported residual;
the sum b - A x would add more rounding than the residual it measures.  For
a linear F = tr(W0 M) the first step is the direct solve and later steps
refine it until one fails to halve the residual; the best iterate is
verified against the contract.  For the almost-linear F the perturbation
derivative of every catalog operator is bounded by eps < lam_min(W0), so the
frozen Jacobian stays close to DF and the step contracts.  An iteration that
cuts the max-node residual by less than a fixed factor refactors L with
DF(D^2_h u) at the current iterate (a Newton step).  The 9-point stencil is
not monotone, so a residual that keeps growing is reported as divergence.

L^{-1} is chosen by the stencil alone.  A W0 without cross term,
w11 u_xx + w22 u_yy (every Laplace solve, the harmonic replacement, and the
chord matrix of such a W0, linear or not), is inverted by conjugate gradients
preconditioned with one multigrid V-cycle on the lattice arrays themselves:
red-black Gauss-Seidel on masked levels of the interior's bounding box, full
weighting, bilinear interpolation and a dense solve on the coarsest level.
It assembles no matrix, takes O(n) work and memory per iteration, and needs
numpy alone.

A W0 with cross term and every Newton Jacobian are assembled as the sparse
Jacobian of tr(C D^2_h v) in the interior unknowns (5-point for diagonal C,
9-point with cross terms), written straight into compressed-column arrays
and factored whole by sparse LU.  The factor builder assembles the matrix A
itself and keeps no reference to it once the factor exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .grid import Grid2, GridFunction, SubRegion, neighbours

__all__ = [
    "ComparisonResult",
    "HessianField",
    "SolverError",
    "comparison_check",
    "hessian",
    "solve_fully_nonlinear",
    "solve_laplace_dirichlet",
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


def _field_values(f, grid: Grid2, mask: np.ndarray) -> np.ndarray:
    """The source on the interior nodes mask; None is zero."""
    if f is None:
        return np.zeros((grid.N, grid.N))
    return _lattice_values(f, grid, mask, "source", "interior")


# ---------------------------------------------------------------------------
# stencil assembly and factorization


def _interior_count(region: SubRegion) -> int:
    m = int(region.interior.sum())
    if m == 0:
        raise SolverError("region has no interior nodes")
    return m


def _check_reach(region: SubRegion, offsets) -> None:
    """SolverError unless the stencil of these offsets reaches only defined
    nodes from every interior node."""
    if not np.logical_and.reduce(neighbours(region.defined, offsets, False))[region.interior].all():
        raise SolverError("interior stencil reaches an undefined node")


def _assemble(c11, c12, c22, h: float, region: SubRegion):
    """Sparse matrix of v -> tr(C D^2_h v) in the interior unknowns of region,
    for scalar or per-interior-node coefficients; boundary neighbours drop out.

    The compressed-column arrays are written directly (T. Davis, Direct
    Methods for Sparse Linear Systems, 2006, ch. 2), with int32 indices: an
    (m, T) block holds, for each of the m columns and T stencil terms, the
    row whose term reaches that column's node and its coefficient.  With the
    terms in descending offset order those rows ascend, so every column comes
    out sorted and the matrix is canonical."""
    from scipy.sparse import csc_matrix  # deferred: constants and cordes runs never assemble

    interior = region.interior
    m = _interior_count(region)
    inv = 1.0 / (h * h)
    a, b, c = (np.broadcast_to(np.asarray(x, dtype=float) * inv, (m,)) for x in (c11, c12, c22))
    terms = {(0, 0): -2.0 * (a + c), (1, 0): a, (-1, 0): a, (0, 1): c, (0, -1): c}
    if np.any(b != 0.0):
        q = 0.5 * b
        terms.update({(1, 1): q, (-1, -1): q, (1, -1): -q, (-1, 1): -q})
    offsets = sorted(terms, reverse=True)
    _check_reach(region, offsets)
    idx = np.full(interior.shape, -1, dtype=np.int32)
    idx[interior] = np.arange(m, dtype=np.int32)
    # the row at (i - di, j - dj) reaches the column's node (i, j); -1 (no
    # interior row there) picks a value the mask below drops
    row_of = neighbours(idx, [(-di, -dj) for di, dj in offsets], -1)
    rows = np.empty((m, len(terms)), dtype=np.int32)
    vals = np.empty((m, len(terms)))
    for t, (di, dj) in enumerate(offsets):
        rows[:, t] = row_of[t][interior]
        vals[:, t] = terms[di, dj][rows[:, t]]
    keep = rows >= 0
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1, dtype=np.int32), out=indptr[1:])
    indices = rows[keep]
    del rows  # the peak then holds one block of row indices, not two
    return csc_matrix((vals[keep], indices, indptr), shape=(m, m))


# SuperLU's default relaxed supernodes (relax=20) amalgamate small subtrees of
# the elimination tree into dense blocks; on these 2-D stencil matrices that
# stores explicit zeros, and the default panel_size=10 allocates wide panel
# work arrays.  With relax=1 the factor stores exactly its fill
# (lu.nnz == L.nnz + U.nnz of the default factor); the solutions move by
# rounding only, at most 1.6e-14 of max|u| on the benchmark's solves and an
# N=513 9-point solve.  Median factor seconds on a 2-core Xeon, BLAS on 1 thread:
#
#   matrix                               default  panel 2  panel 4  panel 8
#   9-pt square N=65 (w12 = 0.15)         0.014    0.011    0.008    0.008
#   5-pt disk N=81                        0.020    0.009    0.009    0.012
#   5-pt replacement disk N=257, r=0.8    0.184    0.092    0.086    0.112
#   5-pt replacement disk N=513, r=0.8    1.16     0.67     0.55     0.70
#   9-pt disk N=513 (w12 = 0.15)          5.68     2.70     2.25     3.02
#
# At N=513 the stored entries fall from 10.2M to 8.05M (5-point) and from
# 39.1M to 26.4M (9-point), and the peak resident memory of the factorization
# falls by 65 MB and 191 MB; panel 8 costs 9 MB more than 4 on the 5-point
# matrix.
_SUPERNODE_RELAX = 1
_PANEL_SIZE = 4


def _factor(A):
    # The stencil matrix is structurally symmetric, so a minimum-degree
    # ordering of A^T + A keeps the LU fill well below the column ordering's.
    from scipy.sparse.linalg import splu

    try:
        return splu(A, permc_spec="MMD_AT_PLUS_A", relax=_SUPERNODE_RELAX,
                    panel_size=_PANEL_SIZE)
    except RuntimeError as exc:
        raise SolverError(f"stencil factorization failed: {exc}") from None


def _factor_stencil(c11, c12, c22, h: float, region: SubRegion):
    """LU factor of the stencil matrix of tr(C D^2_h) on region, with .solve(r)
    and .nnz; the matrix it assembles is dropped once the factor exists."""
    return _factor(_assemble(c11, c12, c22, h, region))


# ---------------------------------------------------------------------------
# multigrid-preconditioned conjugate gradients (5-point stencil, no cross term)

# The coarsest level spans at most _COARSEST_INTERVALS lattice intervals per
# side, so its dense matrix has at most 7^2 unknowns.  A solve stops after
# _PCG_MAX_ITERATIONS iterations whatever its residual; the chord loop then
# judges the iterate like any other.  _PCG_TOL is the solve's stopping
# residual as a fraction of the chord loop's target.
_COARSEST_INTERVALS = 8
_PCG_MAX_ITERATIONS = 100
_PCG_TOL = 0.1
_FIVE_POINT = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _boundary_steps(mask: np.ndarray) -> list:
    """For each offset of _FIVE_POINT, the number of steps of that offset from
    each node to the first node off mask (mask must be false on its frame)."""

    def along_rows(m):
        n = m.shape[0]
        pos = np.arange(n)[:, None]
        ahead = np.minimum.accumulate(np.where(m, n, pos)[::-1], axis=0)[::-1]
        behind = np.maximum.accumulate(np.where(m, -1, pos), axis=0)
        fwd, back = np.full(m.shape, n), np.full(m.shape, n)
        fwd[:-1], back[1:] = ahead[1:] - pos[:-1], pos[1:] - behind[:-1]
        return [fwd, back]

    return along_rows(mask) + [a.T for a in along_rows(mask.T)]


def _dense_inverse(level: "_Level", weights) -> np.ndarray:
    """Inverse of the level's operator as a dense matrix on its mask's nodes,
    weights being the neighbour weights of _FIVE_POINT's offsets."""
    mask = level.mask
    n = int(mask.sum())
    idx = np.full(mask.shape, -1)
    idx[mask] = np.arange(n)
    M = np.diag(level.diag[mask] * level.ratio)
    for w, nb in zip(weights, neighbours(idx, _FIVE_POINT, -1)):
        j = nb[mask]
        M[np.flatnonzero(j >= 0), j[j >= 0]] = -w
    return np.linalg.inv(M)


class _Level:
    """One level of the hierarchy on the padded box: its interior mask, the
    mask as 0/1 floats, the weight ratio of a y-neighbour to an x-neighbour
    (which weighs 1), the diagonal of its operator divided by that ratio (the
    factor apply takes), and work arrays that live as long as the level: the
    iterate x, the right-hand side b, and r, which holds the residual until
    it is restricted and then the interpolated correction; all are zero off
    the mask.

    The box has an odd number of columns n1 = 2 q + 1, so in row-major order
    the node (i, j) is red (i + j even) exactly when its flat index is even.
    Red node 2 t then has the black neighbours t - 1, t (left and right) and
    t - q - 1, t + q (up and down) in the black nodes' own order, and black
    node 2 t + 1 the red neighbours t, t + 1, t - q, t + q + 1.  A colour's
    Gauss-Seidel step is thus four shifted slices of the other colour; it
    covers the rows off the frame, and frame columns keep x zero because the
    inverse diagonal held for the step is zero off the mask."""

    def __init__(self, mask: np.ndarray, diag: np.ndarray, ratio: float):
        self.mask = mask
        self.weight = mask.astype(float)
        self.diag = diag * self.weight / ratio
        self.ratio = ratio
        self.x, self.b, self.r = (np.zeros(mask.shape) for _ in range(3))
        self.coarse: _Level | None = None
        self.inverse: np.ndarray | None = None  # the coarsest level's dense inverse
        n0, n1 = mask.shape
        self._diag_rows, self._weight_rows = (a.ravel()[n1:-n1] for a in (self.diag, self.weight))
        inv = (self.weight / diag).ravel()
        q = n1 // 2
        x, b = self.x.ravel(), self.b.ravel()
        red, black = x[0::2], x[1::2]
        colours = []
        for p, (own, other, shifts) in enumerate(((red, black, (0, -1, q, -q - 1)),
                                                  (black, red, (1, 0, q + 1, -q)))):
            lo, hi = (n1 + 1 - p) // 2, ((n0 - 1) * n1 + 1 - p) // 2
            near = tuple(other[lo + d:hi + d] for d in shifts)
            colours.append((near, b[p::2][lo:hi], inv[p::2][lo:hi].copy(), own[lo:hi],
                            np.empty(hi - lo)))
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
    """Solves A x = r for A the stencil matrix of w11 u_xx + w22 u_yy on
    region, w11, w22 > 0, by conjugate gradients on -h^2/w11 A (2 + 2 r at
    the node, -1 at each interior x-neighbour and -r at each y-neighbour,
    r = w22/w11) preconditioned by one V-cycle (A. Brandt, Math. Comp. 31,
    1977; O. Tatebe, Copper Mountain Conf. on Multigrid Methods, 1993).  An
    x-neighbour weighs exactly 1, so a smoothing step and an operator product
    cost one multiplication more than for the Laplacian, and with w11 == w22
    (r = 1) every product by a weight is exact.

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
    is symmetric positive definite.  A solve stops once the max-node residual
    of A x = r, as CG updates it, is at most atol; iterations holds the
    iteration count of every solve."""

    def __init__(self, w11: float, w22: float, h: float, region: SubRegion, atol: float):
        _interior_count(region)
        _check_reach(region, ((0, 0), *_FIVE_POINT))
        interior = region.interior
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
        self._top = level = _Level(mask, np.full(mask.shape, 2.0 + 2.0 * ratio), ratio)
        steps = _boundary_steps(mask) if k else []
        for depth in range(1, k + 1):
            stride = 1 << depth
            coarse = mask[::stride, ::stride]
            if not coarse.any():
                break
            diag = np.full(coarse.shape, 2.0 + 2.0 * ratio)
            for w, t, missing in zip(weights, steps, neighbours(~coarse, _FIVE_POINT, True)):
                diag += np.where(missing, w * (stride / t[::stride, ::stride] - 1.0), 0.0)
            level.link(_Level(coarse, diag, ratio))
            level = level.coarse
        level.inverse = _dense_inverse(level, weights)
        self._scale = h * h / w11  # -h^2/w11 A is the finest level's operator
        self._atol = atol * self._scale
        self.iterations: list[int] = []

    def solve(self, r: np.ndarray) -> np.ndarray:
        top = self._top
        res = np.zeros(top.mask.shape)
        res[top.mask] = -self._scale * r
        x, p, q = np.zeros_like(res), np.zeros_like(res), np.zeros_like(res)
        it, rz_old = 0, None
        while np.max(np.abs(res)) > self._atol and it < _PCG_MAX_ITERATIONS:
            np.copyto(top.b, res)
            top.cycle()
            z = top.x
            rz = np.einsum("ij,ij->", res, z)
            if rz_old is not None:
                p *= rz / rz_old
            p += z
            top.apply(p, q)
            alpha = rz / np.einsum("ij,ij->", p, q)
            q *= alpha
            res -= q
            np.multiply(p, alpha, out=q)
            x += q
            rz_old = rz
            it += 1
        self.iterations.append(it)
        return x[top.mask]


# ---------------------------------------------------------------------------
# Dirichlet solves: one chord loop

# A linear solve returns a residual of at most _RESIDUAL_TOL * max(|g|, |f|)
# and aims at 0.05 of that in at most _REFINEMENTS steps after the direct
# solve.  A nonlinear step that cuts the residual by less than
# _SLOW_CONTRACTION refactors the Jacobian; _GROWTH_LIMIT consecutive increases
# mean divergence; meta["residual_history"] keeps the first _HISTORY_CAP residuals.
_RESIDUAL_TOL = 1e-10
_REFINEMENTS = 3
_SLOW_CONTRACTION = 0.25
_GROWTH_LIMIT = 3
_HISTORY_CAP = 100


def _dirichlet(spec, f, g, grid: Grid2, region: SubRegion | None, tol: float | None,
               max_sweeps: int, linear: bool) -> GridFunction:
    """The chord loop of the module docstring, from u = g with zero interior.

    linear: stop at 0.05 of the contract, after max_sweeps steps or once a step
    fails to halve the residual, keep the best iterate, and raise unless its
    residual meets the contract, meta["tol"].  Otherwise stop at tol, refactor
    L with DF(D^2_h u) after a slow step, raise on an exhausted budget or growth.
    """
    region = region or grid.region
    interior, boundary = region.interior, region.boundary
    v = _lattice_values(g, grid, boundary, "boundary data", "boundary")
    ffull = _field_values(f, grid, interior)
    g_max = float(np.max(np.abs(v[boundary]), initial=0.0))
    f_max = float(np.max(np.abs(ffull[interior]), initial=0.0))
    if linear:
        scale = max(g_max, f_max) or 1.0
        tol = _RESIDUAL_TOL * scale
        target = 0.05 * tol
    else:
        target = tol = 1e-8 * (g_max + f_max + 1.0) if tol is None else tol
    h = grid.h
    f_int = ffull[interior]
    mg_iterations = factor_nnz = None
    if spec.w12 == 0.0:
        inverse = _Multigrid(spec.w11, spec.w22, h, region, _PCG_TOL * target)
        mg_iterations = inverse.iterations
    else:
        inverse = _factor_stencil(spec.w11, spec.w12, spec.w22, h, region)
        factor_nnz = inverse.nnz

    history: list[float] = []
    prev = np.inf
    grow = refactors = sweeps = 0
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
        if linear and (res > 0.5 * prev or sweeps >= max_sweeps):
            # past the rounding floor a step trades one rounding error for another
            if res >= prev:
                v[interior], res = best, prev
            break
        if sweeps >= max_sweeps:
            raise SolverError(f"no convergence in {max_sweeps} sweeps (residual {res:.3e})")
        grow = grow + 1 if res > prev * (1.0 + 1e-12) else 0
        if grow >= _GROWTH_LIMIT:
            raise SolverError(f"residual diverging (grew for {grow} consecutive sweeps)")
        if linear:
            best = v[interior]
        elif res > _SLOW_CONTRACTION * prev:
            inverse = None  # release the old inverse before the new one is built
            coeffs = operators.gradient_batch(spec, *H)
            inverse = _factor_stencil(*coeffs, h, region)
            factor_nnz = max(factor_nnz or 0, inverse.nnz)
            refactors += 1
        prev = res
        v[interior] -= inverse.solve(resid)
        sweeps += 1
    if linear and res > tol:
        raise SolverError(f"direct solve residual {res:.3e} exceeds {_RESIDUAL_TOL:.1e} * {scale:.3e}")

    out = GridFunction(grid, np.where(region.defined, v, np.nan), region.defined.copy())
    out.meta.update(residual=res, sweeps=sweeps, h=h, tol=tol, converged=True,
                    residual_history=history, jacobian_refactors=refactors,
                    mg_iterations=mg_iterations, factor_nnz=factor_nnz)
    return out


def solve_linear_dirichlet(W0, f, g, grid: Grid2,
                           region: SubRegion | None = None) -> GridFunction:
    """Direct solve of tr(W0 D^2_h u) = f, W0 symmetric positive definite,
    with u = g on the region boundary, refined at most _REFINEMENTS times.

    Raises SolverError if the stencil residual exceeds meta["tol"] =
    _RESIDUAL_TOL * max(|g|, |f|).  A W0 without cross term runs multigrid-
    preconditioned CG, and meta["mg_iterations"] lists its iteration count
    per sweep; a W0 with cross term is factored by sparse LU, and
    meta["factor_nnz"] is the number of entries the factor stores.  The key
    of the inverse that did not run holds None.
    """
    return _dirichlet(operators.make_spec(W0), f, g, grid, region, None,
                      1 + _REFINEMENTS, linear=True)


def solve_laplace_dirichlet(g, grid: Grid2, region: SubRegion | None = None) -> GridFunction:
    """Discrete-harmonic extension of boundary data (5-point Laplacian)."""
    return solve_linear_dirichlet(np.eye(2), None, g, grid, region)


def solve_fully_nonlinear(spec, f, g, grid: Grid2, region: SubRegion | None = None,
                          tol: float | None = None, max_sweeps: int = 1_000_000) -> GridFunction:
    """Solve F(D^2_h u) = f with u = g on the region boundary.

    max_sweeps bounds the outer (chord or Newton) iterations.  Raises
    ValueError unless tol (when given) is positive and finite and max_sweeps
    nonnegative, and SolverError on non-finite iterates, an exhausted budget,
    or a residual that keeps growing.  meta["mg_iterations"] lists the
    multigrid-preconditioned CG iterations of each chord sweep when W0 has no
    cross term, and meta["factor_nnz"] is the largest number of entries
    stored by a sparse LU factor: the chord factor of a W0 with cross term or
    any Newton refactor.  Each is None when that inverse never ran.
    """
    if tol is not None and not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be nonnegative, got {max_sweeps!r}")
    return _dirichlet(spec, f, g, grid, region, tol, max_sweeps, linear=False)


# ---------------------------------------------------------------------------
# discrete comparison


@dataclass
class ComparisonResult:
    """Outcome of the discrete comparison test.

    outcome is "ordered", "not_ordered", or "precondition_failed"; the result
    is truthy exactly when ordered.
    """

    outcome: str
    max_violation: float
    detail: str = ""

    def __bool__(self) -> bool:
        return self.outcome == "ordered"


def comparison_check(u_lower: GridFunction, u_upper: GridFunction, spec, f=None,
                     slack: float | None = None) -> ComparisonResult:
    """Check F(D^2 u_lower) >= f >= F(D^2 u_upper) and boundary order, then
    report whether u_lower <= u_upper at every common interior node."""
    g = u_lower.grid
    if u_upper.grid.N != g.N or u_upper.grid.extent != g.extent:
        raise ValueError("functions live on different lattices")
    both = u_lower.defined & u_upper.defined
    interior = g.interior & both
    bnd = g.boundary & both
    ffull = _field_values(f, g, interior)
    if slack is None:
        slack = 1e-7 * (u_lower.sup() + u_upper.sup() + 1.0)

    Hl = hessian(u_lower)
    Hu = hessian(u_upper)
    m = interior & Hl.mask & Hu.mask
    Fl = operators.evaluate_batch(spec, Hl.h11[m], Hl.h12[m], Hl.h22[m])
    Fu = operators.evaluate_batch(spec, Hu.h11[m], Hu.h12[m], Hu.h22[m])
    sub_viol = float(np.max(ffull[m] - Fl, initial=0.0))
    sup_viol = float(np.max(Fu - ffull[m], initial=0.0))
    bnd_viol = float(np.max(u_lower.values[bnd] - u_upper.values[bnd], initial=0.0))
    worst = max(sub_viol, sup_viol, bnd_viol)
    if worst > slack:
        which = ("subsolution residual" if worst == sub_viol
                 else "supersolution residual" if worst == sup_viol
                 else "boundary ordering")
        return ComparisonResult("precondition_failed", worst, which)

    order_tol = 1e-12 * (u_lower.sup() + u_upper.sup() + 1.0)
    gap = u_upper.values[interior] - u_lower.values[interior]
    violation = float(np.max(-gap, initial=0.0))
    if violation <= order_tol:
        return ComparisonResult("ordered", violation)
    return ComparisonResult("not_ordered", violation)
