"""Grids, stencils, direct Dirichlet solves, the chord/Newton nonlinear
iteration, and the discrete comparison check."""

from __future__ import annotations

import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ellreg import constants as C
from ellreg import grid as gr
from ellreg import mollifier as mo
from ellreg import operators as op
from ellreg import solver as sv
from ellreg.grid import Grid2, GridFunction, load_grid, save_grid

from conftest import (comparison_check, cubic_harmonic, holey_field, philox, random_field, saddle,
                      shifted)


# ---------------------------------------------------------------------------
# grid basics


def test_grid_invariants(disk65):
    g = disk65
    assert g.h == pytest.approx(2.0 * g.extent / (g.N - 1), rel=0)
    assert not (g.interior & g.boundary).any()
    # every interior node has its full 9-point neighbourhood defined
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            ii, jj = np.nonzero(g.interior)
            assert g.defined[ii + di, jj + dj].all()
    with pytest.raises(ValueError):
        Grid2.disk(15)
    with pytest.raises(ValueError):
        Grid2("triangle", 33)


def test_grid_rejects_a_non_finite_extent():
    for extent in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"extent must be positive and finite, got {extent}"):
            Grid2("disk", 33, extent)


def _neighbour_arrays(dtype, shape, rng):
    if dtype is bool:
        return rng.random(shape) < 0.5
    if dtype is np.int32:
        return rng.integers(-100, 100, shape).astype(np.int32)
    return rng.standard_normal(shape)


_FILLS = {bool: (False, True), np.int32: (-1, 0, 7), float: (0.0, -1.5, np.nan)}


@st.composite
def _neighbour_cases(draw):
    dtype = draw(st.sampled_from(list(_FILLS)))
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    a = _neighbour_arrays(dtype, shape, philox(draw(st.integers(0, 2**32 - 1))))
    offsets = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=8))
    return a, offsets, draw(st.sampled_from(_FILLS[dtype]))


@settings(deadline=None, max_examples=100)
@given(_neighbour_cases())
def test_neighbours_match_an_index_loop(case):
    a, offsets, fill = case
    views = gr.neighbours(a, offsets, fill)
    assert len(views) == len(offsets)
    n0, n1 = a.shape
    for (di, dj), b in zip(offsets, views):
        want = np.full_like(a, fill)
        for i in range(n0):
            for j in range(n1):
                if 0 <= i + di < n0 and 0 <= j + dj < n1:
                    want[i, j] = a[i + di, j + dj]
        assert b.dtype == a.dtype and b.shape == a.shape
        assert np.array_equal(b, want, equal_nan=a.dtype.kind == "f")
        assert b.base is not None and b.base is views[0].base  # views of one padded copy


def _collar_reference(interior):
    grown = np.zeros_like(interior)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if (di, dj) != (0, 0):
                grown |= shifted(interior, di, dj, fill=False)
    return grown & ~interior


@pytest.mark.parametrize("N", [33, 34])
@pytest.mark.parametrize("shape", ["disk", "square"])
def test_regions_and_balls_match_shifted_copy_references(shape, N):
    g = Grid2(shape, N, 1.5)
    if shape == "disk":
        interior = np.hypot(g.X, g.Y) < g.extent * (1.0 - 1e-12)
    else:
        interior = np.zeros((N, N), dtype=bool)
        interior[1:-1, 1:-1] = True
    cases = [(g.region, interior)]
    for radius, center in ((0.8, (0.0, 0.0)), (0.5, (3 * g.h, -g.h)), (0.55 * g.h, (0.0, 0.0))):
        sub = np.hypot(g.X - center[0], g.Y - center[1]) < radius * (1.0 - 1e-12)
        cases.append((g.subregion(radius, center), sub))
        ball = np.hypot(g.X - center[0], g.Y - center[1]) <= radius * (1.0 + 1e-12)
        assert np.array_equal(g.ball(radius, center), ball)
    assert np.array_equal(g.ball_mask(0.8), g.defined & g.ball(0.8))
    holey = holey_field(g, N).defined & interior  # holes inside the interior
    cases.append((gr.SubRegion(holey, gr._collar(holey)), holey))
    for region, inner in cases:
        assert np.array_equal(region.interior, inner)
        assert np.array_equal(region.boundary, _collar_reference(inner))


def test_grid_io_round_trip(tmp_path, disk33):
    rng = philox(3)
    vals = np.where(disk33.defined, rng.standard_normal((33, 33)), np.nan)
    u = GridFunction(disk33, vals, disk33.defined.copy())
    path = tmp_path / "u.grid"
    save_grid(path, u)
    v = load_grid(path)
    assert v.grid.shape == "disk" and v.grid.N == 33
    assert np.array_equal(v.defined, u.defined)
    assert np.array_equal(v.values[v.defined], u.values[u.defined])


def test_grid_io_round_trips_a_sub_mask(tmp_path, disk33):
    # values off the mask are finite here; the file must still mark them nan
    vals = cubic_harmonic(disk33.X, disk33.Y)
    u = GridFunction(disk33, vals, disk33.ball_mask(0.4))
    path = tmp_path / "u.grid"
    save_grid(path, u)
    v = load_grid(path)
    assert v.defined.sum() == u.defined.sum() < disk33.defined.sum()
    assert np.array_equal(v.defined, u.defined)


@pytest.mark.parametrize("token", ["inf", "-inf"])
def test_grid_file_rejects_infinite_values(tmp_path, disk33, token):
    path = tmp_path / "u.grid"
    save_grid(path, GridFunction.zeros(disk33))
    path.write_text(path.read_text().replace(" 0.0", f" {token}", 1))
    with pytest.raises(ValueError, match="u.grid: infinite value"):
        load_grid(path)
    path.write_text("grid disk 33 1.0\n" + f"{' '.join([token] * 33)}\n" * 33)
    with pytest.raises(ValueError, match="u.grid: infinite value"):
        load_grid(path)


@pytest.mark.parametrize("body", ["", "1.0 2.0\n3.0\n", "1.0 abc\n"],
                         ids=["no_rows", "ragged", "bad_token"])
def test_grid_file_value_errors_name_the_file(tmp_path, body):
    path = tmp_path / "u.grid"
    path.write_text("grid disk 33 1.0\n" + body)
    with pytest.raises(ValueError, match="u.grid: "):
        load_grid(path)


_SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300)


@st.composite
def _grid_functions(draw):
    g = Grid2(draw(st.sampled_from(("disk", "square"))), draw(st.integers(17, 41)),
              draw(st.floats(1e-3, 1e3)))
    rng = philox(draw(st.integers(0, 2**32 - 1)))
    mask = g.defined & (rng.random((g.N, g.N)) < draw(st.floats(0.0, 1.0)))
    pool = draw(st.lists(st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                                   st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=1, max_size=32))
    values = rng.standard_normal((g.N, g.N))  # finite junk off the mask
    values[mask] = rng.choice(np.array(pool), size=int(mask.sum()))
    return GridFunction(g, values, mask)


@settings(deadline=None, max_examples=60)
@given(_grid_functions())
def test_grid_io_round_trip_property(u):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u.grid"
        save_grid(path, u)
        v = load_grid(path)
    g = u.grid
    assert (v.grid.shape, v.grid.N, v.grid.extent) == (g.shape, g.N, g.extent)
    assert np.array_equal(v.defined, u.defined)
    # bit for bit, so -0.0 and subnormals count
    assert np.array_equal(v.values[v.defined].view(np.int64), u.values[u.defined].view(np.int64))


# ---------------------------------------------------------------------------
# hessian


def test_hessian_exact_on_quadratics(disk65):
    u = GridFunction.from_callable(disk65, saddle)
    H = sv.hessian(u)
    m = H.mask
    assert np.max(np.abs(H.h11[m] - 2.0)) <= 1e-11
    assert np.max(np.abs(H.h22[m] + 2.0)) <= 1e-11
    assert np.max(np.abs(H.h12[m])) <= 1e-11
    u2 = GridFunction.from_callable(disk65, lambda x, y: x * y)
    H2 = sv.hessian(u2)
    assert np.max(np.abs(H2.h12[H2.mask] - 1.0)) <= 1e-11
    assert np.max(np.abs(H2.h11[H2.mask])) <= 1e-11


def test_hessian_two_grid_order():
    errs = []
    for N in (65, 129):
        g = Grid2.disk(N)
        u = GridFunction.from_callable(g, lambda x, y: np.sin(x) * np.sin(y))
        H = sv.hessian(u)
        m = H.mask
        exact = -np.sin(g.X[m]) * np.sin(g.Y[m])
        errs.append(float(np.max(np.abs(H.h11[m] - exact))))
    ratio = errs[0] / errs[1]
    assert 3.3 <= ratio <= 4.7


def test_hessian_linearity(disk33):
    rng = philox(14)
    a = GridFunction(disk33, np.where(disk33.defined, rng.standard_normal((33, 33)), np.nan),
                     disk33.defined.copy())
    b = GridFunction(disk33, np.where(disk33.defined, rng.standard_normal((33, 33)), np.nan),
                     disk33.defined.copy())
    combo = GridFunction(disk33, 2.0 * a.values - 0.5 * b.values, disk33.defined.copy())
    Hc = sv.hessian(combo)
    Ha, Hb = sv.hessian(a), sv.hessian(b)
    m = Hc.mask
    scale = max(np.max(np.abs(Ha.h11[m])), np.max(np.abs(Hb.h11[m])))
    assert np.max(np.abs(Hc.h11[m] - (2.0 * Ha.h11[m] - 0.5 * Hb.h11[m]))) <= 1e-12 * scale


@pytest.mark.parametrize("holes", [False, True], ids=["full", "holes"])
@pytest.mark.parametrize("N", [33, 34])
@pytest.mark.parametrize("shape", ["disk", "square"])
def test_hessian_support_matches_shifted_copy_reference(shape, N, holes):
    g = Grid2(shape, N)
    u = holey_field(g, N) if holes else random_field(g, philox(N))
    support = u.defined.copy()
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            support &= shifted(u.defined, -di, -dj)
    support[0, :] = support[-1, :] = support[:, 0] = support[:, -1] = False
    assert np.array_equal(sv.hessian(u).mask, support)


# ---------------------------------------------------------------------------
# linear Dirichlet solves


def test_laplace_reproduces_discrete_harmonic_quadratic(disk65):
    sol = sv.solve_linear_dirichlet(np.eye(2), None, saddle, disk65)
    exact = saddle(disk65.X, disk65.Y)
    assert np.max(np.abs(sol.values[sol.defined] - exact[sol.defined])) <= 1e-9
    assert sol.meta["residual"] <= 1e-10 * 1.0 + 1e-12


def test_laplace_constant_boundary(disk33):
    sol = sv.solve_linear_dirichlet(np.eye(2), None, 3.25, disk33)
    assert np.max(np.abs(sol.values[sol.defined] - 3.25)) <= 1e-10


def _exp_cos(x, y):
    return np.exp(x) * np.cos(y)


def test_laplace_two_grid_convergence_order():
    # exp(x) cos(y) is harmonic but not a cubic, on which the 5-point stencil
    # is exact and the ratio below would compare rounding errors
    errs = []
    for N in (65, 129):
        g = Grid2.disk(N)
        sol = sv.solve_linear_dirichlet(np.eye(2), None, _exp_cos, g)
        exact = _exp_cos(g.X, g.Y)
        errs.append(float(np.max(np.abs(sol.values[g.interior] - exact[g.interior]))))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.8


def test_laplace_maximum_principle_50_random_sets(disk33):
    rng = philox(2024)
    for _ in range(50):
        gb = rng.standard_normal((33, 33))
        sol = sv.solve_linear_dirichlet(np.eye(2), None, gb, disk33)
        lo, hi = np.min(gb[disk33.boundary]), np.max(gb[disk33.boundary])
        inner = sol.values[disk33.interior]
        assert inner.min() >= lo - 1e-10
        assert inner.max() <= hi + 1e-10


def test_linear_solve_square_grid():
    g = Grid2.square(33)
    sol = sv.solve_linear_dirichlet(np.eye(2), None, saddle, g)
    exact = saddle(g.X, g.Y)
    assert np.max(np.abs(sol.values[g.interior] - exact[g.interior])) <= 1e-10


def test_linear_solve_rejects_an_interior_on_the_lattice_frame():
    # the interior's top row lies on the frame, so its stencil leaves the lattice
    g = Grid2.square(17)
    interior = np.zeros((17, 17), dtype=bool)
    interior[:-1, 1:-1] = True
    region = gr.SubRegion(interior, g.defined & ~interior)
    for W0 in (np.eye(2), op.sym2(1.0, 0.2, 1.0)):
        with pytest.raises(sv.SolverError, match="interior stencil reaches an undefined node"):
            sv.solve_linear_dirichlet(W0, None, 0.0, g, region=region)


def test_cross_term_solve_rejects_a_region_without_its_diagonal_neighbours():
    # a plus sign's 4-connected collar serves the 5-point stencil, but a cross
    # term also reaches the corners, which the region leaves undefined
    g = Grid2.square(17)
    interior = np.zeros((17, 17), dtype=bool)
    interior[7:10, 8] = interior[8, 7:10] = True
    four = gr.neighbours(interior, [(1, 0), (-1, 0), (0, 1), (0, -1)], False)
    region = gr.SubRegion(interior, np.logical_or.reduce(four) & ~interior)
    u = sv.solve_linear_dirichlet(np.eye(2), None, 1.0, g, region=region)
    assert np.max(np.abs(u.values[interior] - 1.0)) <= 1e-12
    with pytest.raises(sv.SolverError, match="interior stencil reaches an undefined node"):
        sv.solve_linear_dirichlet(op.sym2(1.0, 0.2, 1.0), None, 1.0, g, region=region)


def test_source_errors_name_the_source():
    g = Grid2.disk(17)
    with pytest.raises(ValueError, match="^source array must cover the full lattice"):
        sv.solve_linear_dirichlet(np.eye(2), np.zeros((5, 5)), 0.0, g)
    f = np.zeros((17, 17))
    f[8, 8] = np.inf
    with pytest.raises(ValueError, match="^source must be finite on every interior node"):
        sv.solve_linear_dirichlet(np.eye(2), f, 0.0, g)
    with pytest.raises(ValueError, match="^boundary data array must cover the full lattice"):
        sv.solve_linear_dirichlet(np.eye(2), None, np.zeros((5, 5)), g)


# ---------------------------------------------------------------------------
# Krylov solves and their dense references


def _contract_boundary(x, y):
    return np.sin(2.0 * x) * np.cosh(y) + x * y


def _dense_stencil(c11, c12, c22, h, region):
    """The matrix of v -> c11 v_xx + 2 c12 v_xy + c22 v_yy in the interior
    unknowns of region, column by column from unit vectors, for scalar or
    per-interior-node coefficients; boundary neighbours drop out."""
    inner = region.interior
    m = int(inner.sum())
    A = np.empty((m, m))
    e = np.zeros(inner.shape)
    for j, node in enumerate(zip(*np.nonzero(inner))):
        e[node] = 1.0
        h11, h12, h22 = sv._hessian_arrays(e, h, inner)
        A[:, j] = c11 * h11 + 2.0 * c12 * h12 + c22 * h22
        e[node] = 0.0
    return A


def test_refinement_stops_once_a_step_fails_to_halve():
    # 9-point N=257 with this boundary: the second refinement leaves the
    # residual above the first one's, so the solve stops there instead of
    # running all three and keeps the iterate before it
    g = Grid2.disk(257)
    u = sv.solve_linear_dirichlet([[1.25, 0.15], [0.15, 1.0]], None,
                                  lambda x, y: np.sin(2.0 * x) * np.cos(y), g)
    # the residual of the boundary data, then one entry per step
    history = u.meta["residual_history"]
    assert len(history) == u.meta["sweeps"] + 1 < 2 + sv._REFINEMENTS
    assert all(b <= 0.5 * a for a, b in zip(history, history[1:-1]))
    assert history[-1] > history[-2] > 0.05 * u.meta["tol"]
    assert u.meta["residual"] == history[-2] == min(history)


@pytest.mark.parametrize("W0", [np.eye(2), [[1.25, 0.15], [0.15, 1.0]]], ids=["5pt", "9pt"])
def test_linear_residual_contract_at_513(W0):
    # the benchmark ladder's two N=513 solves: the direct solve and two
    # refinements, the second stopped at the rounding floor (the 9-point one
    # raises the residual there, so its iterate before is returned)
    g = Grid2.disk(513)
    u = sv.solve_linear_dirichlet(W0, None, lambda x, y: np.sin(2.0 * x) * np.cos(y), g)
    spec = op.make_spec(np.asarray(W0, dtype=float))
    H = sv.hessian(u)
    m = g.interior
    assert not (m & ~H.mask).any()
    res = float(np.max(np.abs(op.evaluate_batch(spec, H.h11[m], H.h12[m], H.h22[m]))))
    assert res == u.meta["residual"] == min(u.meta["residual_history"]) <= u.meta["tol"]
    assert u.meta["sweeps"] == len(u.meta["mg_iterations"]) == 3
    assert u.meta["newton_steps"] == 0


def test_linear_contract_accepts_the_rounding_floor_at_257():
    # diag(40, 1) at N=257 cannot reach 1e-10 max|g|: the stencil's row sum
    # (4 w11 + 4 w22) / h^2 times max|g| leaves about 2.7e-10 of rounding, so
    # the solve meets that floor instead; diag(20, 1) meets 1e-10 max|g|, and
    # its tol and residual stay those of the contract without the floor.
    # Either way the first refinement that fails to halve the best residual
    # ends the solve, so neither spends its last refinement
    g = Grid2.disk(257)
    boundary = lambda x, y: np.sin(2.0 * x) * np.cos(y)
    g_max = float(np.max(np.abs(boundary(g.X, g.Y)[g.boundary])))
    for w11, residual, tol, iterations in (
            (20.0, 7.457856554538012e-11, sv._RESIDUAL_TOL * g_max, [60, 12, 7]),
            (40.0, 1.6370904631912708e-10, 2.0**-53 * (4.0 * 40.0 + 4.0) / g.h**2 * g_max,
             [83, 18, 11])):
        W0 = np.diag([w11, 1.0])
        u = sv.solve_linear_dirichlet(W0, None, boundary, g)
        H = sv.hessian(u)
        m = g.interior
        res = float(np.max(np.abs(op.evaluate_batch(op.make_spec(W0), H.h11[m], H.h12[m],
                                                    H.h22[m]))))
        assert res == u.meta["residual"] == residual <= u.meta["tol"] == tol, w11
        assert u.meta["mg_iterations"] == iterations and u.meta["sweeps"] == 3, w11


@st.composite
def _linear_problems(draw):
    g = Grid2(draw(st.sampled_from(("disk", "square"))), draw(st.integers(17, 65)))
    radius = draw(st.one_of(st.none(), st.floats(0.3, 0.9)))
    region = g.region if radius is None else g.subregion(radius)
    w11, w22 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    w12 = draw(st.one_of(st.just(0.0), st.floats(-0.9, 0.9))) * np.sqrt(w11 * w22)
    rng = philox(draw(st.integers(0, 2**32 - 1)))
    gb, f = (rng.standard_normal((g.N, g.N)) for _ in range(2))
    return g, region, op.OperatorSpec(w11, w12, w22), f, gb


@settings(max_examples=60, deadline=None)
@given(_linear_problems())
def test_linear_solve_reports_its_measured_residual(case):
    g, region, spec, f, gb = case
    u = sv.solve_linear_dirichlet(spec.W0, f, gb, g, region)
    m = region.interior
    H = sv.hessian(u)
    assert not (m & ~H.mask).any()
    res = float(np.max(np.abs(op.evaluate_batch(spec, H.h11[m], H.h12[m], H.h22[m]) - f[m])))
    assert res == u.meta["residual"]
    scale = max(np.max(np.abs(gb[region.boundary])), np.max(np.abs(f[m])))
    assert res <= u.meta["tol"] == sv._RESIDUAL_TOL * scale
    v = sv.solve_linear_dirichlet(spec.W0, f, gb, g, region)
    assert np.array_equal(u.values, v.values, equal_nan=True)
    assert u.meta == v.meta


def test_solvers_report_krylov_iterations():
    g = Grid2.disk(65)
    # a chord loop takes no Newton step: one PCG count per sweep
    mild = sv.solve_fully_nonlinear(op.OperatorSpec(1.0, 0.0, 1.0, 0.05, "sine"), None,
                                    _contract_boundary, g)
    assert mild.meta["newton_steps"] == 0
    assert len(mild.meta["mg_iterations"]) == mild.meta["sweeps"] >= 1
    # near lam_min the chord sweeps give way to Newton steps, each one GMRES
    # solve; every sweep after the first slow one is a Newton step
    sol = sv.solve_fully_nonlinear(op.OperatorSpec(1.0, 0.0, 1.0, 0.9, "sine"), None,
                                   _contract_boundary, g, max_sweeps=50)
    iterations, history = sol.meta["mg_iterations"], sol.meta["residual_history"]
    assert 1 <= sol.meta["newton_steps"] < len(iterations) == sol.meta["sweeps"]
    chords = len(iterations) - sol.meta["newton_steps"]
    assert history[chords] > sv._SLOW_CONTRACTION * history[chords - 1]
    assert all(b <= sv._SLOW_CONTRACTION * a for a, b in zip(history[:chords], history[1:chords]))
    assert all(isinstance(n, int) and 0 < n < sv._KRYLOV_MAX_ITERATIONS for n in iterations)
    # a linear solve with a cross term runs CG on the 9-point stencil
    lin = sv.solve_linear_dirichlet([[1.25, 0.15], [0.15, 1.0]], None, _contract_boundary, g)
    assert lin.meta["newton_steps"] == 0
    assert len(lin.meta["mg_iterations"]) == lin.meta["sweeps"] >= 1
    for u in (mild, sol, lin):
        assert not {"factor_nnz", "jacobian_refactors"} & set(u.meta)


@pytest.mark.parametrize("W0", [np.eye(2), 2.5 * np.eye(2)], ids=["laplace", "scaled"])
def test_isotropic_linear_solves_report_mg_iterations(W0):
    g = Grid2.disk(129)
    u = sv.solve_linear_dirichlet(W0, None, _contract_boundary, g, region=g.subregion(0.8))
    iterations = u.meta["mg_iterations"]
    # one PCG solve per sweep; the last one starts near the rounding floor
    assert len(iterations) == u.meta["sweeps"] >= 2
    assert all(isinstance(n, int) for n in iterations)
    assert 0 < iterations[-1] < iterations[0] <= 30


def _levels(mg):
    level = mg._top
    while level is not None:
        yield level
        level = level.coarse


def _check_v_cycle(mg, rng):
    """CG needs a symmetric preconditioner: the V-cycle smooths red-black
    going down and black-red coming up, and restricts by the transpose of its
    bilinear interpolation, at every level.  apply and the cycle leave every
    level zero off its mask, and the coarsest level's dense inverse inverts
    that level's own operator.  The levels share one scratch buffer, so each
    check runs at every level size."""
    levels = list(_levels(mg))
    top, bottom = levels[0], levels[-1]
    for fine, coarse in zip(levels, levels[1:]):
        r, e = rng.standard_normal(fine.mask.shape), rng.standard_normal(coarse.mask.shape)
        fine.r[...], coarse.x[...] = r * fine.mask, e * coarse.mask
        fine.restrict()
        fine.prolong()
        assert np.vdot(fine.r, r * fine.mask) == pytest.approx(
            np.vdot(coarse.b, e * coarse.mask), rel=1e-13)
    for level in levels:
        v = rng.standard_normal(level.mask.shape) * level.mask
        assert not level.apply(v, np.zeros_like(v))[~level.mask].any()

    def cycle(b):
        top.b[...] = b * top.mask
        top.cycle()
        assert not any(level.x[~level.mask].any() for level in levels)
        return top.x.copy()

    a, b = rng.standard_normal((2, *top.mask.shape))
    assert np.vdot(cycle(a), b * top.mask) == pytest.approx(np.vdot(a * top.mask, cycle(b)),
                                                            rel=1e-12)
    c, x = rng.standard_normal(bottom.mask.shape), np.zeros(bottom.mask.shape)
    x[bottom.mask] = bottom.inverse @ c[bottom.mask]
    assert np.max(np.abs(bottom.apply(x, np.zeros_like(x)) - c * bottom.mask)) <= 1e-12


@pytest.mark.parametrize("w11, w22", [(1.0, 1.0), (1.0, 2.0)])
@pytest.mark.parametrize("shape, N, radius", [("disk", 65, None), ("square", 50, None),
                                               ("disk", 129, 0.8), ("disk", 64, 0.37)])
def test_multigrid_preconditioner_is_symmetric(shape, N, radius, w11, w22):
    g = Grid2(shape, N)
    region = g.region if radius is None else g.subregion(radius)
    mg = sv._Multigrid(w11, 0.0, w22, g.h, region, 1.0)
    assert mg._top.coarse is not None and mg._top.coarse.coarse is not None
    _check_v_cycle(mg, philox(N))


@st.composite
def _v_cycle_problems(draw):
    g = Grid2(draw(st.sampled_from(("disk", "square"))), draw(st.integers(17, 65)))
    radius = draw(st.floats(0.3, 0.9))
    off, angle = draw(st.floats(0.0, 0.9 - radius)), draw(st.floats(0.0, 2.0 * np.pi))
    region = g.subregion(radius, (off * np.cos(angle), off * np.sin(angle)))
    w11 = draw(st.floats(0.5, 2.0))
    return g, region, w11, w11 * draw(st.floats(0.5, 2.0)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(_v_cycle_problems())
def test_v_cycle_is_symmetric_on_drawn_sub_disks(case):
    # odd and even sides, off-centre sub-disks and w22/w11 in [1/2, 2]
    g, region, w11, w22, seed = case
    mg = sv._Multigrid(w11, 0.0, w22, g.h, region, 1.0)
    assume(mg._top.coarse is not None)
    _check_v_cycle(mg, philox(seed))


def _hierarchy_doubles_per_node(N: int) -> float:
    """The float arrays the levels of the harmonic replacement's hierarchy own
    on the r=0.8 disk at N, each owning base counted once, in doubles per
    interior node; CI prints it at N=513 and N=1025."""
    g = Grid2.disk(N)
    region = g.subregion(0.8)
    mg = sv._Multigrid(1.0, 0.0, 1.0, g.h, region, 1.0)
    bases = {}

    def own(value):
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            bases[id(value)] = value
        elif isinstance(value, tuple):
            for item in value:
                own(item)

    for level in _levels(mg):
        own(tuple(vars(level).values()))
    doubles = sum(a.nbytes for a in bases.values() if a.dtype.kind == "f") / 8
    return doubles / int(region.interior.sum())


@pytest.mark.parametrize("N", [513, 1025])
def test_the_replacement_hierarchy_holds_at_most_8_doubles_per_interior_node(N):
    # a 0/1 float copy of each level's mask, buffers of each level's own or an
    # inverse-diagonal array on the finest level would each break it
    assert _hierarchy_doubles_per_node(N) <= 8.0


@pytest.mark.parametrize("radius_h", [0.5, 1.2], ids=["single_node", "plus_sign"])
def test_multigrid_on_thin_regions(radius_h):
    # one interior node or a plus sign: a hierarchy of one level, whose dense
    # inverse is the whole preconditioner
    g = Grid2.disk(33)
    region = g.subregion(radius_h * g.h)
    b = philox(9).standard_normal(int(region.interior.sum()))
    assert b.size == (1 if radius_h < 1 else 5)
    want = np.linalg.solve(_dense_stencil(1.0, 0.0, 2.0, g.h, region), b)
    mg = sv._Multigrid(1.0, 0.0, 2.0, g.h, region, 1e-12 * np.max(np.abs(b)))
    assert mg._top.coarse is None
    assert np.max(np.abs(mg.solve(b) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("N, centre, w22", [(34, None, 1.0), (33, 1, 1.0), (33, 1, 2.0)],
                         ids=["even_N", "off_centre_subdisk", "anisotropic"])
def test_multigrid_matches_the_dense_solve(N, centre, w22):
    # an even side and a sub-disk off the lattice's centre give interiors
    # without the reflection symmetry of the odd-N disk
    g = Grid2.disk(N)
    region = g.region if centre is None else g.subregion(0.5, center=(centre * g.h, 0.0))
    b = philox(8).standard_normal(int(region.interior.sum()))
    want = np.linalg.solve(_dense_stencil(1.0, 0.0, w22, g.h, region), b)
    mg = sv._Multigrid(1.0, 0.0, w22, g.h, region, 1e-13 * np.max(np.abs(b)))
    assert mg._top.coarse is not None
    assert np.max(np.abs(mg.solve(b) - want)) <= 1e-12 * np.max(np.abs(want))


def test_multigrid_solves_an_integer_vector():
    g = Grid2.disk(33)
    b = philox(10).integers(-5, 6, int(g.interior.sum()))
    mg = sv._Multigrid(1.0, 0.0, 1.0, g.h, g.region, 1e-12 * np.max(np.abs(b)))
    assert np.array_equal(mg.solve(b), mg.solve(b.astype(float)))
    assert mg.iterations[0] == mg.iterations[1] > 0


@st.composite
def _diagonal_problems(draw):
    g = Grid2(draw(st.sampled_from(("disk", "square"))), draw(st.integers(17, 33)))
    radius = draw(st.one_of(st.none(), st.floats(0.2, 0.9)))
    region = g.region if radius is None else g.subregion(radius)
    w11, w22 = draw(st.floats(1.0, 2.0)), draw(st.floats(1.0, 2.0))
    rng = philox(draw(st.integers(0, 2**32 - 1)))
    gb = rng.standard_normal((g.N, g.N))
    f = rng.standard_normal((g.N, g.N)) if draw(st.booleans()) else None
    return g, region, op.OperatorSpec(w11, 0.0, w22), gb, f


def _dense_chord_solve(spec, f, gb, g, region, tol, max_sweeps=10):
    """The chord loop on the dense stencil matrix, from the boundary data
    with zero interior, until the residual meets tol; returns the lattice
    array and its residual."""
    inner = region.interior
    A = _dense_stencil(spec.w11, spec.w12, spec.w22, g.h, region)
    v = np.where(region.boundary, gb, 0.0)
    fi = 0.0 if f is None else f[inner]
    for _ in range(max_sweeps):
        resid = op.evaluate_batch(spec, *sv._hessian_arrays(v, g.h, inner)) - fi
        if float(np.max(np.abs(resid))) <= tol:
            break
        v[inner] -= np.linalg.solve(A, resid)
    return v, float(np.max(np.abs(resid)))


@settings(max_examples=40, deadline=None)
@given(_diagonal_problems())
def test_multigrid_solve_matches_the_dense_solve(case):
    g, region, spec, gb, f = case
    mg = sv.solve_linear_dirichlet(spec.W0, f, gb, g, region)
    tol = mg.meta["tol"]
    assert mg.meta["mg_iterations"]
    lu, res_lu = _dense_chord_solve(spec, f, gb, g, region, tol)
    res_mg = mg.meta["residual"]
    assert res_mg <= tol and res_lu <= tol
    inner, defined = region.interior, region.defined
    # (R^2 - |x|^2) / 4 is nonnegative on the region and its 5-point
    # w11 u_xx + w22 u_yy is exactly -(w11 + w22)/2 <= -1, so the discrete
    # maximum principle bounds the difference of two solutions, equal on the
    # boundary, by R^2/4 times their residuals; the allowance covers rounding
    # of the residuals measured by differences (a few ulps of the solution
    # over h^2 per node) and of the difference itself
    R2 = float(np.max((g.X**2 + g.Y**2)[defined]))
    U = max(float(np.max(np.abs(mg.values[defined]))), float(np.max(np.abs(lu[defined]))))
    eps = np.finfo(float).eps
    allowance = R2 / 4 * 64 * eps * U / g.h**2 + 4 * eps * U
    diff = float(np.max(np.abs(mg.values[inner] - lu[inner])))
    assert diff <= R2 / 4 * (res_mg + res_lu) + allowance
    # discrete maximum principle for tr(W0 D^2 u) = f up to the residual: the
    # interior stays within the boundary range widened by R^2/4 times the
    # source's excess of each sign
    fi = np.zeros(int(inner.sum())) if f is None else f[inner]
    lo, hi = gb[region.boundary].min(), gb[region.boundary].max()
    above = R2 / 4 * (max(float(np.max(-fi)), 0.0) + res_mg) + allowance
    below = R2 / 4 * (max(float(np.max(fi)), 0.0) + res_mg) + allowance
    assert mg.values[inner].max() <= hi + above
    assert mg.values[inner].min() >= lo - below


@st.composite
def _cross_term_problems(draw):
    g = Grid2(draw(st.sampled_from(("disk", "square"))), draw(st.integers(17, 33)))
    radius = draw(st.one_of(st.none(), st.floats(0.3, 0.9)))
    region = g.region if radius is None else g.subregion(radius)
    w11, w22 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    w12 = draw(st.floats(-0.9, 0.9)) * np.sqrt(w11 * w22)  # rho = |w12| / sqrt(w11 w22)
    b = philox(draw(st.integers(0, 2**32 - 1))).standard_normal(int(region.interior.sum()))
    return g, region, (w11, w12, w22), b


@settings(max_examples=40, deadline=None)
@given(_cross_term_problems())
def test_cross_term_pcg_matches_the_dense_solve(case):
    g, region, (w11, w12, w22), b = case
    A = _dense_stencil(w11, w12, w22, g.h, region)
    atol = 1e-12 * np.max(np.abs(b))
    mg = sv._Multigrid(w11, w12, w22, g.h, region, atol)
    x = mg.solve(b)
    assert 0 < mg.iterations[0] < sv._KRYLOV_MAX_ITERATIONS
    # the residual CG stops on is A x - b itself, up to a rounding drift
    assert np.max(np.abs(A @ x - b)) <= 2 * atol
    # so x is the dense solution to within ||A^-1|| times that residual
    inverse = np.linalg.inv(A)
    assert np.max(np.abs(x - inverse @ b)) <= np.linalg.norm(inverse, np.inf) * 2 * atol


# GMRES tolerances a Newton step is checked with: the solver's own and a tight one
_GMRES_RTOLS = [sv._GMRES_RTOL, 1e-10]


@st.composite
def _newton_problems(draw):
    g = Grid2(draw(st.sampled_from(("disk", "square"))), draw(st.integers(17, 33)))
    radius = draw(st.one_of(st.none(), st.floats(0.3, 0.9)))
    region = g.region if radius is None else g.subregion(radius)
    spec = draw(generated_specs())
    rng = philox(draw(st.integers(0, 2**32 - 1)))
    # an iterate whose second differences are of size 1e-2 to 1e2, so DF moves
    # across its whole range from node to node
    v = np.where(region.defined, rng.standard_normal((g.N, g.N)), 0.0)
    v *= draw(st.sampled_from((1e-2, 1.0, 1e2))) * g.h**2
    coeffs = op.gradient_batch(spec, *sv._hessian_arrays(v, g.h, region.interior))
    # a right-hand side of any size: the tolerance is relative to it
    r = rng.standard_normal(int(region.interior.sum())) * draw(st.sampled_from((1e-8, 1.0, 1e4)))
    return g, region, spec, coeffs, r, draw(st.sampled_from(_GMRES_RTOLS))


@settings(max_examples=40, deadline=None)
@given(_newton_problems())
def test_gmres_newton_step_matches_the_dense_solve(case):
    g, region, spec, coeffs, r, rtol = case
    J = _dense_stencil(*coeffs, g.h, region)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "_GMRES_RTOL", rtol)
        mg = sv._Multigrid(spec.w11, spec.w12, spec.w22, g.h, region, 1.0)
        d = mg.newton(coeffs, r)
    assert len(mg.iterations) == 1 and 0 < mg.iterations[0] < sv._GMRES_MAX_ITERATIONS
    # the step's residual against the dense Jacobian meets the 2-norm tolerance
    assert np.linalg.norm(J @ d - r) <= rtol * np.linalg.norm(r)
    if rtol < 1e-8:
        want = np.linalg.solve(J, r)
        assert np.max(np.abs(d - want)) <= 1e-6 * np.max(np.abs(want))


def test_a_newton_step_is_one_gmres_cycle_of_at_most_the_cap():
    # with the cap at 3 every Newton step's GMRES stops short of its tolerance
    # and never restarts; the chord loop's next step starts a fresh cycle from
    # the true nonlinear residual with a fresh Jacobian, so the solve still
    # meets tol
    spec = op.OperatorSpec(1.0, 0.0, 1.0, 0.9, "sine")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sv, "_GMRES_MAX_ITERATIONS", 3)
        u = sv.solve_fully_nonlinear(spec, None, cubic_harmonic, Grid2.disk(33), max_sweeps=50)
    steps = u.meta["newton_steps"]
    assert steps > 0 and u.meta["residual"] <= u.meta["tol"]
    assert all(n <= 3 for n in u.meta["mg_iterations"][-steps:]), u.meta["mg_iterations"]


def test_a_nan_in_the_v_cycle_ends_the_solve(monkeypatch):
    # every V-cycle of a Newton step returns NaN; the step must give up, and
    # the chord loop then raises
    newton, calls = sv._Multigrid.newton, []

    def poisoned(self, coeffs, r):
        top, cycle = self._top, type(self._top).cycle
        calls.append(None)

        def nan_cycle():
            cycle(top)
            top.x[top.mask] = np.nan

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(top, "cycle", nan_cycle, raising=False)
            return newton(self, coeffs, r)

    def timeout(signum, frame):
        raise TimeoutError("the poisoned Newton step did not return")

    monkeypatch.setattr(sv._Multigrid, "newton", poisoned)
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(30)
    try:
        with pytest.raises(sv.SolverError):
            sv.solve_fully_nonlinear(op.OperatorSpec(1.0, 0.0, 1.0, 0.9, "sine"), None,
                                     cubic_harmonic, Grid2.disk(33), max_sweeps=20)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert calls  # the solve did reach a Newton step


@pytest.mark.parametrize("N", [34, 36, 38])
def test_coarse_levels_are_exact_on_affine_functions_across_a_cut(N):
    # an even N puts the square's edges a fraction of a coarse spacing beyond
    # the last coarse nodes; there the Shortley-Weller diagonal makes a level's
    # operator exact on a function affine along the cut direction and zero
    # where that line leaves the fine mask, with the cut direction's weight
    g = Grid2.square(N)
    top = sv._Multigrid(1.0, 0.0, 2.0, g.h, g.region, 1.0)._top
    i, j = np.indices(top.mask.shape)
    edge = int(np.flatnonzero(top.mask.any(axis=0))[-1]) + 1  # first fine index off the mask
    checked, stride, level = 0, 2, top.coarse
    while level is not None:
        coarse = level.mask
        for offset, u in [((1, 0), edge - i), ((-1, 0), i), ((0, 1), edge - j), ((0, -1), j)]:
            on = gr.neighbours(coarse, [offset, (-offset[0], -offset[1])], False)
            across = gr.neighbours(coarse, [offset[::-1], (-offset[1], -offset[0])], False)
            # a cut in this direction, a neighbour behind and both neighbours across
            nodes = coarse & ~on[0] & on[1] & across[0] & across[1]
            v = np.where(coarse, u[::stride, ::stride].astype(float), 0.0)
            out = level.apply(v, np.zeros_like(v))
            assert np.max(np.abs(out[nodes])) <= 1e-12 * edge
            checked += int(nodes.sum())
        stride, level = 2 * stride, level.coarse
    assert checked > 0
    # at least one cut falls strictly between coarse nodes
    assert edge % 2


@pytest.mark.parametrize("w22", [7.0, 1.0], ids=["diag_1_7", "identity"])
@pytest.mark.parametrize("case", ["disk", "subdisk", "off_centre", "ragged"])
def test_coarse_diagonals_follow_shortley_weller_on_curved_boundaries(case, w22):
    # every coarse node's diagonal, 2 + 2 r + sum w (stride / t - 1) over its
    # missing coarse neighbours, t the fine steps to the first node off the
    # fine box mask in that direction, recomputed by walking that mask
    g = Grid2.disk(129)
    if case == "ragged":  # interior nodes dropped at random: cuts inside the domain
        interior = g.interior & (philox(33).random((g.N, g.N)) > 0.1)
        region = gr.SubRegion(interior, g.defined & ~interior)
    else:
        region = {"disk": g.region, "subdisk": g.subregion(0.8),
                  "off_centre": g.subregion(0.37, (0.21, -0.13))}[case]
    top = sv._Multigrid(1.0, 0.0, w22, g.h, region, 1.0)._top
    weights = {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): w22, (0, -1): w22}
    stride, level, levels = 2, top.coarse, 0
    while level is not None:
        mask = level.mask
        # the diagonal through apply: unit vectors two nodes apart share no neighbour
        i, j = np.indices(mask.shape)
        got = np.zeros(mask.shape)
        for a in (0, 1):
            for b in (0, 1):
                e = (mask & (i % 2 == a) & (j % 2 == b)).astype(float)
                got += e * level.apply(e, np.zeros_like(e))
        want = np.zeros(mask.shape)
        for I, J in zip(*np.nonzero(mask)):
            want[I, J] = 2.0 + 2.0 * w22
            for (di, dj), w in weights.items():
                if not mask[I + di, J + dj]:
                    t = 1
                    while top.mask[stride * I + t * di, stride * J + t * dj]:
                        t += 1
                    want[I, J] += w * (stride / t - 1.0)
        assert np.max(np.abs(got - want)[mask] / want[mask]) <= 1e-14
        stride, level, levels = 2 * stride, level.coarse, levels + 1
    assert levels >= 2


# ---------------------------------------------------------------------------
# nonlinear solve


def test_nonlinear_reduces_to_laplace_on_quadratic(disk65, identity_spec):
    sol = sv.solve_fully_nonlinear(identity_spec, None, saddle, disk65, tol=1e-10)
    exact = saddle(disk65.X, disk65.Y)
    assert np.max(np.abs(sol.values[sol.defined] - exact[sol.defined])) <= 1e-8


def test_nonlinear_matches_direct_poisson_reference(disk33):
    # f = Laplacian(x^4) = 12 x^2 with boundary x^4
    f = GridFunction.from_callable(disk33, lambda x, y: 12.0 * x**2)
    g = lambda x, y: x**4
    spec = op.OperatorSpec(1.0, 0.0, 1.0)
    direct = sv.solve_linear_dirichlet(np.eye(2), f, g, disk33)
    fixed = sv.solve_fully_nonlinear(spec, f, g, disk33, tol=1e-11)
    assert np.max(np.abs(direct.values[disk33.interior]
                         - fixed.values[disk33.interior])) <= 1e-8


def test_nonlinear_matches_direct_on_10_random_instances(disk33):
    rng = philox(99)
    for _ in range(10):
        B = rng.standard_normal((2, 2))
        W0 = B @ B.T + np.eye(2)
        spec = op.make_spec(W0)
        gb = rng.standard_normal((33, 33))
        direct = sv.solve_linear_dirichlet(W0, None, gb, disk33)
        fixed = sv.solve_fully_nonlinear(spec, None, gb, disk33, tol=1e-11)
        assert np.max(np.abs(direct.values[disk33.interior]
                             - fixed.values[disk33.interior])) <= 1e-8


def test_nonlinear_perturbed_quadratic_zero_set(disk65):
    # quadratic Q with F(D^2 Q) = 0 for the sine-perturbed operator, found by
    # an independent bisection on the second diagonal entry
    spec = op.OperatorSpec(1.0, 0.0, 1.0, 0.05, "sine")

    def F_of_diag(b):
        return spec.evaluate(op.sym2(1.0, 0.0, b))

    lo, hi = -1.2, -0.8
    assert F_of_diag(lo) < 0 < F_of_diag(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if F_of_diag(mid) <= 0:
            lo = mid
        else:
            hi = mid
    b = 0.5 * (lo + hi)
    Q = lambda x, y: 0.5 * (x**2 + b * y**2)
    sol = sv.solve_fully_nonlinear(spec, None, Q, disk65, tol=1e-10)
    exact = Q(disk65.X, disk65.Y)
    assert np.max(np.abs(sol.values[sol.defined] - exact[sol.defined])) <= 1e-6


def test_nonlinear_determinism(disk33, sine_spec):
    a = sv.solve_fully_nonlinear(sine_spec, None, saddle, disk33)
    b = sv.solve_fully_nonlinear(sine_spec, None, saddle, disk33)
    assert np.array_equal(a.values[a.defined], b.values[b.defined])
    assert a.meta["sweeps"] == b.meta["sweeps"]
    # the reported residual is reproduced by re-evaluation
    H = sv.hessian(a)
    m = disk33.interior & H.mask
    resid = np.abs(op.evaluate_batch(sine_spec, H.h11[m], H.h12[m], H.h22[m]))
    assert float(np.max(resid)) <= a.meta["tol"]


def test_nonlinear_budget_error(disk33, sine_spec):
    with pytest.raises(sv.SolverError, match="no convergence"):
        sv.solve_fully_nonlinear(sine_spec, None, saddle, disk33, max_sweeps=3)


def _scripted_steps(monkeypatch, factors):
    """Make the k-th chord step return factors[k] times the chord correction
    c, L c = r, so that it leaves about (1 - factors[k]) r; a factor may be a
    function of r.  F is linear in every caller, so a Newton step fails the
    test.  Returns the list that grows by one entry per residual evaluation."""
    solve, evaluate, script, calls = sv._Multigrid.solve, op.evaluate_batch, iter(factors), []

    def step(self, r):
        t = next(script, None)
        assert t is not None, "the solve took more steps than scripted"
        t = t(r) if callable(t) else t
        return t * solve(self, r) if t else np.zeros_like(r)

    def newton(self, coeffs, r):
        raise AssertionError("a linear F took a Newton step")

    def counted(*args):
        calls.append(None)
        return evaluate(*args)

    monkeypatch.setattr(sv._Multigrid, "solve", step)
    monkeypatch.setattr(sv._Multigrid, "newton", newton)
    monkeypatch.setattr(op, "evaluate_batch", counted)
    return calls


@pytest.mark.parametrize("factors", [
    pytest.param([0.0] * 3, id="unchanged"),
    # 2 r0, 1.5 r0, 2 r0, ...: never two rises in a row, never below r0
    pytest.param([-1.0, 0.25, -1.0 / 3.0] + [0.25, -1.0 / 3.0] * 10, id="oscillating"),
])
def test_a_stalled_solve_raises_instead_of_spending_its_budget(monkeypatch, factors):
    calls = _scripted_steps(monkeypatch, factors)
    stalled = f"^stalled: no new best residual in {sv._STALL} sweeps"
    with pytest.raises(sv.SolverError, match=stalled):
        sv.solve_fully_nonlinear(op.OperatorSpec(1.0, 0.0, 1.0), None, _contract_boundary,
                                 Grid2.disk(17), max_sweeps=10_000)
    assert len(calls) == sv._STALL + 1


def test_the_stall_count_restarts_at_every_new_best(monkeypatch):
    # each halving is followed by a step that changes nothing, then one exact step
    calls = _scripted_steps(monkeypatch, [0.0, 0.5] * sv._STALL + [1.0])
    u = sv.solve_fully_nonlinear(op.OperatorSpec(1.0, 0.0, 1.0), None, _contract_boundary,
                                 Grid2.disk(17), max_sweeps=10_000)
    history = u.meta["residual_history"]
    assert u.meta["sweeps"] == 2 * sv._STALL + 1 == len(calls) - 1
    assert history[1:-1:2] == history[:-2:2]
    assert u.meta["residual"] == history[-1] <= u.meta["tol"]


def test_the_rounding_floor_returns_the_best_iterate(monkeypatch):
    # the direct solve leaves half the contract, above the 0.05 aim; the
    # refinement doubles that, so the solve stops and returns the iterate before
    g = Grid2.disk(17)
    tol = sv._RESIDUAL_TOL * float(np.max(np.abs(_contract_boundary(g.X, g.Y)[g.boundary])))
    _scripted_steps(monkeypatch, [lambda r: 1.0 - 0.5 * tol / np.max(np.abs(r)), -1.0])
    u = sv.solve_linear_dirichlet(np.eye(2), None, _contract_boundary, g)
    history = u.meta["residual_history"]
    assert u.meta["tol"] == tol and u.meta["sweeps"] == 2
    assert 0.05 * tol < history[1] <= tol and history[2] > history[1]
    H = sv.hessian(u)
    m = g.interior
    res = float(np.max(np.abs(op.evaluate_batch(op.make_spec(np.eye(2)),
                                                H.h11[m], H.h12[m], H.h22[m]))))
    assert res == u.meta["residual"] == history[1]


RESIDUAL_CASES = [pytest.param(spec, id=f"catalog{i}") for i, spec in enumerate(op.catalog_specs())] + [
    pytest.param(op.OperatorSpec(1.0, 0.0, 1.0, 0.9, "sine"), id="sine_eps0.9"),
    pytest.param(op.OperatorSpec(1.0, 0.55, 1.0, 0.3, "smooth_max"), id="w12_0.55_smooth_max"),
]


@pytest.mark.parametrize("spec", RESIDUAL_CASES)
def test_nonlinear_residual_contract(disk65, spec):
    g = _contract_boundary
    f = GridFunction.from_callable(disk65, lambda x, y: 0.5 * np.cos(x + y))
    a = sv.solve_fully_nonlinear(spec, f, g, disk65)
    H = sv.hessian(a)
    m = disk65.interior
    assert not (m & ~H.mask).any()
    resid = np.abs(op.evaluate_batch(spec, H.h11[m], H.h12[m], H.h22[m]) - f.values[m])
    assert float(np.max(resid)) <= a.meta["tol"]
    assert a.meta["sweeps"] <= 50
    history = a.meta["residual_history"]
    assert len(history) == a.meta["sweeps"] + 1 and history[-1] == a.meta["residual"]
    if spec.eps == 0.9:  # near lam_min the frozen Jacobian contracts too slowly
        assert a.meta["newton_steps"] >= 1
    b = sv.solve_fully_nonlinear(spec, f, g, disk65)
    assert np.array_equal(a.values, b.values, equal_nan=True)
    assert a.meta == b.meta


@st.composite
def generated_specs(draw):
    w11 = draw(st.floats(0.5, 2.0))
    w22 = draw(st.floats(0.5, 2.0))
    w12 = draw(st.floats(-0.9, 0.9)) * np.sqrt(w11 * w22)
    lam_min = op.OperatorSpec(w11, w12, w22)._lam_min()
    eps = draw(st.floats(0.0, 0.95)) * lam_min
    return op.OperatorSpec(w11, w12, w22, eps, draw(st.sampled_from(op.PERTURBATIONS)))


_CONTRACT_GRIDS = {"disk": Grid2.disk(33), "square": Grid2.square(33)}


@settings(max_examples=100, deadline=None)
@given(spec=generated_specs(), shape=st.sampled_from(sorted(_CONTRACT_GRIDS)))
def test_nonlinear_residual_contract_property(spec, shape):
    g = _CONTRACT_GRIDS[shape]
    f = GridFunction.from_callable(g, lambda x, y: 0.5 * np.cos(x + y))
    # more than 50 sweeps raises SolverError
    a = sv.solve_fully_nonlinear(spec, f, _contract_boundary, g, max_sweeps=50)
    H = sv.hessian(a)
    m = g.interior
    assert not (m & ~H.mask).any()
    resid = np.abs(op.evaluate_batch(spec, H.h11[m], H.h12[m], H.h22[m]) - f.values[m])
    assert float(np.max(resid)) <= a.meta["tol"]
    b = sv.solve_fully_nonlinear(spec, f, _contract_boundary, g, max_sweeps=50)
    assert np.array_equal(a.values, b.values, equal_nan=True)
    assert a.meta == b.meta


def test_nonlinear_two_grid_convergence_order(sine_spec):
    # u = exp(x) cos(y) with f = F(D^2 u) in closed form
    u = lambda x, y: np.exp(x) * np.cos(y)
    errs = []
    for N in (65, 129, 257):
        g = Grid2.disk(N)
        X, Y = g.X, g.Y
        f = GridFunction(g, op.evaluate_batch(sine_spec, u(X, Y), -np.exp(X) * np.sin(Y), -u(X, Y)),
                         g.defined.copy())
        sol = sv.solve_fully_nonlinear(sine_spec, f, u, g, tol=1e-10)
        errs.append(float(np.max(np.abs(sol.values[g.interior] - u(X, Y)[g.interior]))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 1.8, orders


# ---------------------------------------------------------------------------
# comparison


def test_comparison_equal_functions(disk33, identity_spec):
    u = sv.solve_linear_dirichlet(np.eye(2), None, saddle, disk33)
    assert comparison_check(u, u, identity_spec)


def test_comparison_barrier_pair(disk65, identity_spec):
    # harmonic replacement vs the barrier h + (eps0~/(2 lam)) K2 M gamma^-3 (1-|x|^2)
    rep = C.build_report(2, C.EllipticityBounds(1, 1), C.HolderPair(0.5, 0.25),
                         C.ExternalConstants(K1=1, alpha0=1.0, K2=1, C3=1))
    h = sv.solve_linear_dirichlet(np.eye(2), None, cubic_harmonic, disk65)
    M = h.sup()
    gamma = 4 * disk65.h
    bump = float(rep.eps0_tilde) / 2.0 * float(mo.third_derivative_mass(2)) * M / gamma**3
    upper = GridFunction(
        disk65, h.values + bump * (1.0 - disk65.X**2 - disk65.Y**2), h.defined.copy())
    res = comparison_check(h, upper, identity_spec)
    assert res.outcome == "ordered" and bool(res)
    swapped = comparison_check(upper, h, identity_spec)
    assert swapped.outcome in ("not_ordered", "ordered")  # bump can be below tolerance
    # Laplacian(h + 5(1-x^2)) = -10 < f, so the subsolution hypothesis fails
    lower_violator = GridFunction(disk65, h.values + 5.0 * (1.0 - disk65.X**2), h.defined.copy())
    bad = comparison_check(lower_violator, h, identity_spec)
    assert bad.outcome == "precondition_failed"
    assert not bad


def test_comparison_detects_violation(disk33, identity_spec):
    h = sv.solve_linear_dirichlet(np.eye(2), None, saddle, disk33)
    shifted = GridFunction(disk33, h.values - 0.5, h.defined.copy())
    res = comparison_check(h, shifted, identity_spec, slack=1.0)
    assert res.outcome == "not_ordered"


def test_comparison_flags_disorder_on_the_boundary_alone(disk33, identity_spec):
    # raising the lower function's boundary keeps it a subsolution and leaves
    # the interior ordered, so only the boundary check can catch the pair
    h = sv.solve_linear_dirichlet(np.eye(2), None, saddle, disk33)
    raised = GridFunction(disk33, np.where(disk33.boundary, h.values + 0.5, h.values),
                          h.defined.copy())
    res = comparison_check(raised, h, identity_spec)
    assert (res.outcome, res.detail) == ("precondition_failed", "boundary ordering")
    assert res.max_violation == pytest.approx(0.5, rel=1e-12)


def test_comparison_principle_on_chord_and_newton_solves():
    # With w12 = 0 the 5-point scheme is monotone, so two solves whose
    # boundary data differ by delta (1 + x^2) > 0 stay ordered inside.  Near
    # eps = lam_min the chord steps are slow and the loop takes Newton steps.
    # sine, and w12 != 0 (the 4-point cross stencil), make a scheme that is
    # not monotone, and are left out.
    newton_steps = []

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from(sorted(_CONTRACT_GRIDS)), w11=st.floats(0.5, 2.0),
           w22=st.floats(0.5, 2.0), frac=st.floats(0.0, 0.95), delta=st.floats(1e-6, 1e-1))
    @example(shape="disk", w11=1.5, w22=0.9, frac=0.95, delta=1e-6)
    def ordered(shape, w11, w22, frac, delta):
        g = _CONTRACT_GRIDS[shape]
        spec = op.OperatorSpec(w11, 0.0, w22, frac * min(w11, w22), "smooth_max")
        lower = sv.solve_fully_nonlinear(spec, None, _contract_boundary, g)
        upper = sv.solve_fully_nonlinear(
            spec, None, lambda x, y: _contract_boundary(x, y) + delta * (1.0 + x**2), g)
        res = comparison_check(lower, upper, spec)
        assert res.outcome == "ordered", res
        newton_steps.append(lower.meta["newton_steps"] + upper.meta["newton_steps"])

    ordered()
    assert max(newton_steps) > 0
