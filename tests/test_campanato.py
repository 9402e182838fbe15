"""Quadratic fitting, the improvement step, scale iterations, pointwise
Hoelder upgrades, and certificates."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellreg import campanato as cp
from ellreg import constants as C
from ellreg import operators as op
from ellreg.grid import Grid2, GridFunction
from ellreg.solver import hessian, solve_fully_nonlinear

from conftest import cubic_harmonic, holey_field, island_field, philox, saddle

FLAT = C.EllipticityBounds(1.0, 1.0)
EXT1 = C.ExternalConstants(K1=1.0, alpha0=1.0, C_prime=1.0, K2=1.0, C3=1.0)


def report():
    return C.build_report(2, FLAT, C.HolderPair(0.5, 0.25), EXT1)


# ---------------------------------------------------------------------------
# quadratic fits


def _ball_fit(u, center, r):
    """The least-squares quadratic over the defined nodes of u in the
    coordinate ball of radius r about center, by campanato's row fit: the
    polynomial's coefficients in physical coordinates and the max node deviation."""
    g = u.grid
    cx, cy = float(center[0]), float(center[1])
    mask = u.defined & g.ball(r, (cx, cy))
    design = np.column_stack(cp._monomials((g.X[mask] - cx) / r, (g.Y[mask] - cy) / r))
    coef, dev = cp._fit_rows(design, u.values[mask])
    return cp._physical(coef, r, cx, cy), float(dev)


def _hessian_matrix(coef):
    """The symmetric Hessian [[c11, c12], [c12, c22]] of a coefficient vector."""
    return coef[[3, 4, 4, 5]].reshape(2, 2)


def test_fit_recovers_quadratics_exactly(disk65):
    u = GridFunction.from_callable(disk65, lambda x, y: 1.5 - 0.3 * x + y + 0.5 * (2 * x * x + 2 * 0.4 * x * y - 1.1 * y * y))
    poly, dev = _ball_fit(u, (0.0, 0.0), 0.5)
    assert dev <= 1e-10 * u.sup()
    assert poly[0] == pytest.approx(1.5, abs=1e-10)
    assert poly[1] == pytest.approx(-0.3, abs=1e-10)
    assert poly[2] == pytest.approx(1.0, abs=1e-10)
    assert poly[3] == pytest.approx(2.0, abs=1e-9)
    assert poly[4] == pytest.approx(0.4, abs=1e-9)
    assert poly[5] == pytest.approx(-1.1, abs=1e-9)
    # off-center fits reproduce the same polynomial in physical coordinates
    poly2, dev2 = _ball_fit(u, (0.3, -0.2), 0.4)
    assert dev2 <= 1e-10 * u.sup()
    xs = np.linspace(-0.5, 0.5, 7)
    assert np.allclose(cp.evaluate_quadratic(poly2, xs, xs[::-1]),
                       cp.evaluate_quadratic(poly, xs, xs[::-1]), atol=1e-9)


def test_fit_cubic_taylor_envelope(disk257):
    u = GridFunction.from_callable(disk257, cubic_harmonic)
    M = u.sup()
    r = 0.2
    poly, dev = _ball_fit(u, (0.0, 0.0), r)
    envelope = 125.0 / 6.0 * 8.0 * M * r**3  # third-derivative chain bound, n = 2
    assert dev <= envelope
    assert dev <= r**3  # pure cubic: the optimal fit cannot beat sup|u| on the ball


def test_fit_parity_kills_even_coefficients(disk65):
    u = GridFunction.from_callable(disk65, lambda x, y: x**3)
    poly, _ = _ball_fit(u, (0.0, 0.0), 0.4)
    assert abs(poly[3]) <= 1e-10
    assert abs(poly[0]) <= 1e-10


def test_fit_errors(disk65):
    u = GridFunction.from_callable(disk65, saddle)
    with pytest.raises(ValueError, match="need at least 12"):
        _ball_fit(u, (0.0, 0.0), 1.2 * disk65.h)
    row = disk65.defined & (np.abs(disk65.Y) < 1e-12)
    line = GridFunction.from_callable(disk65, saddle, mask=row)
    with pytest.raises(ValueError, match="degenerate"):
        _ball_fit(line, (0.0, 0.0), 0.5)


def test_a_fit_takes_twelve_rows_and_no_fewer():
    # a 4 x 3 block of nodes pins a quadratic with any one row left out
    x, y = (a.ravel() for a in np.mgrid[-1.5:2:1.0, -1.0:1.5:1.0])
    design = np.column_stack(cp._monomials(x, y))
    vals = saddle(x, y)
    coef, dev = cp._fit_rows(design, vals)
    assert np.allclose(coef, [0.0, 0.0, 0.0, 2.0, 0.0, -2.0]) and dev <= 1e-14
    with pytest.raises(ValueError, match="holds 11 nodes; need at least 12"):
        cp._fit_rows(design[1:], vals[1:])


def test_fit_l2_optimality_beats_taylor_competitor(disk65):
    u = GridFunction.from_callable(disk65, lambda x, y: np.sin(x + 0.3 * y))
    r = 0.5
    mask = disk65.defined & (np.hypot(disk65.X, disk65.Y) <= r)
    poly, _ = _ball_fit(u, (0.0, 0.0), r)
    # Taylor polynomial of sin(x + 0.3 y) at 0:  (x + 0.3 y) - 0 x^2 ...
    taylor = np.array([0.0, 1.0, 0.3, 0.0, 0.0, 0.0])
    dev_fit = u.values[mask] - cp.evaluate_quadratic(poly, disk65.X[mask], disk65.Y[mask])
    dev_tay = u.values[mask] - cp.evaluate_quadratic(taylor, disk65.X[mask], disk65.Y[mask])
    assert np.sum(dev_fit**2) <= np.sum(dev_tay**2) * (1 + 1e-12)


_FORM_GRIDS = (Grid2.disk(33), Grid2.square(33, 0.5))
_COEFS = st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6).map(np.array)


@st.composite
def _quadratic_inputs(draw):
    g = draw(st.sampled_from(_FORM_GRIDS))
    holes = draw(st.booleans())
    defined = holey_field(g, draw(st.integers(0, 2**32))).defined if holes else g.defined
    center = [draw(st.floats(-0.3, 0.3)) * g.extent for _ in range(2)]
    return g, defined, draw(_COEFS), draw(_COEFS), center, draw(st.floats(0.3, 0.6)) * g.extent


@settings(deadline=None)
@given(_quadratic_inputs())
def test_quadratic_is_one_coefficient_vector(inputs):
    g, defined, coef, other, center, r = inputs
    scale = max(1.0, float(np.max(np.abs(coef))))
    # F at the quadratic is F at its Hessian [[c11, c12], [c12, c22]]
    spec = op.OperatorSpec(1.5, 0.25, 1.0, 0.05, "sine")
    assert cp._operator_at(spec, coef) == spec.evaluate(_hessian_matrix(coef))
    # the fit of the sampled quadratic gives back its vector
    u = GridFunction(g, np.where(defined, cp.evaluate_quadratic(coef, g.X, g.Y), np.nan), defined)
    fit, dev = _ball_fit(u, center, r)
    assert np.max(np.abs(fit - coef)) <= 1e-9 * scale
    assert dev <= 1e-10 * scale
    # evaluation is the product with the monomial basis, up to rounding
    basis = np.stack(cp._monomials(g.X, g.Y))
    bound = np.tensordot(np.abs(coef), np.abs(basis), axes=1)
    assert np.all(np.abs(cp.evaluate_quadratic(coef, g.X, g.Y) - np.tensordot(coef, basis, axes=1))
                  <= 1e-13 * bound)
    # a decay CSV row carries the vector's reprs
    rec = cp.DecayRecord(k=0, radius=r, poly=coef, sup_dev=dev, correction=other, amplitude=1.0,
                         operator_residual=0.0)
    table = cp.DecayTable([rec], float("nan"), 0.5, False, False, "homogeneous")
    assert table.to_csv().splitlines()[1].split(",")[3:] == [repr(float(v)) for v in coef]


@st.composite
def _lstsq_inputs(draw):
    """A (k, m, 6) stack of monomial designs on integer nodes in [-4, 4]^2 with
    p right-hand sides each: full-rank designs holding the 3 x 3 block about
    the origin, some of their other rows masked to zero; designs on the line
    y = c x, of rank at most 3; or fewer than 6 nodes."""
    rng = philox(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("generic", "line", "few")))
    k, p = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    m = draw(st.integers(1, 5)) if kind == "few" else draw(st.integers(9, 40))
    x, y = rng.integers(-4, 5, (2, k, m)).astype(float)
    on = np.ones((k, m), dtype=bool)
    if kind == "generic":
        x[:, :9], y[:, :9] = (v.ravel() for v in np.mgrid[-1:2, -1:2])
        on[:, 9:] = rng.random((k, m - 9)) < 0.8
    elif kind == "line":
        y = draw(st.sampled_from((0.0, 1.0, -2.0, 0.5))) * x
    design = np.stack(cp._monomials(x, y), axis=-1) * on[..., None]
    return design, np.where(on[..., None], rng.standard_normal((k, m, p)), 0.0), on


@settings(deadline=None)
@given(_lstsq_inputs())
def test_lstsq_matches_the_reference_minimum_norm_solve(inputs):
    design, values, on = inputs
    solve, rank = cp._lstsq(design)
    coef = solve(values)
    for d, v, keep, r, c in zip(design, values, on, rank, coef):
        # the masked rows dropped, against numpy's reference solve
        ref, _, ref_rank, _ = np.linalg.lstsq(d[keep], v[keep], rcond=None)
        assert r == ref_rank
        assert np.max(np.abs(c - ref)) <= 1e-12 * np.max(np.abs(ref))
        # one design alone, with one or many right-hand sides, solves the same
        one, one_rank = cp._lstsq(d)
        assert one_rank == r
        assert np.max(np.abs(one(v) - c)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(one(v[:, 0]) - c[:, 0])) <= 1e-12 * np.max(np.abs(ref))
        if r < 6:  # minimum norm: orthogonal to every null vector of the design
            null = np.linalg.svd(d[keep])[2][r:]
            assert np.max(np.abs(null @ c)) <= 1e-12 * np.max(np.abs(ref))


def test_lstsq_drops_singular_values_at_lstsqs_default_rcond():
    # designs with set singular values, one 4 times above eps * m and one
    # half of it: lstsq's rule keeps the first and drops the second
    rng, m = philox(11), 40
    tol = np.finfo(float).eps * m
    left, right = (np.linalg.qr(rng.standard_normal(shape))[0] for shape in ((m, 6), (6, 6)))
    spectra = np.array([[1.0, 0.5, 0.25, 0.125, 4 * tol, tol / 2],
                        [1.0, 0.5, 0.25, 4 * tol, tol / 2, tol / 2]])
    design = (left * spectra[:, None, :]) @ right.T
    ranks = [np.linalg.lstsq(d, np.zeros(m), rcond=None)[2] for d in design]
    assert ranks == [5, 4]
    assert cp._lstsq(design)[1].tolist() == ranks
    assert [cp._lstsq(d)[1] for d in design] == ranks


def _tall_design(kind: str, m: int, seed: int):
    """An (m, 6) monomial design on random nodes of the unit disk, with p = 2
    right-hand sides: of full rank ("generic"), the same with about a fifth of
    its rows zeroed ("masked"), or on the line y = x / 2, of rank 3 ("line")."""
    rng = philox(seed)
    r, t = np.sqrt(rng.random(m)), rng.uniform(0.0, 2.0 * np.pi, m)
    x, y = r * np.cos(t), r * np.sin(t)
    if kind == "line":
        y = 0.5 * x
    design = np.column_stack(cp._monomials(x, y))
    if kind == "masked":
        design[rng.random(m) < 0.2] = 0.0
    return design, rng.standard_normal((m, 2))


@pytest.mark.parametrize("kind", ["generic", "masked", "line"])
@pytest.mark.parametrize("rows", [1, 5, 6, 7, 64, None])
def test_blocked_lstsq_matches_the_one_block_svd(monkeypatch, kind, rows):
    design, values = _tall_design(kind, 25_000 if rows is None else 3_000, 7)
    if rows is not None:  # None keeps the default row blocks, which cut 25,000 rows in three
        monkeypatch.setattr(cp, "_QR_ROWS", rows)
    assert len(design) > cp._QR_ROWS
    solve, rank = cp._lstsq(design)
    got, got_one = solve(values), solve(values[:, 0])
    monkeypatch.setattr(cp, "_QR_ROWS", len(design))  # one block
    one, one_rank = cp._lstsq(design)
    ref = one(values)
    assert rank == one_rank == (3 if kind == "line" else 6)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale
    assert np.max(np.abs(got_one - ref[:, 0])) <= 1e-12 * scale


def test_a_small_lattice_block_leaves_every_fit_bit_for_bit(monkeypatch):
    # the lattice-sup tests patch _BLOCK to 1-64; the fits' row blocks are
    # _QR_ROWS whatever _BLOCK is
    design, values = _tall_design("generic", 3_000, 3)
    ref = cp._lstsq(design)[0](values)
    monkeypatch.setattr(cp, "_BLOCK", 64)
    assert np.array_equal(cp._lstsq(design)[0](values), ref)


def test_blocked_lstsq_rank_rule_counts_the_full_designs_rows(monkeypatch):
    # singular values 4 eps m and eps m / 2 times the largest, as above, but
    # on m = 5,000 rows cut into blocks of 100: the stacked block factors have
    # 300 rows, and a rank rule on those would keep the last singular value
    rng, m = philox(12), 5_000
    tol = np.finfo(float).eps * m
    left, right = (np.linalg.qr(rng.standard_normal(shape))[0] for shape in ((m, 6), (6, 6)))
    design = (left * np.array([1.0, 0.5, 0.25, 0.125, 4 * tol, tol / 2])) @ right.T
    monkeypatch.setattr(cp, "_QR_ROWS", 100)
    assert np.linalg.lstsq(design, np.zeros(m), rcond=None)[2] == 5
    assert cp._lstsq(design)[1] == 5


def test_seminorm_of_the_cubic_harmonic_is_its_closed_form():
    # D^2_h of x^3 - 3 x y^2 is exact and affine, (6x, -6y, -6x), so in the
    # entrywise max metric the seminorm over a ball of radius r is
    # 6 |x - y|^(1 - alpha), largest on a diameter along an axis
    for n in (33, 65, 129):
        u = GridFunction.from_callable(Grid2.disk(n), cubic_harmonic)
        for r in (0.25, 0.5):
            for alpha in (0.25, 0.5, 0.75):
                want = 6.0 * (2.0 * r) ** (1.0 - alpha)
                assert cp.discrete_hessian_seminorm(u, alpha, radius=r) == pytest.approx(
                    want, rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# improvement step


def test_step_fixed_point_on_harmonic_quadratic(disk65, identity_spec):
    u = GridFunction.from_callable(disk65, saddle)
    P, rep = cp.improvement_step(u, identity_spec)
    assert rep.c_correction == 0.0
    assert np.max(np.abs(_hessian_matrix(P) - np.array([[2.0, 0.0], [0.0, -2.0]]))) <= 1e-6
    assert rep.sup_u_minus_p <= 1e-7
    assert rep.sup_u_minus_h <= 1e-7
    assert rep.d2h_bound_ok


def test_step_correction_vanishes_for_linear_operator(disk65, identity_spec):
    u = GridFunction.from_callable(disk65, cubic_harmonic)
    P, rep = cp.improvement_step(u, identity_spec)
    assert rep.c_correction == 0.0  # eps = 0 short-circuits to the Taylor polynomial
    # the harmonic replacement has a near-traceless Hessian
    assert abs(np.trace(_hessian_matrix(P))) <= 1e-7


def test_step_with_perturbed_operator(disk65, sine_spec):
    u = GridFunction.from_callable(disk65, cubic_harmonic)
    P, rep = cp.improvement_step(u, sine_spec)
    assert abs(rep.c_correction) <= sine_spec.eps
    assert rep.operator_residual <= 1e-10
    M = u.sup()
    envelope = 125.0 / 6.0 * 8.0 * M * rep.r_used**3
    assert rep.sup_u_minus_p <= envelope
    assert rep.d2h_bound_ok


def test_step_d2h_bound_is_25_sup_u(disk65, identity_spec):
    # ||D^2 h(0)|| <= (25/4) n^2 M with n = 2 and M = sup|u| = 3 exactly
    u = GridFunction.from_callable(disk65, lambda x, y: np.full_like(x, -3.0))
    _, rep = cp.improvement_step(u, identity_spec)
    assert rep.sup_u == 3.0
    assert rep.d2h_bound == 75.0


def test_step_replaces_with_the_w0_harmonic_solution(disk65):
    # x^2 - 2 y^2 solves tr(W0 D^2 h) = 0 for W0 = diag(2, 1), on which the
    # 5-point stencil is exact, so the replacement of its mollification (the
    # quadratic plus a constant) is that quadratic again and the Taylor
    # polynomial keeps its Hessian; the D^2 h bound is the harmonic one times
    # lam_max(W0) / lam_min(W0) = 2
    spec = op.OperatorSpec(2.0, 0.0, 1.0)
    u = GridFunction.from_callable(disk65, lambda x, y: x**2 - 2.0 * y**2)
    P, rep = cp.improvement_step(u, spec)
    assert rep.sup_h_minus_p <= 1e-9
    assert np.max(np.abs(_hessian_matrix(P) - np.diag([2.0, -4.0]))) <= 1e-6
    assert rep.d2h_bound == 25.0 * rep.sup_u * 2.0
    assert rep.d2h_bound_ok


def test_step_runs_on_an_anisotropic_solution_with_eps():
    # the replacement solves W0's own linear equation, so its Taylor Hessian
    # lies within eps of F's zero set and the bisection brackets a zero
    g = Grid2.disk(65)
    spec = op.OperatorSpec(1.25, 0.15, 1.0, 0.05, "smooth_max")
    u = solve_fully_nonlinear(spec, None, lambda x, y: x**4, g)
    P, rep = cp.improvement_step(u, spec)
    assert rep.operator_residual <= 1e-14
    assert abs(spec.evaluate(_hessian_matrix(P))) <= 1e-14
    assert 0 < abs(rep.c_correction) <= spec.eps
    lam_min, lam_max = np.linalg.eigvalsh(spec.W0)
    assert rep.d2h_bound == pytest.approx(25.0 * rep.sup_u * lam_max / lam_min, rel=1e-15)
    assert rep.d2h_bound_ok
    assert rep.sup_u_minus_p <= 2e-3


def test_taylor_at_center_needs_full_stencil_support(disk33):
    u = GridFunction.from_callable(disk33, saddle)
    defined = u.defined.copy()
    defined[17, 16] = False  # a neighbour of the centre node (16, 16)
    hole = GridFunction(disk33, np.where(defined, u.values, np.nan), defined)
    with pytest.raises(ValueError, match="center node lacks full stencil support"):
        cp._taylor_at_center(hole)


def test_taylor_at_center_takes_hessians_second_differences(disk65):
    u = GridFunction.from_callable(disk65, lambda x, y: np.sin(x + 2 * y) + x**4 * y)
    H, i0 = hessian(u), 32
    coef = cp._taylor_at_center(u)
    assert coef[3:].tolist() == [H.h11[i0, i0], H.h12[i0, i0], H.h22[i0, i0]]


def test_step_bisection_moves_onto_zero_set(disk65, sine_spec):
    # harmonic quadratic part with a nonzero Hessian forces a genuine correction
    u = GridFunction.from_callable(
        disk65, lambda x, y: x**2 - y**2 + 0.5 * x * y + 0.1 * cubic_harmonic(x, y))
    P, rep = cp.improvement_step(u, sine_spec)
    assert rep.d2h_norm > 1.0
    assert 0 < abs(rep.c_correction) <= sine_spec.eps
    assert rep.operator_residual <= 1e-10  # bisection landed on the zero set
    assert abs(sine_spec.evaluate(_hessian_matrix(P))) <= 1e-10


@pytest.mark.parametrize("b", [-0.9, -0.8])
def test_step_correction_shift_is_scaled_by_lam(disk65, b):
    # F is linear along the shift, so the bisection's zero has a closed form:
    # tr(W0 (C_T + c s I)) = 0 with s = ||D^2 h(0)|| / lam, C_T the Taylor Hessian
    spec = op.OperatorSpec(1.5, 0.25, 1.0, 0.1, "none")
    u = GridFunction.from_callable(
        disk65, lambda x, y: 0.5 * saddle(x, y) + b * x * y + 0.2 * cubic_harmonic(x, y)
        + 0.05 * np.sin(2 * x) * np.cos(y))
    _, rep = cp.improvement_step(u, spec)
    taylor, _ = cp.improvement_step(u, dataclasses.replace(spec, eps=0.0))
    W0 = spec.W0
    lam = np.linalg.eigvalsh(W0)[0] - spec.eps
    expected = -np.trace(W0 @ _hessian_matrix(taylor)) / (rep.d2h_norm / lam * np.trace(W0))
    assert rep.c_correction != 0.0
    assert rep.c_correction == pytest.approx(expected, rel=1e-10)


def test_step_validation(disk65, identity_spec):
    u = GridFunction.from_callable(disk65, saddle)
    with pytest.raises(ValueError, match="domain too small"):
        cp.improvement_step(u, identity_spec, gamma_used=0.19)
    even = Grid2.disk(64)
    ue = GridFunction.from_callable(even, saddle)
    with pytest.raises(ValueError, match="center node"):
        cp.improvement_step(ue, identity_spec)


@pytest.mark.parametrize("e", [0.5, 0.35, 2.0])
def test_step_is_covariant_under_the_blow_up(e):
    # u_e(x) = e^2 u(x / e) on a disk of extent e: both step radii and gamma =
    # 4h scale with the extent, so the step sees the same nodes, D^2 h(0) and
    # the correction keep their values and the sup deviations scale as e^2.
    # The replacement's solve stops at max|g| / e^2, so it takes the same
    # iterations on each lattice; the node coordinates and the data round
    # differently at e = 0.35, which moved these by at most 1.4e-14
    # relative; the bound is 1e-12
    spec = op.OperatorSpec(1.0, 0.0, 1.0, 0.5, "sine")

    def field(x, y):
        return (x**2 - y**2 + 0.5 * x * y + 0.1 * cubic_harmonic(x, y)
                + 0.05 * np.sin(3 * x) * np.cos(2 * y))

    _, one = cp.improvement_step(GridFunction.from_callable(Grid2.disk(65), field), spec)
    _, rep = cp.improvement_step(GridFunction.from_callable(
        Grid2.disk(65, e), lambda x, y: e**2 * field(x / e, y / e)), spec)
    assert one.c_correction != 0.0
    assert rep.mg_iterations == one.mg_iterations
    assert rep.d2h_norm == pytest.approx(one.d2h_norm, rel=1e-12, abs=0.0)
    assert rep.c_correction == pytest.approx(one.c_correction, rel=1e-12, abs=0.0)
    for key in ("sup_u_minus_h", "sup_h_minus_p", "sup_u_minus_p"):
        assert getattr(rep, key) == pytest.approx(e**2 * getattr(one, key), rel=1e-12, abs=0.0)
    assert (rep.replace_radius, rep.r_used) == (0.8 * e, 0.25 * e)


# ---------------------------------------------------------------------------
# scale iteration


def test_iterate_quadratic_idempotence(disk129, identity_spec):
    u = GridFunction.from_callable(
        disk129, lambda x, y: 0.7 + x - 0.5 * y + 0.5 * (1.3 * x * x - 2 * 0.2 * x * y + 0.8 * y * y))
    table = cp.campanato_iterate(u, identity_spec, rho=0.5, kmax=4)
    for rec in table.records:
        assert rec.sup_dev <= 1e-9 * u.sup()
    assert not table.exponent_defined
    assert np.isnan(table.fitted_exponent)


def test_iterate_cubic_decay_and_monotonicity(disk257, identity_spec):
    u = GridFunction.from_callable(disk257, cubic_harmonic)
    table = cp.campanato_iterate(u, identity_spec, rho=0.5, kmax=4)
    assert len(table.records) == 5
    assert not table.truncated
    assert table.exponent_defined
    assert table.fitted_exponent >= 2.8
    for a, b in zip(table.records, table.records[1:]):
        assert b.sup_dev <= a.sup_dev * 0.5**1.5
        assert b.radius == pytest.approx(a.radius * 0.5)


def test_iterate_telescoping_identity(disk129, identity_spec):
    rng = philox(5)
    base = GridFunction.from_callable(disk129, cubic_harmonic)
    noise = 0.05 * rng.standard_normal((129, 129))
    u = GridFunction(disk129, base.values + np.where(disk129.defined, noise, 0.0),
                     disk129.defined.copy())
    table = cp.campanato_iterate(u, identity_spec, rho=0.5, kmax=3)
    last = table.records[-1]
    xs = np.linspace(-0.05, 0.05, 9)
    ys = np.linspace(-0.05, 0.05, 9)[::-1]
    acc = np.zeros_like(xs)
    for rec in table.records:
        acc = acc + rec.amplitude * cp.evaluate_quadratic(
            rec.correction, xs / rec.radius, ys / rec.radius)
    direct = cp.evaluate_quadratic(last.poly, xs, ys)
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert np.max(np.abs(acc - direct)) <= 1e-12 * scale


@pytest.mark.parametrize("extent", [1.0, 0.7])
@pytest.mark.parametrize("with_source", [False, True])
def test_iterate_correction_is_the_rescaled_fit_increment(extent, with_source, identity_spec):
    # correction k is the fit on B_(r_k) in the unit frame over its amplitude:
    # its Hessian is extent^2 (P_k's - P_(k-1)'s), over rho^(k alpha) with a source
    rho, alpha = 0.5, 0.25
    g = Grid2.disk(257, extent)
    u = GridFunction.from_callable(
        g, lambda x, y: np.exp(0.8 * x + 0.3 * y) + np.sin(2 * x) * np.cos(y))
    f = GridFunction.from_callable(g, lambda x, y: 1.0 + x * y) if with_source else None
    table = cp.campanato_iterate(u, identity_spec, rho=rho, kmax=4, f=f, alpha=alpha)
    assert len(table.records) == 5
    for prev, rec in zip(table.records, table.records[1:]):
        expected = extent**2 * (_hessian_matrix(rec.poly) - _hessian_matrix(prev.poly))
        if with_source:
            expected = expected / rho ** (rec.k * alpha)
        assert (np.max(np.abs(_hessian_matrix(rec.correction) - expected))
                <= 1e-10 * np.max(np.abs(expected)))


def test_iterate_truncation_flagged():
    g = Grid2.disk(65)
    u = GridFunction.from_callable(g, cubic_harmonic)
    spec = op.OperatorSpec(1.0, 0.0, 1.0)
    table = cp.campanato_iterate(u, spec, rho=0.9, kmax=50)
    assert table.truncated
    assert len(table.records) < 51


@pytest.mark.parametrize("extra,scales", [(0, 2), (2, 2), (3, 4)])
def test_iterate_counts_the_defined_nodes_it_fits(identity_spec, extra, scales):
    # u is undefined inside 8.5h but for the 3 x 3 block at the origin and
    # extra of three more nodes, so the balls of radius 8h and 4h (k = 2, 3)
    # hold 9 + extra defined nodes of the grid's 197 and 49: a scale with
    # fewer than 12 ends the table, and k = 4 (a radius of 2h) always does
    g = Grid2.disk(65)
    i, j = np.mgrid[-32:33, -32:33]
    keep = (np.abs(i) <= 1) & (np.abs(j) <= 1)
    for di, dj in ((2, 0), (0, 2), (-2, 0))[:extra]:
        keep |= (i == di) & (j == dj)
    defined = g.defined & ((i * i + j * j > 8.5**2) | keep)
    u = GridFunction(g, np.where(defined, cubic_harmonic(g.X, g.Y), np.nan), defined)
    table = cp.campanato_iterate(u, identity_spec, rho=0.5, kmax=4)
    assert table.truncated
    assert len(table.records) == scales


def test_iterate_perturbed_solution_decay(perturbed_solution, sine_spec):
    table = cp.campanato_iterate(perturbed_solution, sine_spec, rho=0.5, kmax=4)
    assert table.exponent_defined
    assert table.fitted_exponent >= 2.5 - 0.2


def test_inhomogeneous_reduces_to_homogeneous_for_zero_source(disk129, identity_spec):
    u = GridFunction.from_callable(disk129, cubic_harmonic)
    zero = GridFunction.zeros(disk129)
    hom = cp.campanato_iterate(u, identity_spec, rho=0.5, kmax=4)
    inh = cp.campanato_iterate(u, identity_spec, rho=0.5, kmax=4, f=zero, alpha=0.25)
    assert (hom.mode, inh.mode) == ("homogeneous", "inhomogeneous")
    for a, b in zip(hom.records, inh.records):
        assert a.sup_dev == b.sup_dev
        assert a.poly[0] == b.poly[0]
        assert np.array_equal(_hessian_matrix(a.poly), _hessian_matrix(b.poly))
        assert a.operator_residual == b.operator_residual


def test_inhomogeneous_decay_with_radial_source(disk257, identity_spec):
    alpha = 0.5
    kappa = 0.5
    u = GridFunction.from_callable(
        disk257, lambda x, y: saddle(x, y) + kappa * np.hypot(x, y) ** (2 + alpha))
    f = GridFunction.from_callable(
        disk257, lambda x, y: kappa * (2 + alpha) ** 2 * np.hypot(x, y) ** alpha)
    table = cp.campanato_iterate(u, identity_spec, rho=0.5, kmax=4, f=f, alpha=alpha)
    assert table.exponent_defined
    assert table.fitted_exponent >= 2 + alpha - 0.2
    assert all(rec.amplitude == 0.5 ** (rec.k * (2 + alpha)) for rec in table.records)


# ---------------------------------------------------------------------------
# source decay


def test_check_f_decay_zero_and_constant(disk129):
    zero = GridFunction.zeros(disk129)
    assert cp.check_f_decay(zero, 0.5) == 0.0
    one = GridFunction.from_callable(disk129, lambda x, y: np.ones_like(x))
    val = cp.check_f_decay(one, 0.5)
    assert val == pytest.approx((4.0 * disk129.h) ** -0.5, rel=1e-9)


def test_check_f_decay_sqrt_profile(disk129):
    f = GridFunction.from_callable(disk129, lambda x, y: np.hypot(x, y) ** 0.5)
    val = cp.check_f_decay(f, 0.5)
    assert val <= 1.0  # continuum value sqrt(2/3) ~ 0.8165 plus lattice slack
    # the radial-average envelope (1/(1+alpha))^(1/n) for the seminorm-1 profile
    assert val <= 1.0 * (1.0 / 1.5) ** 0.5 * 1.1


def test_check_f_decay_positive_homogeneity(disk65):
    rng = philox(11)
    vals = np.where(disk65.defined, rng.standard_normal((65, 65)), np.nan)
    f = GridFunction(disk65, vals, disk65.defined.copy())
    f2 = GridFunction(disk65, 2.0 * vals, disk65.defined.copy())
    assert cp.check_f_decay(f2, 0.5) == 2.0 * cp.check_f_decay(f, 0.5)


# ---------------------------------------------------------------------------
# pointwise Hoelder upgrade


def test_pointwise_factor_value():
    assert float(C.pointwise_factor(0.5)) == pytest.approx(58.62741699796952, rel=1e-10)
    assert cp.pointwise_to_holder(0.0, 0.5) == 0.0
    assert cp.pointwise_to_holder(2.0, 0.5) == pytest.approx(117.25483399593904, rel=1e-10)


def test_pointwise_fits_need_a_center(disk65):
    # a region whose nodes are all undefined holds no center to fit about
    g = disk65
    defined = g.defined & (np.hypot(g.X, g.Y) > 0.2)
    u = GridFunction(g, np.where(defined, g.X, np.nan), defined)
    with pytest.raises(ValueError, match="no fit centers"):
        cp.pointwise_fit_constants(u, 0.5, region_radius=0.1)


def _synthetic_fields(grid, count, seed):
    rng = philox(seed)
    fields = []
    for i in range(count):
        a, b1, b2 = rng.uniform(-1, 1, 3)
        c = rng.uniform(-1, 1, 3)
        x0, y0 = rng.uniform(-0.2, 0.2, 2)
        amp = rng.uniform(0.2, 1.0)
        k1, k2 = rng.uniform(0.5, 2.0, 2)

        def fn(x, y, a=a, b1=b1, b2=b2, c=c, x0=x0, y0=y0, amp=amp, k1=k1, k2=k2, i=i):
            base = a + b1 * x + b2 * y + 0.5 * (c[0] * x * x + 2 * c[1] * x * y + c[2] * y * y)
            bump = amp * np.hypot(x - x0, y - y0) ** 2.5
            wave = 0.1 * np.sin(k1 * x) * np.cos(k2 * y) if i % 2 else 0.0
            return base + bump + wave

        fields.append(GridFunction.from_callable(grid, fn))
    return fields


def test_pointwise_bound_dominates_measured_seminorm_20_fields(disk65):
    alpha = 0.5
    for u in _synthetic_fields(disk65, 20, seed=314):
        _, K = cp.pointwise_fit_constants(u, alpha, region_radius=0.25)
        certified = cp.pointwise_to_holder(K, alpha)
        measured = cp.discrete_hessian_seminorm(u, alpha, radius=0.25)
        assert certified >= measured


def _pointwise_reference(u, alphas, region_radius, stride=2):
    """_ball_fit on the ball of radius 0.3 extent and the K_c max, one
    center at a time; the fits of every alpha in alphas, keyed by alpha, and
    the centers with clipped balls."""
    g = u.grid
    fit_radius = 0.3 * g.extent
    ii, jj = np.nonzero(u.defined & (np.hypot(g.X, g.Y) <= region_radius * (1.0 + 1e-12)))
    keep = (ii % stride == 0) & (jj % stride == 0)
    allx, ally, allv = g.X[u.defined], g.Y[u.defined], u.values[u.defined]
    fits, clipped = {alpha: [] for alpha in alphas}, []
    full_count = int((u.defined & (np.hypot(g.X, g.Y) <= fit_radius * (1.0 + 1e-12))).sum())
    for i, j in zip(ii[keep], jj[keep]):
        cx, cy = g.X[i, j], g.Y[i, j]
        poly, _ = _ball_fit(u, (cx, cy), fit_radius)
        dist = np.hypot(allx - cx, ally - cy)
        far = dist > 0.5 * g.h
        resid = np.abs(allv[far] - cp.evaluate_quadratic(poly, allx[far], ally[far]))
        for alpha in alphas:
            fits[alpha].append((poly, float(np.max(resid / dist[far] ** (2.0 + alpha)))))
        ball = u.defined & (np.hypot(g.X - cx, g.Y - cy) <= fit_radius * (1.0 + 1e-12))
        clipped.append(int(ball.sum()) < full_count)
    return fits, clipped


@pytest.mark.parametrize("fraction", [0.25, 0.8])
@pytest.mark.parametrize("shape,extent,hole", [
    pytest.param("disk", 1.0, False, id="disk-1.0"),
    pytest.param("square", 1.0, False, id="square-1.0"),
    pytest.param("disk", 0.4, False, id="disk-0.4"),
    pytest.param("disk", 1.0, True, id="disk-1.0-hole"),
])
def test_pointwise_batched_fits_match_per_center_reference(shape, extent, hole, fraction):
    g = Grid2(shape, 65, extent)
    values = (np.sin(3 * g.X / extent) * np.cos(2 * g.Y / extent)
              + np.hypot(g.X / extent - 0.1, g.Y / extent) ** 2.5)
    defined = g.defined.copy()
    if hole:
        # a strict sub-mask: a hole of undefined nodes away from the centers,
        # with finite junk stored wherever the field is undefined
        defined &= np.hypot(g.X / extent - 0.6, g.Y / extent - 0.5) > 0.08
        values = np.where(defined, values, 10.0)
    else:
        values = np.where(defined, values, np.nan)
    u = GridFunction(g, values, defined)
    reference, clipped = _pointwise_reference(u, (0.25, 0.5, 1.0), fraction * extent)
    assert not all(clipped)  # the shared design is exercised
    if fraction == 0.8:
        assert any(clipped)  # and so is the per-center path for clipped balls
    # at extent 1 every node coordinate is a multiple of h = 2^-5, so X - cx is
    # di h exactly and a clipped ball's rows of the offset design are the
    # coordinate ball's: its fit, and the kernel's K with it, agree bit for bit
    # (the unclipped centers share one solve of many columns, which BLAS sums
    # in another order than one column's)
    dyadic = extent == 1.0
    for alpha, want in reference.items():
        got, K = cp.pointwise_fit_constants(u, alpha, region_radius=fraction * extent)
        assert got.shape[1] == len(want)
        k_ref = max(k for _, k in want)
        assert abs(K - k_ref) <= 1e-10 * k_ref
        for p, (q, _), c in zip(got.T, want, clipped):
            if dyadic and c:
                assert np.array_equal(p, q)
            else:
                assert np.max(np.abs(p - q)) <= 1e-10 * np.max(np.abs(q))
        if dyadic:
            mixed = np.stack([q if c else p for p, (q, _), c in zip(got.T, want, clipped)], axis=1)
            assert K == max(_kc_brute_force(u, mixed, alpha, fraction * extent))


def test_a_clipped_ball_under_twelve_defined_nodes_is_an_error():
    with pytest.raises(ValueError, match="holds 9 nodes; need at least 12"):
        cp.pointwise_fit_constants(island_field(Grid2.disk(65)), 0.5)


@pytest.mark.parametrize("e", [0.5, 2.0])
def test_pointwise_constant_scales_under_the_blow_up(e):
    # u_e(x) = e^2 u(x / e) on a lattice of extent e has K(u_e) = e^-alpha K(u):
    # the fit balls and the center region scale with the extent, and a power
    # of two scales the nodes exactly, so a few roundings separate the two
    # sides (2.2e-16 relative measured at e = 0.5 and 2; 1e-12 asserted)
    alpha = 0.25

    def u(x, y):
        return np.sin(3 * x) * np.cos(2 * y) + np.hypot(x - 0.1, y) ** 2.5

    _, K = cp.pointwise_fit_constants(GridFunction.from_callable(Grid2.disk(129), u), alpha)
    _, K_e = cp.pointwise_fit_constants(
        GridFunction.from_callable(Grid2.disk(129, e), lambda x, y: e**2 * u(x / e, y / e)), alpha)
    assert abs(K_e - e**-alpha * K) <= 1e-12 * e**-alpha * K


# the eight symmetries of the square lattice, as maps of a lattice array; on
# an odd lattice each keeps the domain, the balls about the origin and the
# fit centers on even rows and columns
_D4 = (lambda a: a, lambda a: np.rot90(a, 1), lambda a: np.rot90(a, 2), lambda a: np.rot90(a, 3),
       lambda a: a.T, lambda a: np.rot90(a, 1).T, lambda a: np.rot90(a, 2).T,
       lambda a: np.rot90(a, 3).T)


@st.composite
def _metamorphic_inputs(draw):
    """A smooth field on a disk or square of odd N <= 129 and extent in
    [0.25, 4], and an alpha."""
    e = draw(st.floats(0.25, 4.0))
    g = Grid2(draw(st.sampled_from(("disk", "square"))), 2 * draw(st.integers(8, 64)) + 1, e)
    k1, k2, phase, px, py = philox(draw(st.integers(0, 2**32 - 1))).uniform(-1, 1, 5)
    X, Y = g.X / e, g.Y / e
    values = e**2 * (np.sin((2.5 + 1.5 * k1) * X + 3 * phase) * np.cos((2.5 + 1.5 * k2) * Y)
                     + np.hypot(X - 0.3 * px, Y - 0.3 * py) ** 2.5)
    u = GridFunction(g, np.where(g.defined, values, np.nan), g.defined.copy())
    return u, draw(st.floats(0.05, 0.95))


def _rounding_scale(alpha, *fields):
    """u_r M / h^(2+alpha), u_r = 2^-52 and M the largest sup of the fields: an
    error of u_r M in a value moves a Hessian by u_r M / h^2, and both lattice
    sups divide by h^alpha at the nearest pair or node."""
    return 2.0**-52 * max(f.sup() for f in fields) / fields[0].grid.h ** (2 + alpha)


@settings(max_examples=25, deadline=None)
@given(_metamorphic_inputs(), st.integers(1, 7))
def test_lattice_symmetries_keep_the_seminorm_and_K(inputs, which):
    # the map permutes the nodes, so only the order of roundings changes; over
    # about 2,300 drawn lattices the seminorm moved by at most 0.25 and K by at
    # most 8.1 rounding scales (7e-13 relative), and the bounds are 2 and 64
    u, alpha = inputs
    g, d4 = u.grid, _D4[which]
    v = GridFunction(g, d4(u.values).copy(), d4(u.defined).copy())
    scale = _rounding_scale(alpha, u)
    radius = 0.5 * g.extent
    seminorm = cp.discrete_hessian_seminorm(u, alpha, radius=radius)
    assert abs(cp.discrete_hessian_seminorm(v, alpha, radius=radius) - seminorm) <= 2 * scale
    K = cp.pointwise_fit_constants(u, alpha)[1]
    assert abs(cp.pointwise_fit_constants(v, alpha)[1] - K) <= 64 * scale


@settings(max_examples=25, deadline=None)
@given(_metamorphic_inputs(), st.integers(0, 2**32 - 1))
def test_an_added_affine_function_keeps_the_seminorm_and_K(inputs, seed):
    # second differences and quadratic fits are exact on affine functions, so
    # only roundings move; over about 2,300 drawn lattices the seminorm moved
    # by at most 1.9 and K by at most 7.1 rounding scales (1.1e-11 relative),
    # and the bounds are 16 and 64
    u, alpha = inputs
    g = u.grid
    a, b1, b2 = philox(seed).uniform(-1, 1, 3) * g.extent**2
    w = GridFunction(g, u.values + a + b1 * g.X / g.extent + b2 * g.Y / g.extent, u.defined)
    scale = _rounding_scale(alpha, u, w)
    radius = 0.5 * g.extent
    seminorm = cp.discrete_hessian_seminorm(u, alpha, radius=radius)
    assert abs(cp.discrete_hessian_seminorm(w, alpha, radius=radius) - seminorm) <= 16 * scale
    K = cp.pointwise_fit_constants(u, alpha)[1]
    assert abs(cp.pointwise_fit_constants(w, alpha)[1] - K) <= 64 * scale


def _fit_centers(u, region_radius):
    """The lattice indices of the pointwise fit centers, in their order."""
    ii, jj = np.nonzero(u.defined & u.grid.ball(region_radius))
    keep = (ii % 2 == 0) & (jj % 2 == 0)
    return ii[keep], jj[keep]


def _shifted(u, coef):
    """u and the quadratics in the columns of coef less Q0, the entrywise
    median of those columns, as the pointwise kernel takes them."""
    g = u.grid
    q0 = np.median(coef, axis=1)
    return (GridFunction(g, u.values - cp.evaluate_quadratic(q0, g.X, g.Y), u.defined),
            coef - q0[:, None])


def _kc_brute_force(u, coef, alpha, region_radius):
    """Each center's K_c as the max over every defined node of the kernel's
    per-node contribution |(u - Q0) - (P_c - Q0)| / ((di^2 + dj^2) h^2)^(1 + alpha/2),
    P_c the columns of coef, Q0 the entrywise median of those columns,
    inf at the center itself."""
    g = u.grid
    off = np.arange(g.N)
    table = ((off[:, None] ** 2 + off[None, :] ** 2) * g.h**2) ** (1.0 + 0.5 * alpha)
    table[0, 0] = np.inf
    shifted, coef = _shifted(u, coef)
    out = []
    for c, i, j in zip(coef.T, *_fit_centers(u, region_radius)):
        ratio = (np.abs(shifted.values - cp.evaluate_quadratic(c, g.X, g.Y))
                 / table[np.abs(off - i)][:, np.abs(off - j)])
        out.append(np.max(ratio[u.defined]))
    return out


@st.composite
def _pointwise_inputs(draw):
    g = Grid2(draw(st.sampled_from(("disk", "square"))), draw(st.integers(17, 65)),
              draw(st.sampled_from((0.5, 0.75, 1.0))))
    seed = draw(st.integers(0, 2**32 - 1))
    defined = holey_field(g, seed).defined if draw(st.booleans()) else g.defined
    X, Y = g.X / g.extent, g.Y / g.extent
    kind = draw(st.sampled_from(("random", "smooth", "quadratic")))
    if kind == "random":
        values = philox(seed).standard_normal((g.N, g.N))
    elif kind == "smooth":
        values = np.sin(3 * X) * np.cos(2 * Y) + np.hypot(X - 0.1, Y) ** 2.5
    else:  # every residual is rounding, so the bounds live on their margins
        values = cp.evaluate_quadratic(philox(seed).uniform(-1, 1, 6), X, Y)
    u = GridFunction(g, np.where(defined, values, np.nan), defined)
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True))
    region_radius = draw(st.sampled_from((0.2, 0.5, 0.8))) * g.extent
    return u, alpha, region_radius


@settings(max_examples=40, deadline=None)
@given(_pointwise_inputs(), st.one_of(st.just(cp._BLOCK), st.integers(1, 64)), st.integers(1, 16))
def test_tiled_pointwise_constants_equal_the_brute_force_max(inputs, block, tile):
    # small blocks split the centers into many row blocks, so the best value
    # is carried across them, and hold fewer entries than one tile's nodes;
    # tiles of every side leave partial tiles and partial boxes
    u, alpha, region_radius = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_BLOCK", block)
        mp.setattr(cp, "_tile_side", lambda nodes: tile)
        try:
            fits, K = cp.pointwise_fit_constants(u, alpha, region_radius=region_radius)
        except ValueError as exc:  # a clipped ball with too few nodes, or no center
            assert "need at least 12" in str(exc) or "no fit centers" in str(exc)
            return
        assert K == max(_kc_brute_force(u, fits, alpha, region_radius))
        # every tile's bound holds for every center, not only where the search looked
        shifted, coef = _shifted(u, fits)
        count, _, bound, exact = cp._tiles(shifted, coef, *_fit_centers(u, region_radius), alpha)
        step = max(1, (1 << 18) // (count * tile**2))  # centers of one check, in its memory
        for lo in range(0, fits.shape[1], step):
            cols = np.arange(lo, min(lo + step, fits.shape[1]))
            bounds, first = bound(lo, cols[-1] + 1)
            assert first == 0
            assert np.all(exact(np.repeat(cols, count), np.tile(np.arange(count), len(cols)))
                          <= bounds.ravel())


def test_tile_bounds_are_their_widening_alone_on_a_quadratic():
    # every tile of a square N = tk + 1 lattice (t = 4 at N = 65) either pins
    # a quadratic or is one row or column long, so Q_t is u up to rounding;
    # with u itself as every P_c, a bound is its widening, about 1e-12 of the
    # magnitudes, over a distance power of at least h^(2+alpha)
    g = Grid2.square(65)
    P = np.array([0.3, -1.2, 0.7, 2.0, -0.4, 1.1])
    u = GridFunction.from_callable(g, lambda x, y: cp.evaluate_quadratic(P, x, y))
    ii, jj = (a.ravel() for a in np.mgrid[0:65:7, 0:65:5])
    coef = np.repeat(P[:, None], len(ii), axis=1)
    bounds = cp._tiles(u, coef, ii, jj, 0.5)[2](0, len(ii))[0]
    scale = u.sup() + np.abs(P) @ [1.0, 1.0, 1.0, 0.5, 1.0, 0.5]
    assert np.all(bounds * g.h**2.5 <= 1e-10 * scale)


def _counting(monkeypatch, name):
    """Patch the tiles factory cp.<name> to count: returns a dict that each
    call sets "count", its number of tiles, in, and that each exact evaluation
    adds its number of tiles or tile pairs to under "evaluated"."""
    seen, factory = {"evaluated": 0}, getattr(cp, name)

    def counting(*args):
        *head, exact = factory(*args)
        seen["count"] = head[0]

        def counted(p, q):
            seen["evaluated"] += len(q)
            return exact(p, q)

        return (*head, counted)

    monkeypatch.setattr(cp, name, counting)
    return seen


def test_tiles_evaluated_per_center_stay_few_on_a_rounded_quadratic(monkeypatch):
    # every u - P_c is rounding of a quadratic; with the common quadratic out
    # before the tiles, the widening scales with that rounding, and the tiles
    # near the centers hold the max.  The search's first chunks are single
    # pairs, so the first values prune the rest: 0.02 pairs per center, where
    # a first chunk of 1,024 pairs evaluated 5.2
    u = GridFunction.from_callable(Grid2.disk(129), saddle)
    seen = _counting(monkeypatch, "_tiles")
    fits, _ = cp.pointwise_fit_constants(u, 0.25)
    assert seen["evaluated"] <= fits.shape[1]


def _harmonic_plus_wave(x, y):
    z = x + 1j * y
    out = 0.02 * np.sin(2.1 * x) * np.sin(1.3 * y)
    for deg, c, phase in zip((2, 3, 4), (0.8, -0.6, 0.7), (0.4, 2.5, 4.1)):
        out = out + c * np.real(np.exp(1j * phase) * z**deg)
    return out


def test_pointwise_constant_equals_the_brute_force_max_at_the_rules_side():
    # the tile side of the N = 129 disk is the rule's own, not one a test patches in
    u = GridFunction.from_callable(Grid2.disk(129), _harmonic_plus_wave)
    assert cp._tile_side(int(np.count_nonzero(u.defined))) == 5
    fits, K = cp.pointwise_fit_constants(u, 0.25)
    assert K == max(_kc_brute_force(u, fits, 0.25, 0.25))


def test_center_tile_pairs_evaluated_stay_few_on_a_harmonic_field(monkeypatch):
    # a harmonic polynomial of degrees 2 to 4 plus a small wave, like the
    # benchmark's fields: one best value for all centers prunes the pairs of
    # every center whose own max lies below it (about 12.5 pairs per center)
    u = GridFunction.from_callable(Grid2.disk(257), _harmonic_plus_wave)
    seen = _counting(monkeypatch, "_tiles")
    fits, _ = cp.pointwise_fit_constants(u, 0.25)
    assert fits.shape[1] == 797
    assert seen["evaluated"] <= 16 * fits.shape[1]


def test_lattice_sup_kernels_work_in_bounded_blocks(disk257):
    # a pairwise seminorm over 5,000 nodes has 12.5 million pairs, and the
    # pointwise fits at N = 257 gather 797 balls of 4,633 nodes
    g = Grid2.disk(81)
    ii, jj = np.nonzero(g.defined)
    mask = np.zeros_like(g.defined)
    mask[ii[:5000], jj[:5000]] = True
    field = np.where(g.defined, np.sin(g.X + 2 * g.Y), np.nan)
    u = GridFunction.from_callable(disk257, lambda x, y: np.sin(x + 2 * y) + x**4)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cp._pairwise_holder(g, mask, (field, 2 * field), 0.5)
        holder_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        fits, _ = cp.pointwise_fit_constants(u, 0.25)
        pointwise_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fits.shape[1] == 797
    assert holder_peak < 4e6
    assert pointwise_peak < 16e6


def test_seminorm_zero_on_quadratic(disk65):
    u = GridFunction.from_callable(disk65, saddle)
    assert cp.discrete_hessian_seminorm(u, 0.5, radius=0.3) <= 1e-9


def test_seminorm_matches_known_profile(disk129):
    # D^2 of |x|^2.5 scales like |x|^0.5; the measured seminorm must be positive
    u = GridFunction.from_callable(disk129, lambda x, y: np.hypot(x, y) ** 2.5)
    s = cp.discrete_hessian_seminorm(u, 0.5, radius=0.3)
    assert s > 1.0


# N=129 puts pairs 128 rows or columns apart, where neighbouring distance
# powers differ the least
_HOLDER_GRIDS = (Grid2.disk(17), Grid2.square(17, 0.5), Grid2.disk(129), Grid2.square(129, 2.0))


def _holder_brute_force(g, mask, fields, alpha):
    """The pairwise seminorm over every node pair of mask, each node against
    the nodes after it in row-major order, |x - y|^alpha taken from the pair's
    integer offsets as ((di^2 + dj^2) h^2)^(alpha/2); None for fewer than 2
    nodes."""
    ii, jj = np.nonzero(mask)
    if len(ii) < 2:
        return None  # no pair to measure
    worst = 0.0
    for n in range(len(ii) - 1):
        # row arrays take the kernel's vectorised power, which may round
        # differently from the scalar one
        di, dj = ii[n] - ii[n + 1:], jj[n] - jj[n + 1:]
        dist = ((di * di + dj * dj) * g.h**2) ** (0.5 * alpha)
        diff = np.max([np.abs(v[ii[n], jj[n]] - v[ii[n + 1:], jj[n + 1:]]) for v in fields], axis=0)
        worst = max(worst, float(np.max(diff / dist)))
    return worst


@st.composite
def _holder_inputs(draw):
    g = draw(st.sampled_from(_HOLDER_GRIDS))
    if draw(st.booleans()):  # nodes scattered over the lattice
        flat = sorted(draw(st.sets(st.integers(0, g.N * g.N - 1), max_size=40)))
    else:  # a window of the lattice with holes, so tiles hold several nodes
        i0, j0 = draw(st.integers(0, g.N - 9)), draw(st.integers(0, g.N - 9))
        keep = draw(st.lists(st.booleans(), min_size=81, max_size=81))
        flat = [(i0 + k // 9) * g.N + j0 + k % 9 for k in range(81) if keep[k]]
    mask = np.zeros((g.N, g.N), dtype=bool)
    mask.ravel()[flat] = True
    fields = []
    for _ in range(draw(st.integers(1, 3))):
        v = np.full((g.N, g.N), np.nan)  # the kernel must read only mask nodes
        v.ravel()[flat] = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(flat),
                                        max_size=len(flat)))
        fields.append(v)
    # small exponents bring the distance powers of neighbouring offsets closest
    alpha = draw(st.one_of(st.floats(1e-6, 1e-3), st.floats(0.0, 1.0, exclude_min=True)))
    return (g, mask, tuple(fields), alpha), draw(st.integers(1, 8))


@settings(deadline=None)
@given(_holder_inputs(), st.one_of(st.just(cp._BLOCK), st.integers(1, 64)))
def test_pairwise_holder_kernel_equals_brute_force(drawn, block):
    # small blocks split the tile pairs into many row blocks, and tiles of
    # side t over a window with holes leave partial tiles and partial boxes
    inputs, tile = drawn
    expected = _holder_brute_force(*inputs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_BLOCK", block)
        mp.setattr(cp, "_tile_side", lambda nodes: tile)
        if expected is None:
            with pytest.raises(ValueError, match="pairwise seminorm needs at least 2 nodes"):
                cp._pairwise_holder(*inputs)
        else:
            assert cp._pairwise_holder(*inputs) == expected


def test_pairwise_holder_needs_two_nodes():
    g = Grid2.disk(17)
    mask = np.zeros((17, 17), dtype=bool)
    for count in (0, 1):
        mask[8, 8:8 + count] = True
        with pytest.raises(ValueError, match="needs at least 2 nodes, got %d" % count):
            cp._pairwise_holder(g, mask, (g.X,), 0.5)


@pytest.mark.parametrize("grid", [Grid2.square(33, 0.5), Grid2.disk(33, 3.0)])
def test_holder_tile_bounds_hold_for_every_tile_pair(grid, monkeypatch):
    # a field constant on each tile puts a pair of nearest nodes at the bound
    # of its tile pair, so a spread that rounded low, or a distance power read
    # past the boxes' own offset, would break the bound
    for tile in (2, 4):
        nt = -(-grid.N // tile)
        steps = np.kron(philox(tile).standard_normal((nt, nt)), np.ones((tile, tile)))
        v = np.where(grid.defined, steps[:grid.N, :grid.N], np.nan)
        monkeypatch.setattr(cp, "_tile_side", lambda nodes: tile)
        for alpha in (0.25, 0.5, 1.0):
            count, _, bound, exact = cp._holder_tiles(grid, grid.defined, (v,), alpha)
            bounds = bound(0, count)[0]
            p, q = np.nonzero(bounds > -np.inf)
            for s in range(0, len(p), 1024):
                sl = slice(s, s + 1024)
                assert np.all(exact(p[sl], q[sl]) <= bounds[p[sl], q[sl]])


def _rounded_quadratic(x, y):
    return 0.3 + 0.1 * x - 0.7 * y + 0.65 * x * x + 0.35 * x * y - 1.15 * y * y


@pytest.mark.parametrize("field", [cubic_harmonic, _rounded_quadratic])
def test_holder_tile_pairs_evaluated_stay_few_on_polynomial_hessians(field, monkeypatch):
    # the cubic's Hessian is affine, so its seminorm sits on the farthest
    # pairs and near tiles bound far below it; the quadratic's is constant up
    # to rounding, and tiles a few rows apart bound below the rounding the
    # nearest nodes measure.  Fewer tile pairs than tiles: without the floor
    # on dmin, every tile's pair with itself would be evaluated
    u = GridFunction.from_callable(Grid2.disk(257), field)
    seen = _counting(monkeypatch, "_holder_tiles")
    cp.discrete_hessian_seminorm(u, 0.5, radius=0.5)
    assert seen["evaluated"] < seen["count"]


def test_lattice_sups_of_a_zero_field_evaluate_no_pair(monkeypatch):
    # every bound is exactly 0, the value the search starts from, and only a
    # bound that beats the best value so far is evaluated
    u = GridFunction.from_callable(Grid2.disk(65), lambda x, y: 0.0 * x)
    pairs, centers = _counting(monkeypatch, "_holder_tiles"), _counting(monkeypatch, "_tiles")
    assert cp._pairwise_holder(u.grid, u.defined, (u.values,), 0.5) == 0.0
    assert cp.pointwise_fit_constants(u, 0.5)[1] == 0.0
    assert pairs["evaluated"] == centers["evaluated"] == 0


# ---------------------------------------------------------------------------
# certificates


def test_certificate_quadratic_and_cubic(disk129, identity_spec):
    rep = report()
    quad = GridFunction.from_callable(disk129, saddle)
    cert = cp.certificate_check(quad, identity_spec, None, rep, FLAT)
    assert cert.satisfied and not cert.informational
    assert cert.measured_seminorm <= 1e-9
    cubic = GridFunction.from_callable(disk129, cubic_harmonic)
    cert2 = cp.certificate_check(cubic, identity_spec, None, rep, FLAT)
    assert cert2.satisfied
    assert cert2.bound == pytest.approx(float(rep.C1) * cubic.sup(), rel=1e-12)
    assert cert2.measured_seminorm > 0


def test_certificate_adversarial_zero_bound(disk129, identity_spec):
    rep = report()
    crippled = dataclasses.replace(rep, C1=0.0)
    cubic = GridFunction.from_callable(disk129, cubic_harmonic)
    cert = cp.certificate_check(cubic, identity_spec, None, crippled, FLAT)
    assert not cert.satisfied


def test_certificate_inhomogeneous_informational(disk129, identity_spec):
    rep = report()
    u = GridFunction.from_callable(disk129, lambda x, y: saddle(x, y) + np.hypot(x, y) ** 2.5)
    f = GridFunction.from_callable(disk129, lambda x, y: 6.25 * np.hypot(x, y) ** 0.5)
    cert = cp.certificate_check(u, identity_spec, f, rep, FLAT)
    assert cert.informational
    assert cert.bound > 0
    assert cert.alpha_used == 0.25


def test_certificate_seminorms_are_brute_force_over_every_node(disk65, identity_spec):
    rep = report()
    u = GridFunction.from_callable(disk65, lambda x, y: saddle(x, y) + np.hypot(x, y) ** 2.5)
    f = GridFunction.from_callable(disk65, lambda x, y: 6.25 * np.hypot(x, y) ** 0.5)
    cert = cp.certificate_check(u, identity_spec, f, rep, FLAT)
    a = rep.pair.alpha
    f_semi = _holder_brute_force(disk65, f.defined, (f.values,), a)
    T = float(1.0 / float(rep.delta)) * f_semi + u.sup()
    assert cert.bound == float(C.pointwise_factor(a)) * 2.0**a * float(rep.C4) * T
    H = hessian(u)
    assert cert.measured_seminorm == _holder_brute_force(
        disk65, H.mask & disk65.ball(cert.ball_radius), (H.h11, H.h12, H.h22), a)


@pytest.mark.parametrize("e", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("homogeneous", [True, False], ids=["homogeneous", "inhomogeneous"])
def test_certificate_ratio_is_covariant_under_the_blow_up(e, homogeneous, identity_spec):
    # u_e(x) = e^2 u(x / e) with source f(x / e) on a disk of extent e: the
    # seminorms scale as e^-alpha and the bound with them.  A power of two
    # scales every node coordinate exactly, so only the extent powers and the
    # distance table round differently: 4.4e-16 relative measured, the bound
    # is 1e-14.  The source is scaled by delta so that both of the
    # inhomogeneous bound's terms count
    rep = report()
    u = lambda x, y: saddle(x, y) + np.hypot(x, y) ** 2.5
    f = None if homogeneous else lambda x, y: float(rep.delta) * 6.25 * np.hypot(x, y) ** 0.5

    def ratio(g, s):
        v = GridFunction.from_callable(g, lambda x, y: s**2 * u(x / s, y / s))
        src = None if f is None else GridFunction.from_callable(g, lambda x, y: f(x / s, y / s))
        cert = cp.certificate_check(v, identity_spec, src, rep, FLAT)
        assert cert.informational is not homogeneous and cert.measured_seminorm > 0
        return cert.measured_seminorm / cert.bound

    one = ratio(Grid2.disk(129), 1.0)
    assert ratio(Grid2.disk(129, e), e) == pytest.approx(one, rel=1e-14, abs=0.0)


def test_certificate_under_resolved_ball(identity_spec):
    g = Grid2.disk(17)
    u = GridFunction.from_callable(g, saddle)
    rep = report()
    with pytest.raises(ValueError, match="under-resolved"):
        cp.certificate_check(u, identity_spec, None, rep, C.EllipticityBounds(1.0, 4.0))


@pytest.mark.parametrize("extent, ball", [(1.0, "B_(1/(4 Lambda)) of radius 0.25"),
                                          (2.0, "B_(2/(4 Lambda)) of radius 0.5")])
def test_certificate_names_its_ball_at_the_extent(identity_spec, extent, ball):
    # undefined inside 8.5 h but for the 3 x 3 block at the origin, so the
    # ball B_(e/(4 Lambda)) of radius 8 h holds one node with a full stencil
    g = Grid2.disk(65, extent)
    i, j = np.mgrid[-32:33, -32:33]
    defined = g.defined & ((i * i + j * j > 8.5**2) | ((np.abs(i) <= 1) & (np.abs(j) <= 1)))
    u = GridFunction(g, np.where(defined, saddle(g.X, g.Y), np.nan), defined)
    with pytest.raises(ValueError) as raised:
        cp.certificate_check(u, identity_spec, None, report(), FLAT)
    assert str(raised.value) == (f"the certificate ball {ball} holds 1 nodes with a full 9-point "
                                 "stencil; it needs at least 2")
