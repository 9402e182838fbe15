"""Quadratic fitting, the improvement step, scale iterations, pointwise
Hoelder upgrades, and certificates."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellreg import campanato as cp
from ellreg import constants as C
from ellreg import operators as op
from ellreg.grid import Grid2, GridFunction
from ellreg.solver import hessian

from conftest import cubic_harmonic, philox, saddle

FLAT = C.EllipticityBounds(1.0, 1.0)
EXT1 = C.ExternalConstants(K1=1.0, alpha0=1.0, C_prime=1.0, K2=1.0, C3=1.0)


def report():
    return C.build_report(2, FLAT, C.HolderPair(0.5, 0.25), EXT1)


# ---------------------------------------------------------------------------
# fit_quadratic


def test_fit_recovers_quadratics_exactly(disk65):
    u = GridFunction.from_callable(disk65, lambda x, y: 1.5 - 0.3 * x + y + 0.5 * (2 * x * x + 2 * 0.4 * x * y - 1.1 * y * y))
    poly, dev = cp.fit_quadratic(u, (0.0, 0.0), 0.5)
    assert dev <= 1e-10 * u.sup()
    assert poly.a == pytest.approx(1.5, abs=1e-10)
    assert poly.b[0] == pytest.approx(-0.3, abs=1e-10)
    assert poly.b[1] == pytest.approx(1.0, abs=1e-10)
    assert poly.c[0, 0] == pytest.approx(2.0, abs=1e-9)
    assert poly.c[0, 1] == pytest.approx(0.4, abs=1e-9)
    assert poly.c[1, 1] == pytest.approx(-1.1, abs=1e-9)
    # off-center fits reproduce the same polynomial in physical coordinates
    poly2, dev2 = cp.fit_quadratic(u, (0.3, -0.2), 0.4)
    assert dev2 <= 1e-10 * u.sup()
    xs = np.linspace(-0.5, 0.5, 7)
    assert np.allclose(poly2(xs, xs[::-1]), poly(xs, xs[::-1]), atol=1e-9)


def test_fit_cubic_taylor_envelope(disk257):
    u = GridFunction.from_callable(disk257, cubic_harmonic)
    M = u.sup()
    r = 0.2
    poly, dev = cp.fit_quadratic(u, (0.0, 0.0), r)
    envelope = 125.0 / 6.0 * 8.0 * M * r**3  # third-derivative chain bound, n = 2
    assert dev <= envelope
    assert dev <= r**3  # pure cubic: the optimal fit cannot beat sup|u| on the ball


def test_fit_parity_kills_even_coefficients(disk65):
    u = GridFunction.from_callable(disk65, lambda x, y: x**3)
    poly, _ = cp.fit_quadratic(u, (0.0, 0.0), 0.4)
    assert abs(poly.c[0, 0]) <= 1e-10
    assert abs(poly.a) <= 1e-10


def test_fit_errors(disk65):
    u = GridFunction.from_callable(disk65, saddle)
    with pytest.raises(ValueError, match="need at least 12"):
        cp.fit_quadratic(u, (0.0, 0.0), 1.2 * disk65.h)
    row = disk65.defined & (np.abs(disk65.Y) < 1e-12)
    line = GridFunction.from_callable(disk65, saddle, mask=row)
    with pytest.raises(ValueError, match="degenerate"):
        cp.fit_quadratic(line, (0.0, 0.0), 0.5)


def test_fit_l2_optimality_beats_taylor_competitor(disk65):
    u = GridFunction.from_callable(disk65, lambda x, y: np.sin(x + 0.3 * y))
    r = 0.5
    mask = disk65.defined & (np.hypot(disk65.X, disk65.Y) <= r)
    poly, _ = cp.fit_quadratic(u, (0.0, 0.0), r)
    # Taylor polynomial of sin(x + 0.3 y) at 0:  (x + 0.3 y) - 0 x^2 ...
    taylor = cp.QuadraticPolynomial(0.0, np.array([1.0, 0.3]), np.zeros((2, 2)))
    dev_fit = u.values[mask] - poly(disk65.X[mask], disk65.Y[mask])
    dev_tay = u.values[mask] - taylor(disk65.X[mask], disk65.Y[mask])
    assert np.sum(dev_fit**2) <= np.sum(dev_tay**2) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# improvement step


def test_step_fixed_point_on_harmonic_quadratic(disk65, identity_spec):
    u = GridFunction.from_callable(disk65, saddle)
    P, rep = cp.improvement_step(u, identity_spec)
    assert rep.c_correction == 0.0
    assert np.max(np.abs(P.c - np.array([[2.0, 0.0], [0.0, -2.0]]))) <= 1e-6
    assert rep.sup_u_minus_p <= 1e-7
    assert rep.sup_u_minus_h <= 1e-7
    assert rep.d2h_bound_ok


def test_step_correction_vanishes_for_linear_operator(disk65, identity_spec):
    u = GridFunction.from_callable(disk65, cubic_harmonic)
    P, rep = cp.improvement_step(u, identity_spec)
    assert rep.c_correction == 0.0  # eps = 0 short-circuits to the Taylor polynomial
    assert abs(np.trace(P.c)) <= 1e-7  # harmonic replacement has near-traceless Hessian


def test_step_with_perturbed_operator(disk65, sine_spec):
    u = GridFunction.from_callable(disk65, cubic_harmonic)
    P, rep = cp.improvement_step(u, sine_spec)
    assert abs(rep.c_correction) <= sine_spec.eps
    assert rep.operator_residual <= 1e-10
    M = u.sup()
    envelope = 125.0 / 6.0 * 8.0 * M * rep.r_used**3
    assert rep.sup_u_minus_p <= envelope
    assert rep.d2h_bound_ok


def test_step_bisection_moves_onto_zero_set(disk65, sine_spec):
    # harmonic quadratic part with a nonzero Hessian forces a genuine correction
    u = GridFunction.from_callable(
        disk65, lambda x, y: x**2 - y**2 + 0.5 * x * y + 0.1 * cubic_harmonic(x, y))
    P, rep = cp.improvement_step(u, sine_spec)
    assert rep.d2h_norm > 1.0
    assert 0 < abs(rep.c_correction) <= sine_spec.eps
    assert rep.operator_residual <= 1e-10  # bisection landed on the zero set
    assert abs(op.evaluate(sine_spec, P.c)) <= 1e-10


def test_step_validation(disk65, identity_spec):
    u = GridFunction.from_callable(disk65, saddle)
    with pytest.raises(ValueError, match="domain too small"):
        cp.improvement_step(u, identity_spec, gamma_used=0.19, replace_radius=0.9)
    even = Grid2.disk(64)
    ue = GridFunction.from_callable(even, saddle)
    with pytest.raises(ValueError, match="center node"):
        cp.improvement_step(ue, identity_spec)


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
        acc = acc + rec.amplitude * rec.correction(xs / rec.radius, ys / rec.radius)
    direct = last.poly(xs, ys)
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert np.max(np.abs(acc - direct)) <= 1e-12 * scale


def test_iterate_truncation_flagged():
    g = Grid2.disk(65)
    u = GridFunction.from_callable(g, cubic_harmonic)
    spec = op.OperatorSpec(1.0, 0.0, 1.0)
    table = cp.campanato_iterate(u, spec, rho=0.9, kmax=50)
    assert table.truncated
    assert len(table.records) < 51


def test_iterate_perturbed_solution_decay(perturbed_solution, sine_spec):
    table = cp.campanato_iterate(perturbed_solution, sine_spec, rho=0.5, kmax=4)
    assert table.exponent_defined
    assert table.fitted_exponent >= 2.5 - 0.2


def test_inhomogeneous_reduces_to_homogeneous_for_zero_source(disk129, identity_spec):
    u = GridFunction.from_callable(disk129, cubic_harmonic)
    zero = GridFunction.zeros(disk129)
    hom = cp.campanato_iterate(u, identity_spec, rho=0.5, kmax=4)
    inh = cp.inhomogeneous_iterate(u, identity_spec, zero, mu=0.5, kmax=4, alpha=0.25)
    for a, b in zip(hom.records, inh.records):
        assert a.sup_dev == b.sup_dev
        assert a.poly.a == b.poly.a
        assert np.array_equal(a.poly.c, b.poly.c)
        assert b.f_check == 0.0


def test_inhomogeneous_decay_with_radial_source(disk257, identity_spec):
    alpha = 0.5
    kappa = 0.5
    u = GridFunction.from_callable(
        disk257, lambda x, y: saddle(x, y) + kappa * np.hypot(x, y) ** (2 + alpha))
    f = GridFunction.from_callable(
        disk257, lambda x, y: kappa * (2 + alpha) ** 2 * np.hypot(x, y) ** alpha)
    table = cp.inhomogeneous_iterate(u, identity_spec, f, mu=0.5, kmax=4, alpha=alpha)
    assert table.exponent_defined
    assert table.fitted_exponent >= 2 + alpha - 0.2
    assert all(rec.f_check is not None for rec in table.records)


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
    assert cp.pointwise_to_holder([(None, 0.0), (None, 0.0)], 0.5) == 0.0
    assert cp.pointwise_to_holder([(None, 2.0)], 0.5) == pytest.approx(117.25483399593904, rel=1e-10)
    with pytest.raises(ValueError, match="missing fits"):
        cp.pointwise_to_holder([], 0.5)


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
        fits = cp.pointwise_fit_constants(u, alpha, region_radius=0.25, stride=2)
        certified = cp.pointwise_to_holder(fits, alpha)
        measured = cp.discrete_hessian_seminorm(u, alpha, radius=0.25)
        assert certified >= measured


def _pointwise_reference(u, alpha, region_radius, stride=2, fit_radius=0.3):
    """fit_quadratic and the K_c max, one center at a time."""
    g = u.grid
    ii, jj = np.nonzero(u.defined & (np.hypot(g.X, g.Y) <= region_radius * (1.0 + 1e-12)))
    keep = (ii % stride == 0) & (jj % stride == 0)
    allx, ally, allv = g.X[u.defined], g.Y[u.defined], u.values[u.defined]
    fits, clipped = [], []
    full_count = int((u.defined & (np.hypot(g.X, g.Y) <= fit_radius * (1.0 + 1e-12))).sum())
    for i, j in zip(ii[keep], jj[keep]):
        cx, cy = g.X[i, j], g.Y[i, j]
        poly, _ = cp.fit_quadratic(u, (cx, cy), fit_radius)
        dist = np.hypot(allx - cx, ally - cy)
        far = dist > 0.5 * g.h
        ratios = np.abs(allv[far] - poly(allx[far], ally[far])) / dist[far] ** (2.0 + alpha)
        fits.append((poly, float(np.max(ratios))))
        ball = u.defined & (np.hypot(g.X - cx, g.Y - cy) <= fit_radius * (1.0 + 1e-12))
        clipped.append(int(ball.sum()) < full_count)
    return fits, clipped


@pytest.mark.parametrize("fraction", [0.25, 0.8])
@pytest.mark.parametrize("shape,extent", [("disk", 1.0), ("square", 1.0), ("disk", 0.4)])
def test_pointwise_batched_fits_match_per_center_reference(shape, extent, fraction):
    g = Grid2(shape, 65, extent)
    u = GridFunction.from_callable(
        g, lambda x, y: np.sin(3 * x / extent) * np.cos(2 * y / extent)
        + np.hypot(x / extent - 0.1, y / extent) ** 2.5)
    alpha = 0.5
    got = cp.pointwise_fit_constants(u, alpha, region_radius=fraction * extent)
    want, clipped = _pointwise_reference(u, alpha, fraction * extent)
    assert not all(clipped)  # the shared design is exercised
    if fraction == 0.8:
        assert any(clipped)  # and so is the per-center path for clipped balls
    assert len(got) == len(want)
    for (p, k), (q, k_ref) in zip(got, want):
        assert abs(k - k_ref) <= 1e-10 * k_ref
        coef = np.concatenate([[p.a], p.b, p.c.ravel()])
        coef_ref = np.concatenate([[q.a], q.b, q.c.ravel()])
        assert np.max(np.abs(coef - coef_ref)) <= 1e-10 * np.max(np.abs(coef_ref))


def test_seminorm_zero_on_quadratic(disk65):
    u = GridFunction.from_callable(disk65, saddle)
    assert cp.discrete_hessian_seminorm(u, 0.5, radius=0.3) <= 1e-9


def test_seminorm_matches_known_profile(disk129):
    # D^2 of |x|^2.5 scales like |x|^0.5; the measured seminorm must be positive
    u = GridFunction.from_callable(disk129, lambda x, y: np.hypot(x, y) ** 2.5)
    s = cp.discrete_hessian_seminorm(u, 0.5, radius=0.3)
    assert s > 1.0


_HOLDER_GRIDS = (Grid2.disk(17), Grid2.square(17, 0.5))


def _holder_brute_force(g, mask, fields, alpha, max_nodes):
    ii, jj = np.nonzero(mask)
    stride = max(1, math.ceil(math.sqrt(len(ii) / max_nodes)))
    nodes = [(i, j) for i, j in zip(ii, jj) if i % stride == 0 and j % stride == 0]
    worst = 0.0
    for n, (i, j) in enumerate(nodes):
        for k, l in nodes[n + 1:]:
            # one-element arrays take the kernel's vectorised power, which may
            # round differently from the scalar one
            dist = np.hypot(np.array([g.X[i, j] - g.X[k, l]]), np.array([g.Y[i, j] - g.Y[k, l]]))
            worst = max(worst, max(abs(v[i, j] - v[k, l]) for v in fields) / (dist**alpha)[0])
    return worst


@st.composite
def _holder_inputs(draw):
    g = draw(st.sampled_from(_HOLDER_GRIDS))
    flat = sorted(draw(st.sets(st.integers(0, g.N * g.N - 1), max_size=40)))
    mask = np.zeros((g.N, g.N), dtype=bool)
    mask.ravel()[flat] = True
    fields = []
    for _ in range(draw(st.integers(1, 3))):
        v = np.full((g.N, g.N), np.nan)  # the kernel must read only mask nodes
        v.ravel()[flat] = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(flat),
                                        max_size=len(flat)))
        fields.append(v)
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True))
    return g, mask, tuple(fields), alpha, draw(st.integers(1, 50))


@settings(deadline=None)
@given(_holder_inputs())
def test_pairwise_holder_kernel_equals_brute_force(inputs):
    assert cp._pairwise_holder(*inputs) == _holder_brute_force(*inputs)


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


def test_certificate_under_resolved_ball(identity_spec):
    g = Grid2.disk(17)
    u = GridFunction.from_callable(g, saddle)
    rep = report()
    with pytest.raises(ValueError, match="under-resolved"):
        cp.certificate_check(u, identity_spec, None, rep, C.EllipticityBounds(1.0, 4.0))
