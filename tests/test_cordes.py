"""Spread-condition margins, the 2-D Hessian identity, and linearized fields."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellreg import cordes as cd
from ellreg import operators as op
from ellreg.grid import GridFunction
from ellreg.solver import solve_fully_nonlinear

from conftest import philox, saddle


def test_k_eps_margin_values():
    assert cd.k_eps_margin([1.0, 1.0, 1.0]) == 1.0
    assert cd.k_eps_margin([1.0, 2.0]) == 8.0 / 9.0  # exact in binary
    with pytest.raises(ValueError, match="zero trace"):
        cd.k_eps_margin([1.0, -1.0])


def test_k_eps_prime_values():
    ev = [0.7, 1.9]
    assert cd.k_eps_prime_margin(ev) == cd.k_eps_margin(ev)  # n = 2 coincidence
    assert cd.kprime_prefactor(2) == 1.0
    assert cd.kprime_prefactor(3) == 2.75
    assert cd.k_eps_prime_margin([1.0, 1.0, 2.0]) == pytest.approx(1.0 - 5.5 / 16.0, abs=1e-15)
    assert cd.k_eps_prime_margin([2.0, 2.0, 2.0]) == 1.0


def test_kprime_implies_k_for_higher_dimensions():
    rng = philox(6)
    for _ in range(50):
        ev = rng.uniform(0.2, 3.0, size=rng.integers(3, 6))
        assert cd.k_eps_prime_margin(ev) <= cd.k_eps_margin(ev)


def test_cordes_delta_values():
    assert cd.cordes_delta(np.eye(2)) == 1.0
    assert cd.cordes_delta(np.eye(3)) == 1.0
    assert cd.cordes_delta(np.diag([1.0, 0.0])) == 0.0
    with pytest.raises(ValueError, match="zero trace"):
        cd.cordes_delta(np.diag([1.0, -1.0]))


def test_margins_scale_invariant():
    ev = np.array([0.5, 1.25, 2.0])
    t = 4.0  # power of two keeps the homogeneity exact in floating point
    assert cd.k_eps_margin(t * ev) == cd.k_eps_margin(ev)
    assert cd.k_eps_prime_margin(t * ev) == cd.k_eps_prime_margin(ev)
    A = np.diag(ev)
    assert cd.cordes_delta(t * A) == cd.cordes_delta(A)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=2, max_size=5),
       st.floats(min_value=0.01, max_value=100.0))
def test_margins_homogeneous_of_degree_zero(ev, t):
    ev = np.asarray(ev)
    assert cd.k_eps_margin(t * ev) == pytest.approx(cd.k_eps_margin(ev), rel=1e-12, abs=1e-12)
    assert cd.k_eps_prime_margin(t * ev) == pytest.approx(
        cd.k_eps_prime_margin(ev), rel=1e-12, abs=1e-12)
    if len(ev) >= 3:
        assert cd.k_eps_prime_margin(ev) <= cd.k_eps_margin(ev) + 1e-15


def test_cordes_delta_orthogonal_invariance_100_rotations():
    rng = philox(17)
    A = np.array([[1.4, 0.3, 0.0], [0.3, 0.9, -0.2], [0.0, -0.2, 1.1]])
    base = cd.cordes_delta(A)
    for _ in range(100):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert abs(cd.cordes_delta(Q @ A @ Q.T) - base) <= 1e-10


def test_nirenberg_constants():
    res = cd.nirenberg_constants(np.eye(2), f_bound=3.0, eps_slack=1.0)
    assert res.k == 2.0 and res.k1 == 6.0
    assert res.threshold_ok
    res2 = cd.nirenberg_constants(np.diag([1.5, 1.0]), f_bound=0.0, eps_slack=1.0)
    assert res2.k == pytest.approx(4.0, rel=1e-14)
    with pytest.raises(ValueError, match="deviation too large"):
        cd.nirenberg_constants(np.diag([2.0, 1.0]), f_bound=0.0, eps_slack=1.0)
    stack = np.stack([np.eye(2), np.diag([1.5, 1.0])])
    res3 = cd.nirenberg_constants(stack, f_bound=1.0, eps_slack=1.0)
    assert res3.max_dev_sq == pytest.approx(0.25, rel=1e-14)


def test_hessian_identity_check(disk33):
    for fn, tol in ((saddle, 1e-12), (lambda x, y: x * y, 1e-12),
                    (lambda x, y: np.sin(x) * np.sin(y), 1e-10)):
        u = GridFunction.from_callable(disk33, fn)
        assert cd.hessian_identity_check(u) <= tol


def test_hessian_identity_random_fields(disk33):
    rng = philox(23)
    for _ in range(10):
        vals = np.where(disk33.defined, rng.standard_normal((33, 33)), np.nan)
        u = GridFunction(disk33, vals, disk33.defined.copy())
        # rough fields have O(1/h^2) Hessians; the identity is still algebraic
        h2 = np.nanmax(np.abs(u.values)) / disk33.h**2
        assert cd.hessian_identity_check(u) <= 1e-10 * (1.0 + h2**2)


def test_linearized_field_constant_coefficients(disk33):
    u = GridFunction.from_callable(disk33, saddle)
    spec = op.OperatorSpec(1.0, 0.0, 1.0)
    rep = cd.linearized_field(spec, u)
    assert rep.min_keps == pytest.approx(1.0, abs=1e-14)
    assert rep.min_cordes_delta == pytest.approx(1.0, abs=1e-14)
    assert not rep.zero_trace_nodes
    spec2 = op.OperatorSpec(1.0, 0.0, 2.0)
    rep2 = cd.linearized_field(spec2, u)
    assert rep2.min_keps == pytest.approx(cd.k_eps_margin([1.0, 2.0]), abs=1e-14)
    assert np.allclose(rep2.keps, cd.k_eps_margin([1.0, 2.0]), atol=1e-14)
    # n = 2 coincidence: keps is also the trace-form margin k'_eps
    assert np.allclose(rep2.keps, cd.k_eps_prime_margin([1.0, 2.0]), atol=1e-14)


def test_closed_form_margins_match_the_general_ones():
    rng = philox(29)
    g11, g22 = rng.uniform(0.1, 3.0, (2, 50))
    g12 = rng.uniform(-1.0, 1.0, 50) * np.sqrt(g11 * g22)
    g11[0], g22[0] = 1.0, -1.0  # a zero trace
    keps, cdelta, zero = cd.margins_2x2(g11, g12, g22)
    assert zero.tolist() == [True] + [False] * 49
    assert np.isnan(keps[0]) and np.isnan(cdelta[0])
    for a, b, c, k, d in list(zip(g11, g12, g22, keps, cdelta))[1:]:
        A = np.array([[a, b], [b, c]])
        assert k == pytest.approx(cd.k_eps_margin(np.linalg.eigvalsh(A)), rel=0, abs=1e-13)
        assert d == pytest.approx(cd.cordes_delta(A), rel=1e-14)
    with pytest.raises(ValueError, match="every node has zero trace"):
        cd.margins_2x2(g11[:1], g12[:1], g22[:1])


def test_linearized_field_perturbed_solution(disk65, sine_spec):
    u = solve_fully_nonlinear(sine_spec, None, saddle, disk65)
    rep = cd.linearized_field(sine_spec, u)
    identity_margin = cd.k_eps_margin(np.linalg.eigvalsh(op.df_at_zero(sine_spec)))
    assert rep.min_keps >= identity_margin - 0.2
    assert rep.min_keps > 0
    prime = [cd.k_eps_prime_margin(np.linalg.eigvalsh([[a, b], [b, c]]))
             for a, b, c in zip(rep.g11, rep.g12, rep.g22)]
    assert np.allclose(rep.keps, prime, rtol=0.0, atol=1e-12)
