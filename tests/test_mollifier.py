"""Bump kernel: normalization and derivative-mass oracles (frozen from
independent 40-digit mpmath runs), discrete mollification laws.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from mpmath import mpf

from ellreg import mollifier as mo
from ellreg.grid import Grid2, GridFunction

from conftest import holey_field, philox, random_field, shifted

# frozen oracle values (mpmath, 40 digits); each result must be the correctly
# rounded double of its oracle:
#   int_{-1}^{1} exp(1/(x^2-1)) dx        = 0.44399381616807943782
#   disk integral 2*pi*int r exp(..) dr   = 0.46651239317833006888
#   int |eta'''| / C (n=1)                = 35.64721990968618203812714
#   n=2 |D^(2,1)| mass / C                = 20.66411785610916878452
# K2_1D was checked against the total variation of eta'' and K2_2D against a
# nested quadrature in the angle, both at 40 digits.
C1 = "2.252283621043581010499781255559830730074"
C2 = "2.143565775792236601000889562877180604131"
K2_1D = "80.28764953832482891967019986742059290813"
K2_2D = "91.08762687402035549010856263101501302267"


def test_normalize_frozen_values():
    assert mo.normalize(1) == float(mpf(C1))
    assert mo.normalize(2) == float(mpf(C2))
    with pytest.raises(ValueError):
        mo.normalize(3)


def test_scaled_kernel_has_unit_mass():
    # eta_gamma(x) = gamma^-n C exp(1/((|x|/gamma)^2 - 1)) integrates to 1
    C = {n: mo.normalize(n) for n in (1, 2)}

    def eta(n, gamma, r):
        return C[n] * gamma**-n * float(mo.bump_profile(float(r) ** 2 / gamma**2))

    for gamma in (0.05, 0.1, 0.19):
        total = mpmath.quad(lambda x: eta(1, gamma, x), [-gamma, 0, gamma])
        assert float(total) == pytest.approx(1.0, abs=1e-8)
    total = mpmath.quad(lambda r: 2 * math.pi * float(r) * eta(2, 0.1, r), [0, 0.1])
    assert float(total) == pytest.approx(1.0, abs=1e-8)


def test_third_derivative_mass_frozen_values():
    assert mo.third_derivative_mass(1) == float(mpf(K2_1D))
    assert mo.third_derivative_mass(2) == float(mpf(K2_2D))
    with pytest.raises(ValueError):
        mo.third_derivative_mass(3)


def test_third_derivative_mass_scales_with_c_prime():
    base = mo.third_derivative_mass(1, c_prime=1.0)
    assert mo.third_derivative_mass(1, c_prime=2.0) == pytest.approx(2.0 * base, rel=1e-12)


@pytest.mark.parametrize("keep", [slice(1, None), slice(None, -1)], ids=["first", "last"])
def test_third_derivative_mass_raises_when_a_kink_is_missed(monkeypatch, keep):
    # a radial quadrature across a kink must fail its error check, not return
    kinks = mo._kinks
    monkeypatch.setattr(mo, "_kinks", lambda cubic: kinks(cubic)[keep])
    with pytest.raises(RuntimeError, match="failed to converge"):
        mo.third_derivative_mass(2)


# ---------------------------------------------------------------------------
# discrete kernel and mollification


def test_discrete_kernel_mass_exactly_one():
    for N, mult in ((65, 4.0), (129, 4.0), (201, 10.0)):
        g = Grid2.disk(N)
        _, w = mo.discrete_kernel(g.h, mult * g.h)
        assert math.fsum(w) == 1.0
        assert (w > 0).all()


def test_discrete_kernel_mass_pin_holds_where_it_fires():
    # the unpinned weights w / sum(w) miss mass 1 on about half of these
    # kernels; the pin must bring every one of them back to fsum(w) == 1
    fired = 0
    for N in (33, 65, 129, 257):
        g = Grid2.disk(N)
        for gamma in np.linspace(2.0 * g.h, 0.19, 7):
            offsets, w = mo.discrete_kernel(g.h, gamma)
            raw = mo.bump_profile((offsets**2).sum(axis=1) * (g.h / gamma) ** 2)
            fired += math.fsum(raw / raw.sum()) != 1.0
            assert math.fsum(w) == 1.0
    assert fired >= 10


@settings(deadline=None, max_examples=30)
@given(st.sampled_from((33, 65, 129)), st.floats(0.0, 1.0), st.floats(1e-3, 1e3),
       st.sampled_from((1.0, -1.0)))
def test_mollify_reproduces_constants_within_rounding(N, t, size, sign):
    # constants come back up to the rounding of a len(w)-term sum, not bit for
    # bit; sizes stay clear of underflow, where a relative bound cannot hold
    c = sign * size
    g = Grid2.disk(N)
    gamma = 2.0 * g.h + t * (0.19 - 2.0 * g.h)
    _, w = mo.discrete_kernel(g.h, gamma)
    m = mo.mollify(GridFunction.from_callable(g, lambda x, y: np.full_like(x, c)), gamma)
    dev = np.max(np.abs(m.values[m.defined] - c))
    assert dev <= len(w) * np.finfo(float).eps * abs(c)


def test_discrete_kernel_under_resolved():
    g = Grid2.disk(17)
    with pytest.raises(ValueError, match="under-resolved"):
        mo.discrete_kernel(g.h, 1.5 * g.h)


def test_mollify_constant_and_linear_fixed_points():
    g = Grid2.disk(65)
    const = GridFunction.from_callable(g, lambda x, y: np.full_like(x, 5.0))
    mc = mo.mollify(const, 4 * g.h)
    assert np.max(np.abs(mc.values[mc.defined] - 5.0)) <= 1e-13
    lin = GridFunction.from_callable(g, lambda x, y: 0.25 + 2.0 * x - 1.5 * y)
    ml = mo.mollify(lin, 4 * g.h)
    assert np.max(np.abs(ml.values[ml.defined] - lin.values[ml.defined])) <= 1e-12


def test_mollify_commutes_with_linear_addition():
    g = Grid2.disk(65)
    rng = philox(7)
    u = random_field(g, rng)
    lin = GridFunction.from_callable(g, lambda x, y: 0.3 - 1.1 * x + 0.8 * y)
    combo = GridFunction(g, u.values + lin.values, g.defined.copy())
    left = mo.mollify(combo, 4 * g.h)
    right = mo.mollify(u, 4 * g.h)
    m = left.defined
    assert np.max(np.abs(left.values[m] - (right.values[m] + lin.values[m]))) <= 1e-12


def test_mollify_never_grows_sup_norm():
    g = Grid2.disk(65)
    rng = philox(42)
    for _ in range(50):
        u = random_field(g, rng)
        m = mo.mollify(u, 4 * g.h)
        assert m.sup() <= u.sup()


@settings(deadline=None, max_examples=30)
@given(st.sampled_from((33, 65, 129)), st.floats(0.0, 1.0), st.booleans(),
       st.floats(1e-3, 1e3), st.floats(0.0, 4.0), st.integers(0, 2**16))
def test_mollify_sup_norm_law(N, t, holes, size, spread, seed):
    # the module docstring's bound: the sup norm grows by at most the
    # rounding of a len(w)-term sum; spread 0 (a constant) makes it sharp
    g = Grid2.disk(N)
    gamma = 2.0 * g.h + t * (0.19 - 2.0 * g.h)
    u = holey_field(g, seed) if holes else random_field(g, philox(seed))
    u = GridFunction(g, size * (1.0 + spread * u.values), u.defined)
    _, w = mo.discrete_kernel(g.h, gamma)
    try:
        m = mo.mollify(u, gamma)
    except ValueError as err:
        if holes and "domain too small" in str(err):
            reject()  # a wide kernel meets a hole at every node
        raise
    assert m.sup() <= u.sup() * (1.0 + len(w) * np.finfo(float).eps)


def test_mollify_shrinks_domain_and_validates():
    g = Grid2.disk(65)
    u = GridFunction.from_callable(g, lambda x, y: x)
    out = mo.mollify(u, 4 * g.h)
    assert out.defined.sum() < u.defined.sum()
    rr = np.hypot(g.X, g.Y)
    assert not out.defined[rr > 1.0 - 2 * g.h].any()
    with pytest.raises(ValueError, match="under-resolved"):
        mo.mollify(u, 1.2 * g.h)
    with pytest.raises(ValueError, match="gamma must lie"):
        mo.mollify(u, 0.5)
    ring = g.defined & (rr >= 0.9)
    thin = GridFunction.from_callable(g, lambda x, y: x, mask=ring)
    with pytest.raises(ValueError, match="domain too small"):
        mo.mollify(thin, 0.19)


@pytest.mark.parametrize("holes", [False, True], ids=["full", "holes"])
@pytest.mark.parametrize("N", [41, 42])
@pytest.mark.parametrize("shape", ["disk", "square"])
def test_mollify_matches_shifted_copy_reference(shape, N, holes):
    g = Grid2(shape, N)
    u = holey_field(g, N) if holes else random_field(g, philox(N))
    gamma = 3 * g.h
    offsets, w = mo.discrete_kernel(g.h, gamma)
    defined = u.defined.copy()
    for di, dj in offsets:
        defined &= shifted(u.defined, -int(di), -int(dj), fill=False)
    vals = np.zeros((g.N, g.N))
    src = u.filled(0.0)
    for (di, dj), wk in zip(offsets, w):
        vals += wk * shifted(src, -int(di), -int(dj))
    out = mo.mollify(u, gamma)
    assert np.array_equal(out.defined, defined)
    # bit for bit: the same products summed in the same order
    assert np.array_equal(out.values[defined].view(np.int64), vals[defined].view(np.int64))
    assert np.isnan(out.values[~defined]).all()


def test_mollify_holder_rate_sqrt_profile():
    # |x|^(1/2) has Hoelder-1/2 seminorm exactly 1, so the discrete kernel
    # bound gives ||u_gamma - u||_inf <= gamma^(1/2) outright; allow the
    # documented lattice slack on top.
    g = Grid2.disk(201)
    u = GridFunction.from_callable(g, lambda x, y: np.hypot(x, y) ** 0.5)
    gamma = 0.1
    m = mo.mollify(u, gamma)
    dev = float(np.max(np.abs(m.values[m.defined] - u.values[m.defined])))
    assert dev <= gamma**0.5 + 2.0 * g.h
    assert dev > 0.01 * gamma**0.5
