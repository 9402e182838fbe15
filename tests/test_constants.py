"""Constants chain: frozen high-precision oracles, invariants, and the audit.

Expected values were computed independently with mpmath (40+ digits) from the
closed forms; derived oracles are re-evaluated in-test where they are cheap.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from ellreg import constants as C

FLAT = C.EllipticityBounds(1.0, 1.0)
EXT1 = C.ExternalConstants(K1=1.0, alpha0=1.0, C_prime=1.0, K2=1.0, C3=1.0)


def mpf(x):
    return mp.mpf(x)


def rel(a, b):
    a, b = float(a), float(b)
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# r0


def test_r0_exact_values():
    assert rel(C.r0(2, 0.5), 2.25e-6) < 1e-12
    assert rel(C.r0(3, 0.5), 1.9753086419753086e-07) < 1e-12
    # independent high-precision oracle for a non-dyadic exponent
    with mp.workdps(40):
        expect = (mpf(3) / 2000) ** (mpf(4) / 3)
    assert rel(C.r0(2, 0.25), expect) < 1e-12
    assert rel(C.r0(2, 0.25), 1.72e-4) < 5e-3


def test_r0_domain_errors():
    with pytest.raises(ValueError):
        C.r0(2, 1.5)
    with pytest.raises(ValueError):
        C.r0(2, 0.0)
    with pytest.raises(ValueError):
        C.r0(0, 0.5)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.02, max_value=0.98))
def test_r0_below_one_fifth_and_decreasing_in_n(n, alpha_bar):
    val = C.r0(n, alpha_bar)
    assert 0 < val < 0.2
    assert C.r0(n + 1, alpha_bar) < val


# ---------------------------------------------------------------------------
# eps0_tilde / eps0


def _branches_oracle(n, lam, alpha_bar, K1, K2, alpha0):
    with mp.workdps(60):
        r = (mpf(3) / (250 * n**3)) ** (1 / (1 - mpf(alpha_bar)))
        b1 = mpf(lam) * 2 / (25 * n**2) * r ** mpf(alpha_bar)
        b2 = (mpf(1) / 2) ** (1 + 6 / mpf(alpha0)) * mpf(lam) / mpf(K2) \
            * mpf(K1) ** (-3 / mpf(alpha0)) * r ** ((2 + mpf(alpha_bar)) * (1 + 3 / mpf(alpha0)))
    return b1, b2


def test_eps0_tilde_is_min_of_independent_branches():
    b1, b2 = _branches_oracle(2, 1.0, 0.5, 1.0, 1.0, 1.0)
    assert rel(b1, 3.0e-5) < 1e-12
    assert rel(b2, 2.5978568203747272e-59) < 1e-12
    got = C.eps0_tilde(2, FLAT, 0.5, EXT1)
    assert rel(got, min(b1, b2)) < 1e-12
    assert got <= b1


def test_eps0_tilde_n1_branch1():
    b1, b2 = _branches_oracle(1, 1.0, 0.5, 1.0, 1.0, 1.0)
    assert rel(b1, 9.6e-4) < 1e-12
    got = C.eps0_tilde(1, FLAT, 0.5, EXT1)
    assert rel(got, min(b1, b2)) < 1e-12


def test_eps0_tilde_decreases_with_K2():
    small = C.eps0_tilde(2, FLAT, 0.5, C.ExternalConstants(K1=1, alpha0=1.0, K2=1e6))
    assert small < C.eps0_tilde(2, FLAT, 0.5, EXT1)
    assert small > 0


def test_eps0_rescaling():
    assert rel(C.eps0(2, FLAT, 0.5, EXT1), C.eps0_tilde(2, FLAT, 0.5, EXT1)) < 1e-30
    bounds = C.EllipticityBounds(1.0, 2.0)
    direct = C.eps0_tilde(2, C.EllipticityBounds(0.5, 2.0), 0.5, EXT1) / 2
    assert rel(C.eps0(2, bounds, 0.5, EXT1), direct) < 1e-30
    assert rel(C.eps0(2, bounds, 0.5, EXT1), 6.494642050936818e-60) < 1e-10


def test_eps0_tilde_survives_extreme_alpha0():
    # tiny alpha0 drives branch 2 far below the IEEE double range
    val = C.eps0_tilde(2, FLAT, 0.5, C.ExternalConstants(K1=1.0, alpha0=0.1))
    assert val > 0
    assert float(val) == 0.0  # underflows a double, hence the mpf report fields


# ---------------------------------------------------------------------------
# C0 and the accumulated chain


def test_c0_values():
    assert rel(C.c0(2, 1.0, 0.0), 28.0) < 1e-14
    assert rel(C.c0(1, 1.0, 0.0), 8.25) < 1e-14
    assert rel(C.c0(2, 1.0, 0.0, "statement"), 19.0) < 1e-14
    with pytest.raises(ValueError):
        C.c0(2, 0.0, 0.0)
    with pytest.raises(ValueError):
        C.c0(2, 1.0, 0.0, "folklore")


def test_c1_chain_frozen_values():
    C0p, C1t, C1 = C.c1_chain(2, FLAT, 0.5, EXT1)
    assert rel(C0p, 33222574602.644708) < 1e-9
    assert rel(C1t, 2754539748165.0657) < 1e-9
    assert rel(C1, C1t) < 1e-30  # Lam = 1 collapses the rescaling


def test_c1_chain_statement_variant_scales_leading_factor():
    C0p, C1t, _ = C.c1_chain(2, FLAT, 0.5, EXT1, c0_variant="statement")
    assert rel(C0p, 33222574602.644708 * 19.0 / 28.0) < 1e-9
    assert rel(C1t, 2754539748165.0657 * 19.0 / 28.0) < 1e-9


def test_c1_tilde_grows_toward_alpha_bar_one():
    vals = [float(C.c1_chain(2, FLAT, ab, EXT1)[1]) for ab in (0.3, 0.5, 0.7, 0.9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# gamma


def test_gamma_frozen_value_and_identity():
    r = C.r0(2, 0.5)
    g = C.gamma_moll(r, 0.5, 1.0, 1.0)
    assert rel(g, 1.8984375e-15) < 1e-12  # r0^2.5 / 4
    with mp.workdps(50):
        lhs = mpf(1.0) * g ** mpf(1.0)
        rhs = r ** mpf(2.5) / 4
        assert abs(lhs - rhs) / rhs < 1e-12


def test_gamma_K1_power_law():
    r = C.r0(2, 0.5)
    for alpha0 in (1.0, 0.5, 0.2):
        g1 = C.gamma_moll(r, 0.5, 1.0, alpha0)
        g2 = C.gamma_moll(r, 0.5, 2.0, alpha0)
        assert rel(g2, float(g1) * 2.0 ** (-1.0 / alpha0)) < 1e-12


def test_gamma_identity_holds_generally():
    for (n, ab, K1, a0) in [(2, 0.5, 1.0, 1.0), (3, 0.3, 2.5, 0.4), (1, 0.7, 0.8, 0.9)]:
        r = C.r0(n, ab)
        g = C.gamma_moll(r, ab, K1, a0)
        with mp.workdps(50):
            lhs = mpf(K1) * g ** mpf(a0)
            rhs = r ** (2 + mpf(ab)) / 4
        assert abs(float(lhs / rhs) - 1.0) < 1e-10


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        C.gamma_moll(0.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        C.gamma_moll(1e-6, 0.5, -1.0, 1.0)


# ---------------------------------------------------------------------------
# iteration parameters


def test_iteration_params_frozen_values():
    mu, delta, C4 = C.iteration_params(1.0, 0.25, 0.5, 2, 1.0)
    assert rel(mu, 0.033735943356934611) < 1e-12
    assert rel(mu, (3.0 / 7.0) ** 4) < 1e-12  # cap branch active for C1 = 1
    assert rel(delta, 1.1793893743558205e-4) < 1e-10
    assert rel(C4, 6.25) < 1e-12


def test_iteration_params_constraints_literal():
    for C1 in (1.0, 10.0, 1e6):
        mu, delta, C4 = C.iteration_params(C1, 0.25, 0.5, 2, 1.0)
        assert 2 * mpf(C1) * mu ** mpf(0.5) <= mu ** mpf(0.25)
        assert mu ** mpf(0.25) <= mpf(3) / 7
        assert C.omega_n(2) ** mpf(0.5) * delta <= mpf(C1) * mu ** mpf(2.5)


def test_iteration_params_large_C1_limits():
    C1 = 1e12
    mu, _, C4 = C.iteration_params(C1, 0.25, 0.5, 2, 1.0)
    assert float(mu) == pytest.approx((2 * C1) ** (-4.0), rel=1e-10)
    assert float(C4) == pytest.approx(1 + 3 * C1, rel=1e-10)


def test_iteration_params_domain_error():
    with pytest.raises(ValueError):
        C.iteration_params(1.0, 0.5, 0.25, 2, 1.0)  # alpha >= alpha_bar


def test_omega_n():
    assert rel(C.omega_n(2), math.pi) < 1e-14
    assert rel(C.omega_n(3), 4.0 * math.pi / 3.0) < 1e-14
    assert rel(C.omega_n(1), 2.0) < 1e-14


# ---------------------------------------------------------------------------
# full report and the audit


def test_report_chain_passes_on_own_constants():
    for bounds in (FLAT, C.EllipticityBounds(0.5, 2.0)):
        for ext in (EXT1, C.ExternalConstants()):
            rep = C.build_report(2, bounds, C.HolderPair(0.5, 0.25), ext)
            assert rep.all_checks_pass()
            for chk in rep.chain_checks:
                assert chk.slack >= 0, chk


def test_report_detects_forced_violation():
    rep = C.build_report(2, FLAT, C.HolderPair(0.5, 0.25), EXT1)
    b1, _ = _branches_oracle(2, 1.0, 0.5, 1.0, 1.0, 1.0)
    rep.eps0_tilde = 2 * b1  # beyond the admissible cap
    checks = {c.name: c for c in C.validate_constraint_chain(rep)}
    assert not checks["closeness_cap"].satisfied
    assert checks["closeness_cap"].slack < 0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=4),
       lam=st.floats(min_value=0.05, max_value=20.0),
       spread=st.floats(min_value=1.0, max_value=20.0),
       alpha_bar=st.floats(min_value=0.05, max_value=0.95),
       alpha_frac=st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.95)),
       K1=st.floats(min_value=0.5, max_value=5.0),
       alpha0=st.floats(min_value=0.05, max_value=1.0),
       C_prime=st.floats(min_value=0.1, max_value=10.0),
       K2=st.floats(min_value=0.1, max_value=10.0),
       C3=st.floats(min_value=0.1, max_value=10.0),
       variant=st.sampled_from(["proof", "statement"]))
def test_report_fields_equal_the_public_helpers(n, lam, spread, alpha_bar, alpha_frac, K1,
                                                alpha0, C_prime, K2, C3, variant):
    bounds = C.EllipticityBounds(lam, lam * spread)
    alpha = None if alpha_frac is None else alpha_frac * alpha_bar
    ext = C.ExternalConstants(K1, alpha0, C_prime, K2, C3)
    rep = C.build_report(n, bounds, C.HolderPair(alpha_bar, alpha), ext, variant)
    eps_t = C.eps0_tilde(n, bounds, alpha_bar, ext)
    C0s = {v: C.c0(n, lam, eps_t, v) for v in ("proof", "statement")}
    assert rep.r0 == C.r0(n, alpha_bar)
    assert rep.eps0_tilde == eps_t
    assert rep.eps0 == C.eps0(n, bounds, alpha_bar, ext)
    assert (rep.C0_proof, rep.C0_statement, rep.C0) == (C0s["proof"], C0s["statement"],
                                                        C0s[variant])
    assert (rep.C0_prime, rep.C1_tilde, rep.C1) == C.c1_chain(n, bounds, alpha_bar, ext, variant)
    assert rep.gamma == C.gamma_moll(rep.r0, alpha_bar, K1, alpha0)
    assert rep.omega_n == C.omega_n(n)
    if alpha is None:
        assert (rep.mu, rep.delta, rep.C4) == (None, None, None)
    else:
        assert (rep.mu, rep.delta, rep.C4) == C.iteration_params(rep.C1, alpha, alpha_bar, n, C3)
    # eps0 and C1 are the chain at the rescaled bounds, pulled back
    rescaled = bounds.rescaled()
    with mp.workdps(50):
        Lam = mpf(bounds.Lam)
        assert rep.eps0 == C.eps0_tilde(n, rescaled, alpha_bar, ext) / Lam
        assert rep.C1 == (C.c1_chain(n, rescaled, alpha_bar, ext, variant)[1]
                          * Lam ** (2 + mpf(alpha_bar)))
    assert rep.all_checks_pass()


def test_report_positivity_and_range_invariants():
    rep = C.build_report(3, C.EllipticityBounds(0.7, 1.9), C.HolderPair(0.6, 0.2),
                         C.ExternalConstants(K1=2.0, alpha0=0.35, K2=3.0, C3=0.5))
    assert 0 < float(rep.r0) < 0.2
    assert rep.gamma > 0 and float(rep.gamma) < 0.2
    assert rep.mu ** mpf(0.2) <= mpf(3) / 7
    for name in ("eps0_tilde", "eps0", "C0", "C0_prime", "C1_tilde", "C1", "delta", "C4"):
        assert getattr(rep, name) > 0


def test_report_json_round_trip_and_determinism():
    rep = C.build_report(2, FLAT, C.HolderPair(0.5, 0.25), EXT1)
    text1 = C.report_to_json(rep)
    text2 = C.report_to_json(C.build_report(2, FLAT, C.HolderPair(0.5, 0.25), EXT1))
    assert text1 == text2
    import json

    payload = json.loads(text1)
    assert payload["n"] == 2
    assert payload["r0"] == pytest.approx(2.25e-6, rel=1e-12)
    assert all(c["satisfied"] for c in payload["chain_checks"])


def test_type_validation_messages():
    with pytest.raises(ValueError, match="alpha_bar must lie in"):
        C.HolderPair(1.5)
    with pytest.raises(ValueError, match="lambda must be positive"):
        C.EllipticityBounds(0.0, 1.0)
    with pytest.raises(ValueError, match="smaller than alpha_bar"):
        C.HolderPair(0.25, 0.5)
    with pytest.raises(ValueError, match="alpha0"):
        C.ExternalConstants(alpha0=1.5)
