"""Constants chain, read from build_report's fields: frozen high-precision
oracles, invariants, and the audit.

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


def report(n=2, bounds=FLAT, alpha_bar=0.5, alpha=None, ext=EXT1, variant="proof"):
    return C.build_report(n, bounds, C.HolderPair(alpha_bar, alpha), ext, variant)


# ---------------------------------------------------------------------------
# r0


def test_r0_exact_values():
    assert rel(report(2).r0, 2.25e-6) < 1e-12
    assert rel(report(3).r0, 1.9753086419753086e-07) < 1e-12
    # independent high-precision oracle for a non-dyadic exponent
    with mp.workdps(40):
        expect = (mpf(3) / 2000) ** (mpf(4) / 3)
    assert rel(report(2, alpha_bar=0.25).r0, expect) < 1e-12
    assert rel(report(2, alpha_bar=0.25).r0, 1.72e-4) < 5e-3


def test_r0_domain_errors():
    with pytest.raises(ValueError, match="alpha_bar must lie in"):
        C.HolderPair(1.5)
    with pytest.raises(ValueError, match="alpha_bar must lie in"):
        C.HolderPair(0.0)
    for n in (0, 1.5):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            report(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.02, max_value=0.98))
def test_r0_below_one_fifth_and_decreasing_in_n(n, alpha_bar):
    val = report(n, alpha_bar=alpha_bar).r0
    assert 0 < val < 0.2
    assert report(n + 1, alpha_bar=alpha_bar).r0 < val


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
    got = report(2).eps0_tilde
    assert rel(got, min(b1, b2)) < 1e-12
    assert got <= b1


def test_eps0_tilde_n1_branch1():
    b1, b2 = _branches_oracle(1, 1.0, 0.5, 1.0, 1.0, 1.0)
    assert rel(b1, 9.6e-4) < 1e-12
    assert rel(report(1).eps0_tilde, min(b1, b2)) < 1e-12


def test_eps0_tilde_decreases_with_K2():
    small = report(ext=C.ExternalConstants(K1=1, alpha0=1.0, K2=1e6)).eps0_tilde
    assert small < report().eps0_tilde
    assert small > 0


def test_eps0_rescaling():
    flat = report()
    assert rel(flat.eps0, flat.eps0_tilde) < 1e-30
    rep = report(bounds=C.EllipticityBounds(1.0, 2.0))
    direct = report(bounds=C.EllipticityBounds(0.5, 2.0)).eps0_tilde / 2
    assert rel(rep.eps0, direct) < 1e-30
    assert rel(rep.eps0, 6.494642050936818e-60) < 1e-10


def test_eps0_tilde_survives_extreme_alpha0():
    # tiny alpha0 drives branch 2 far below the IEEE double range
    val = report(ext=C.ExternalConstants(K1=1.0, alpha0=0.1)).eps0_tilde
    assert val > 0
    assert float(val) == 0.0  # underflows a double, hence the mpf report fields


# ---------------------------------------------------------------------------
# C0 and the accumulated chain


def test_c0_values():
    # eps0_tilde is below 1e-3 here, so C0 sits at its eps-free part
    rep = report(2)
    assert rel(rep.C0_proof, 28.0) < 1e-14
    assert rel(rep.C0_statement, 19.0) < 1e-14
    assert rep.C0 == rep.C0_proof
    assert report(2, variant="statement").C0 == rep.C0_statement
    assert rel(report(1).C0_proof, 8.25) < 1e-14
    with pytest.raises(ValueError, match="lambda must be positive"):
        C.EllipticityBounds(0.0, 1.0)
    with pytest.raises(ValueError, match="unknown C0 variant"):
        report(variant="folklore")


def test_c1_chain_frozen_values():
    rep = report()
    assert rel(rep.C0_prime, 33222574602.644708) < 1e-9
    assert rel(rep.C1_tilde, 2754539748165.0657) < 1e-9
    assert rel(rep.C1, rep.C1_tilde) < 1e-30  # Lam = 1 collapses the rescaling


def test_c1_chain_statement_variant_scales_leading_factor():
    rep = report(variant="statement")
    assert rel(rep.C0_prime, 33222574602.644708 * 19.0 / 28.0) < 1e-9
    assert rel(rep.C1_tilde, 2754539748165.0657 * 19.0 / 28.0) < 1e-9


def test_c1_tilde_grows_toward_alpha_bar_one():
    vals = [float(report(alpha_bar=ab).C1_tilde) for ab in (0.3, 0.5, 0.7, 0.9)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# gamma


def test_gamma_frozen_value_and_identity():
    rep = report()
    g = rep.gamma
    assert rel(g, 1.8984375e-15) < 1e-12  # r0^2.5 / 4
    with mp.workdps(50):
        lhs = mpf(1.0) * g ** mpf(1.0)
        rhs = rep.r0 ** mpf(2.5) / 4
        assert abs(lhs - rhs) / rhs < 1e-12


def test_gamma_K1_power_law():
    for alpha0 in (1.0, 0.5, 0.2):
        g1 = report(ext=C.ExternalConstants(K1=1.0, alpha0=alpha0)).gamma
        g2 = report(ext=C.ExternalConstants(K1=2.0, alpha0=alpha0)).gamma
        assert rel(g2, float(g1) * 2.0 ** (-1.0 / alpha0)) < 1e-12


def test_gamma_identity_holds_generally():
    for (n, ab, K1, a0) in [(2, 0.5, 1.0, 1.0), (3, 0.3, 2.5, 0.4), (1, 0.7, 0.8, 0.9)]:
        rep = report(n, alpha_bar=ab, ext=C.ExternalConstants(K1=K1, alpha0=a0))
        with mp.workdps(50):
            lhs = mpf(K1) * rep.gamma ** mpf(a0)
            rhs = rep.r0 ** (2 + mpf(ab)) / 4
        assert abs(float(lhs / rhs) - 1.0) < 1e-10


def test_gamma_domain_errors():
    with pytest.raises(ValueError, match="K1 must be positive"):
        C.ExternalConstants(K1=-1.0)
    with pytest.raises(ValueError, match="gamma must stay below 1/5"):
        report(ext=C.ExternalConstants(K1=1e-40, alpha0=1.0))


# ---------------------------------------------------------------------------
# iteration parameters


def test_iteration_params_frozen_values():
    # a small alpha against a small C1 makes the 3/7 cap the binding constraint
    rep = report(1, alpha_bar=0.05, alpha=0.002)
    with mp.workdps(50):
        cap = (mpf(3) / 7) ** (1 / mpf(0.002))
        assert abs(rep.mu / cap - 1) < 1e-12
        assert (2 * rep.C1) ** (-1 / (mpf(0.05) - mpf(0.002))) > cap
        assert abs((rep.C4 - 1) / (rep.C1 * mpf(21) / 4) - 1) < 1e-12  # 1 - mu^alpha = 4/7


def test_iteration_params_constraints_literal():
    for n, ab, a in ((2, 0.5, 0.25), (1, 0.05, 0.002), (3, 0.7, 0.1)):
        rep = report(n, alpha_bar=ab, alpha=a)
        mu, C1, delta = rep.mu, rep.C1, rep.delta
        with mp.workdps(50):
            assert 2 * C1 * mu ** mpf(ab) <= mu ** mpf(a)
            assert mu ** mpf(a) <= mpf(3) / 7
            assert rep.omega_n ** (mpf(1) / n) * delta <= C1 * mu ** (2 + mpf(ab))


def test_iteration_params_large_C1_limits():
    rep = report(alpha=0.25)
    C1 = float(rep.C1)
    assert C1 > 1e12
    assert float(rep.mu) == pytest.approx((2 * C1) ** (-4.0), rel=1e-10)
    assert float(rep.C4) == pytest.approx(1 + 3 * C1, rel=1e-10)


def test_iteration_params_domain_error():
    with pytest.raises(ValueError, match="alpha must be smaller than alpha_bar"):
        C.HolderPair(0.25, 0.5)


def test_omega_n():
    assert rel(report(2).omega_n, math.pi) < 1e-14
    assert rel(report(3).omega_n, 4.0 * math.pi / 3.0) < 1e-14
    assert rel(report(1).omega_n, 2.0) < 1e-14


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


def _chain_oracle(n, bounds, pair, ext, variant):
    """Every report field re-derived from the module docstring's formulas at
    90 digits, with eps0_tilde, mu and delta shaved a relative 1e-40 inward."""
    with mp.workdps(90):
        shave = 1 - mpf(10) ** -40
        ab, a0, K1 = mpf(pair.alpha_bar), mpf(ext.alpha0), mpf(ext.K1)
        r = (mpf(3) / (250 * n**3)) ** (1 / (1 - ab))

        def chain(lam):
            lam = mpf(lam)
            eps = min(lam * 2 / (25 * n**2) * r**ab,
                      (mpf(1) / 2) ** (1 + 6 / a0) * lam / mpf(ext.K2) * K1 ** (-3 / a0)
                      * r ** ((2 + ab) * (1 + 3 / a0))) * shave
            c0 = {"proof": 1 + n + mpf(25) / 4 * n**2 + eps / (2 * lam) * mpf(25) / 4 * n**2,
                  "statement": 1 + n + 4 * n**2 + eps / lam * mpf(25) / 8 * mpf(n) ** 2.5}
            c0_prime = c0[variant] * (1 + 3 / (1 - r**ab)) / r ** (1 + ab)
            return eps, c0, c0_prime, c0_prime * 2**ab * (2 + 2 ** (2 + ab)) ** 2

        eps_t, c0, c0_prime, c1_tilde = chain(bounds.lam)
        # the rescaled bounds are float inputs, as EllipticityBounds.rescaled forms them
        Lam = mpf(bounds.Lam)
        eps_r, _, _, c1_tilde_r = chain(bounds.lam / bounds.Lam)
        c1 = c1_tilde_r * Lam ** (2 + ab)
        omega = mp.pi ** (mpf(n) / 2) / mp.gamma(mpf(n) / 2 + 1)
        want = {"r0": r, "eps0_tilde": eps_t, "eps0": eps_r / Lam, "C0": c0[variant],
                "C0_proof": c0["proof"], "C0_statement": c0["statement"],
                "C0_prime": c0_prime, "C1_tilde": c1_tilde, "C1": c1,
                "gamma": (r ** (2 + ab) / (4 * K1)) ** (1 / a0), "omega_n": omega}
        if pair.alpha is not None:
            a = mpf(pair.alpha)
            mu = min((2 * c1) ** (-1 / (ab - a)), (mpf(3) / 7) ** (1 / a)) * shave
            want["mu"] = mu
            want["delta"] = c1 * mu ** (2 + ab) / (omega ** (mpf(1) / n) * mpf(ext.C3)) * shave
            want["C4"] = 1 + 3 * c1 / (1 - mu**a)
    return want


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
def test_report_fields_match_a_90_digit_oracle(n, lam, spread, alpha_bar, alpha_frac, K1,
                                               alpha0, C_prime, K2, C3, variant):
    bounds = C.EllipticityBounds(lam, lam * spread)
    pair = C.HolderPair(alpha_bar, None if alpha_frac is None else alpha_frac * alpha_bar)
    ext = C.ExternalConstants(K1, alpha0, C_prime, K2, C3)
    rep = C.build_report(n, bounds, pair, ext, variant)
    want = _chain_oracle(n, bounds, pair, ext, variant)
    if pair.alpha is None:
        assert (rep.mu, rep.delta, rep.C4) == (None, None, None)
    with mp.workdps(90):
        for name, value in want.items():
            assert abs(getattr(rep, name) / value - 1) < mpf(10) ** -45, name
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
