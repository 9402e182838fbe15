"""Operator catalog: closeness and ellipticity audits, affine normalization."""

from __future__ import annotations

import numpy as np
import pytest

from ellreg import cli
from ellreg import operators as op

from conftest import philox


def test_evaluate_trivial_cases():
    assert op.OperatorSpec(1, 0, 1).evaluate(op.sym2(2, 0, -2)) == 0.0
    assert op.OperatorSpec(1, 0, 4).evaluate(np.eye(2)) == 5.0
    sine = op.OperatorSpec(1, 0, 1, 0.1, "sine")
    assert sine.evaluate(np.zeros((2, 2))) == 0.0
    smax = op.OperatorSpec(1, 0, 1, 0.1, "smooth_max")
    assert smax.evaluate(np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-16)


def test_spec_validation():
    with pytest.raises(ValueError, match="positive definite"):
        op.OperatorSpec(1.0, 1.5, 1.0)
    with pytest.raises(ValueError, match="eps"):
        op.OperatorSpec(1.0, 0.0, 1.0, eps=-0.1)
    with pytest.raises(ValueError, match="smallest eigenvalue"):
        op.OperatorSpec(1.0, 0.0, 1.0, eps=1.0, perturbation="sine")
    with pytest.raises(ValueError, match="perturbation"):
        op.OperatorSpec(1.0, 0.0, 1.0, perturbation="cubic")


def test_residual_audit_zero_for_linear():
    assert op.residual_audit(op.OperatorSpec(1.3, 0.2, 0.9), samples=2000, seed=3) == 0.0


def test_residual_audit_bounded_by_eps_for_catalog():
    for spec in op.catalog_specs(0.05):
        r = op.residual_audit(spec, samples=10_000, seed=11)
        assert r <= spec.eps + 1e-15, spec
    # the sine bound is nearly attained, so the audit is not vacuous
    sine = op.OperatorSpec(1, 0, 1, 0.05, "sine")
    assert op.residual_audit(sine, samples=10_000, seed=11) > 0.5 * sine.eps


def test_residual_audit_deterministic_and_seed_sensitive():
    spec = op.OperatorSpec(1, 0, 1, 0.05, "sine")
    a = op.residual_audit(spec, samples=500, seed=9)
    assert a == op.residual_audit(spec, samples=500, seed=9)
    assert a != op.residual_audit(spec, samples=500, seed=10)


def derivative_oscillation(spec, samples: int = 1000, seed: int = 0) -> float:
    """Max operator norm of DF(M) - DF(N) over all pairs of sampled matrices.

    Bounded by 2*eps for every catalog entry, and by eps when the perturbation
    gradient ranges over a set of diameter <= 1 (smooth_max does; sine does not).
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    m = rng.uniform(-4.0, 4.0, size=(samples, 3))
    g11, g12, g22 = op.gradient_batch(spec, m[:, 0], m[:, 1], m[:, 2])
    worst = 0.0
    chunk = 512
    for lo in range(0, samples, chunk):
        hi = slice(lo, lo + chunk)
        da = g11[hi][:, None] - g11[None, :]
        dc = g12[hi][:, None] - g12[None, :]
        db = g22[hi][:, None] - g22[None, :]
        worst = max(worst, float(np.max(op.op_norm_sym2(da, dc, db))))
    return worst


def test_derivative_oscillation_bounds():
    assert derivative_oscillation(op.OperatorSpec(2, 0.3, 1), samples=200, seed=0) == 0.0
    sine = op.OperatorSpec(1, 0, 1, 0.05, "sine")
    osc = derivative_oscillation(sine, samples=800, seed=1)
    # sine gradients range over a set of operator-norm diameter ~1.97
    assert osc <= 2.0 * sine.eps + 1e-12
    assert osc > sine.eps  # the eps envelope genuinely does not hold for sine
    smax = op.OperatorSpec(1, 0, 1, 0.05, "smooth_max")
    osc2 = derivative_oscillation(smax, samples=800, seed=1)
    assert osc2 <= smax.eps  # gradient segment has diameter 1/2


def test_gradient_matches_finite_differences():
    rng = philox(21)
    for spec in op.catalog_specs(0.05):
        for _ in range(20):
            M = op.sym2(*rng.uniform(-2, 2, size=3))
            G = spec.gradient(M)
            G_fd = op.fd_gradient(spec, M)
            assert np.max(np.abs(G - G_fd)) <= 1e-5 * (1 + np.max(np.abs(G)))


def test_gradient_fd_over_100_random_matrices():
    rng = philox(33)
    spec = op.OperatorSpec(1.4, 0.3, 1.1, 0.05, "sine")
    for _ in range(100):
        M = op.sym2(*rng.standard_normal(3))
        rel = np.max(np.abs(spec.gradient(M) - op.fd_gradient(spec, M)))
        assert rel <= 1e-5


def test_sampled_ellipticity_bracket():
    rng = philox(5)
    for spec in op.catalog_specs(0.05):
        eff = op.effective_bounds(spec)
        for _ in range(1000):
            M = op.sym2(*rng.uniform(-1.5, 1.5, size=3))
            B = rng.standard_normal((2, 2))
            P = B @ B.T * rng.uniform(0.1, 2.0)
            trP = np.trace(P)
            dF = spec.evaluate(M + P) - spec.evaluate(M)
            assert dF >= eff.lam * trP - 1e-10
            assert dF <= eff.Lam * trP + 1e-10


def test_normalize_diagonal_cases():
    res = op.normalize(op.OperatorSpec(1, 0, 1))
    assert np.allclose(res.A, np.eye(2), atol=1e-14)
    res = op.normalize(op.OperatorSpec(1, 0, 4))
    assert np.allclose(res.A, np.diag([1.0, 0.5]), atol=1e-14)
    assert res.new_bounds.lam == pytest.approx(0.25)
    assert res.new_bounds.Lam == pytest.approx(4.0)


def test_normalize_random_spd_20_seeds():
    rng = philox(77)
    for _ in range(20):
        B = rng.standard_normal((2, 2))
        W0 = B @ B.T + 1.0 * np.eye(2)
        spec = op.make_spec(W0, 0.04, "sine")
        res = op.normalize(spec)
        W = op.df_at_zero(spec)
        assert np.max(np.abs(res.A @ res.A.T @ W - np.eye(2))) <= 1e-12
        G0 = op.fd_gradient(res.transformed, np.zeros((2, 2)))
        assert np.max(np.abs(G0 - np.eye(2))) <= 1e-6
        # tight closeness factor, with the coarse bound recorded alongside
        lam_min = np.linalg.eigvalsh(W)[0]
        assert res.new_eps == pytest.approx(spec.eps / lam_min, rel=1e-12)
        assert res.new_eps <= res.paper_eps_bound + 1e-15


def test_normalize_involution():
    spec = op.OperatorSpec(1.7, 0.3, 1.1, 0.03, "smooth_max")
    once = op.normalize(spec)
    twice = op.normalize(once.transformed)
    assert np.max(np.abs(twice.A - np.eye(2))) <= 1e-10


def test_effective_bounds_of_a_transformed_operator():
    # the transformed operator answers for its own W0 eigenvalues, as a spec does
    t = op.normalize(op.OperatorSpec(1.7, 0.3, 1.1, 0.03, "smooth_max")).transformed
    ev = np.linalg.eigvalsh(t.W0)
    eff = op.effective_bounds(t)
    assert (eff.lam, eff.Lam) == (ev[0] - t.eps, ev[-1] + np.sqrt(2.0) * t.eps)


def test_transformed_chain_rule_identity():
    spec = op.OperatorSpec(1.5, 0.25, 1.0, 0.05, "sine")
    res = op.normalize(spec)
    A = res.A
    rng = philox(8)
    for _ in range(10):
        M = op.sym2(*rng.uniform(-1, 1, size=3))
        direct = res.transformed.gradient(M)
        via_base = A.T @ spec.gradient(A @ M @ A.T) @ A
        assert np.max(np.abs(direct - via_base)) <= 1e-12
        fd = op.fd_gradient(res.transformed, M)
        assert np.max(np.abs(direct - fd)) <= 1e-5


def test_spec_config_round_trip(tmp_path):
    # spec_to_config written as [operator] and read back by the CLI's resolution
    spec = op.OperatorSpec(1.25, -0.1, 0.9, 0.05, "smooth_max")
    cfgfile = tmp_path / "op.cfg"
    cfgfile.write_text("[operator]\n" + "".join(
        f"{key} = {value}\n" for key, value in op.spec_to_config(spec).items()))
    args = cli.build_parser().parse_args(["cordes", "--config", str(cfgfile)])
    cli._resolve(args)
    assert cli._build_spec(args) == spec
