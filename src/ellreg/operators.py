"""Catalog of almost-linear uniformly elliptic operators on symmetric 2x2 matrices.

Every catalog operator has the form

    F(M) = tr(W0 M) + eps * phi(M),        phi(0) = 0,

where W0 is symmetric positive definite and phi is one of

    none        phi = 0
    sine        phi(M) = (sin m11 + sin m22 + sin(sqrt(2) m12)) / sqrt(3)
    smooth_max  phi(M) = log(exp(m11/2) + exp(m22/2)) - log 2

Both perturbations have pointwise gradient norm <= 1 (operator and Frobenius),
so |F(N) - tr(W0 N)| <= eps * ||N||_F, which is what ``residual_audit``
measures.  The sine gradient ranges over a set of operator-norm diameter about
1.97, so the derivative oscillation of a sine operator is bounded by 2*eps;
the smooth_max gradient moves along a segment of length 1/2, so its
oscillation stays below eps.

Sampled ellipticity is stated against the trace norm of the positive
increment P:  tr(W0 P) sits in [lam_min(W0) tr P, lam_max(W0) tr P] and the
perturbation contributes at most eps * ||P||_F <= eps * tr P, giving the
effective bounds lam_min(W0) - eps and lam_max(W0) + sqrt(2) eps used
throughout.

All randomized audits draw from a counter-based Philox generator keyed by the
caller's 64-bit seed, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .constants import EllipticityBounds

__all__ = [
    "OperatorSpec",
    "TransformedOperator",
    "NormalizationResult",
    "PERTURBATIONS",
    "catalog_specs",
    "df_at_zero",
    "effective_bounds",
    "evaluate_batch",
    "fd_gradient",
    "gradient_batch",
    "make_spec",
    "normalize",
    "op_norm_sym2",
    "residual_audit",
    "spec_to_config",
    "sym2",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)

PERTURBATIONS = ("none", "sine", "smooth_max")


def sym2(m11: float, m12: float, m22: float) -> np.ndarray:
    return np.array([[m11, m12], [m12, m22]], dtype=float)


def op_norm_sym2(m11, m12, m22):
    """Spectral norm of the symmetric 2x2 matrix [[m11, m12], [m12, m22]]."""
    return np.abs(m11 + m22) / 2.0 + np.sqrt((m11 - m22) ** 2 / 4.0 + m12**2)


def _phi_none(h11, h12, h22):
    return np.zeros_like(h11)


def _dphi_none(h11, h12, h22):
    z = np.zeros_like(h11)
    return z, z.copy(), z.copy()


def _phi_sine(h11, h12, h22):
    return (np.sin(h11) + np.sin(h22) + np.sin(_SQRT2 * h12)) / _SQRT3


def _dphi_sine(h11, h12, h22):
    return np.cos(h11) / _SQRT3, np.cos(_SQRT2 * h12) / _SQRT6, np.cos(h22) / _SQRT3


def _phi_smooth_max(h11, h12, h22):
    return np.logaddexp(h11 / 2.0, h22 / 2.0) - math.log(2.0)


def _dphi_smooth_max(h11, h12, h22):
    sigma = 1.0 / (1.0 + np.exp(-(np.asarray(h11) - h22) / 2.0))
    return sigma / 2.0, np.zeros_like(sigma), (1.0 - sigma) / 2.0


_PHI = {"none": _phi_none, "sine": _phi_sine, "smooth_max": _phi_smooth_max}
_DPHI = {"none": _dphi_none, "sine": _dphi_sine, "smooth_max": _dphi_smooth_max}


@dataclass(frozen=True)
class OperatorSpec:
    """An almost-linear operator: intended DF(0) = W0, closeness constant eps."""

    w11: float
    w12: float
    w22: float
    eps: float = 0.0
    perturbation: str = "none"

    def __post_init__(self):
        if self.perturbation not in PERTURBATIONS:
            raise ValueError(f"unknown perturbation {self.perturbation!r}; "
                             f"choose from {sorted(PERTURBATIONS)}")
        for name in ("w11", "w12", "w22", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.w11 <= 0 or self.w11 * self.w22 - self.w12**2 <= 0:
            raise ValueError("W0 must be symmetric positive definite")
        if self.eps >= self._lam_min():
            raise ValueError("eps must stay below the smallest eigenvalue of W0")

    def _lam_min(self) -> float:
        tr = self.w11 + self.w22
        disc = math.sqrt((self.w11 - self.w22) ** 2 + 4.0 * self.w12**2)
        return (tr - disc) / 2.0

    def _lam_max(self) -> float:
        tr = self.w11 + self.w22
        disc = math.sqrt((self.w11 - self.w22) ** 2 + 4.0 * self.w12**2)
        return (tr + disc) / 2.0

    @property
    def W0(self) -> np.ndarray:
        return sym2(self.w11, self.w12, self.w22)

    def evaluate(self, M) -> float:
        """F(M) for a single symmetric 2x2 matrix; F(0) == 0."""
        M = np.asarray(M, dtype=float)
        return float(evaluate_batch(self, M[0, 0], M[0, 1], M[1, 1]))

    def gradient(self, M) -> np.ndarray:
        """DF(M), the symmetric matrix G with dF = tr(G dM)."""
        M = np.asarray(M, dtype=float)
        g11, g12, g22 = gradient_batch(self, M[0, 0], M[0, 1], M[1, 1])
        return sym2(float(g11), float(g12), float(g22))


def make_spec(W0, eps: float = 0.0, perturbation: str = "none") -> OperatorSpec:
    W0 = np.asarray(W0, dtype=float)
    return OperatorSpec(float(W0[0, 0]), float(W0[0, 1]), float(W0[1, 1]), eps, perturbation)


def catalog_specs(eps: float = 0.05) -> list[OperatorSpec]:
    """Standard shipped instances used by the audits and tests."""
    eye = np.eye(2)
    aniso = sym2(1.5, 0.25, 1.0)
    return [
        make_spec(eye, 0.0, "none"),
        make_spec(eye, eps, "sine"),
        make_spec(eye, eps, "smooth_max"),
        make_spec(aniso, eps, "sine"),
        make_spec(sym2(1.0, 0.0, 2.0), eps, "smooth_max"),
    ]


def evaluate_batch(spec, h11, h12, h22):
    """F on arrays of symmetric-matrix entries (used nodewise by the solver)."""
    lin = spec.w11 * np.asarray(h11) + 2.0 * spec.w12 * np.asarray(h12) + spec.w22 * np.asarray(h22)
    if spec.eps == 0.0:
        return lin
    return lin + spec.eps * _PHI[spec.perturbation](np.asarray(h11), np.asarray(h12), np.asarray(h22))


def gradient_batch(spec, h11, h12, h22):
    """Entries of DF(M) (symmetric matrix G with dF = tr(G dM)) on arrays."""
    g11, g12, g22 = _DPHI[spec.perturbation](np.asarray(h11), np.asarray(h12), np.asarray(h22))
    return (spec.w11 + spec.eps * g11, spec.w12 + spec.eps * g12, spec.w22 + spec.eps * g22)


def fd_gradient(op, M, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference DF(M), for cross-checking the analytic
    gradient; accepts catalog specs and transformed operators."""
    M = np.asarray(M, dtype=float)
    out = np.zeros((2, 2))
    for (i, j) in ((0, 0), (0, 1), (1, 1)):
        E = np.zeros((2, 2))
        E[i, j] = E[j, i] = 1.0
        d = (op.evaluate(M + step * E) - op.evaluate(M - step * E)) / (2.0 * step)
        # dF along the symmetrized direction is tr(G E) = (2 - delta_ij) * g_ij
        out[i, j] = out[j, i] = d / (2.0 - (i == j))
    return out


def effective_bounds(spec) -> EllipticityBounds:
    """Catalog-derived ellipticity bounds (trace-norm pairing, see module docstring)."""
    from .constants import EllipticityBounds  # deferred: solve and cordes runs never need mpmath

    return EllipticityBounds(spec._lam_min() - spec.eps, spec._lam_max() + _SQRT2 * spec.eps)


def residual_audit(spec, samples: int = 10_000, seed: int = 0) -> float:
    """Max over sampled symmetric N of |F(N) - tr(W0 N)| / ||N||_F; must be <= eps."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.Generator(np.random.Philox(key=seed))
    scale = 10.0 ** rng.uniform(-2, 2, size=samples)
    n11 = rng.standard_normal(samples) * scale
    n12 = rng.standard_normal(samples) * scale
    n22 = rng.standard_normal(samples) * scale
    fro = np.sqrt(n11**2 + 2.0 * n12**2 + n22**2)
    keep = fro > 1e-12
    lin = spec.w11 * n11 + 2.0 * spec.w12 * n12 + spec.w22 * n22
    resid = np.abs(evaluate_batch(spec, n11, n12, n22) - lin)
    return float(np.max(resid[keep] / fro[keep]))


class TransformedOperator:
    """F~(N) = F(A N A^T) for the affine normalization; DF~(0) = I."""

    def __init__(self, base, A: np.ndarray):
        self.base = base
        self.A = np.asarray(A, dtype=float)

    @property
    def W0(self) -> np.ndarray:
        base_W0 = np.asarray(self.base.W0, dtype=float)
        return self.A.T @ base_W0 @ self.A

    @property
    def eps(self) -> float:
        return float(self.base.eps * np.linalg.norm(self.A.T @ self.A, 2))

    def _lam_min(self) -> float:
        return float(np.linalg.eigvalsh(self.W0)[0])

    def _lam_max(self) -> float:
        return float(np.linalg.eigvalsh(self.W0)[-1])

    def evaluate(self, M) -> float:
        M = np.asarray(M, dtype=float)
        return self.base.evaluate(self.A @ M @ self.A.T)

    def gradient(self, M) -> np.ndarray:
        M = np.asarray(M, dtype=float)
        G = self.base.gradient(self.A @ M @ self.A.T)
        return self.A.T @ G @ self.A


@dataclass
class NormalizationResult:
    A: np.ndarray
    transformed: TransformedOperator
    new_bounds: EllipticityBounds
    new_eps: float
    paper_eps_bound: float


def df_at_zero(op) -> np.ndarray:
    """The actual gradient W = DF(0).  For perturbations whose gradient does
    not vanish at the origin (sine does not) this differs from the intended
    linear part W0 by eps * Dphi(0)."""
    return op.gradient(np.zeros((2, 2)))


def normalize(op) -> NormalizationResult:
    """Symmetric positive square root A of W^{-1} for W = DF(0), so that
    A A^T W = I and the transformed operator F~(N) = F(A N A^T) has
    DF~(0) = I exactly (to eigensolver round-off).

    Ellipticity bounds rescale to [lam/Lam, Lam/lam]; the closeness constant
    becomes eps * ||A^T A|| = eps / lam_min(W) (tight factor), with the
    coarser bound eps * Lam from the normalization argument recorded
    alongside (it dominates whenever lam_min(W) * Lam >= 1).
    """
    W = df_at_zero(op)
    evals, evecs = np.linalg.eigh(W)
    if evals[0] <= 0:
        raise ValueError("DF(0) must be positive definite")
    A = (evecs * (1.0 / np.sqrt(evals))) @ evecs.T
    eff = effective_bounds(op)
    eps = float(op.eps)
    new_eps = eps / float(evals[0])
    return NormalizationResult(
        A=A,
        transformed=TransformedOperator(op, A),
        new_bounds=eff.rescaled(),
        new_eps=new_eps,
        paper_eps_bound=eps * eff.Lam,
    )


def spec_to_config(spec: OperatorSpec) -> dict:
    return {
        "w11": repr(spec.w11),
        "w12": repr(spec.w12),
        "w22": repr(spec.w22),
        "eps": repr(spec.eps),
        "perturbation": spec.perturbation,
    }
