"""Eigenvalue-spread condition audits for nondivergence-form coefficients.

For a symmetric coefficient matrix with eigenvalues l_1..l_n the two
spread-versus-trace conditions read

    (n-1)                                  sum_{i<k} (l_i - l_k)^2  <=  (1-eps) (sum l_i)^2
    (n-1)(1 + n(n-2)/((n+1)(n-1)))         sum_{i<k} (l_i - l_k)^2  <=  (1-eps) (sum l_i)^2

and the trace form  ||A||_HS^2 < |Tr A|^2 / (n-1+delta).  The audits return
the largest admissible eps (respectively delta) as a signed margin: negative
means the condition fails outright.  Margins are homogeneous of degree zero
in the eigenvalues and invariant under orthogonal conjugation.

The two-dimensional identity  ||D^2 u||_HS^2 = (Laplacian u)^2 - 2 det(D^2 u)
is algebraic, so its nodewise check measures pure round-off.

The small-deviation constants for coefficients near the identity are

    k  = 2 / (1 - (1+eps) ||I - a||_HS^2),      k1 = (1 + 1/eps) ||f||_inf,

valid while ||I - a||_HS^2 < 1.  The higher-dimensional sufficiency threshold
k < (n-1)/(n-2) is evaluated and reported, but its sufficiency is stated
without proof in the classical literature, so no conclusion is attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .grid import GridFunction
from .solver import hessian

__all__ = [
    "CordesFieldReport",
    "NirenbergResult",
    "UNPROVEN_THRESHOLD_NOTE",
    "cordes_delta",
    "hessian_identity_check",
    "k_eps_margin",
    "k_eps_prime_margin",
    "linearized_field",
    "nirenberg_constants",
]

UNPROVEN_THRESHOLD_NOTE = (
    "threshold k < (n-1)/(n-2): sufficiency stated without proof in the "
    "classical literature; only the hypothesis is evaluated here"
)


def _spread_and_trace(ev):
    ev = np.asarray(ev, dtype=float).ravel()
    n = ev.size
    if n < 1:
        raise ValueError("need at least one eigenvalue")
    tr = float(ev.sum())
    if tr == 0.0:
        raise ValueError("zero trace: spread conditions are undefined")
    diff = ev[:, None] - ev[None, :]
    spread = float(np.sum(np.triu(diff, 1) ** 2))
    return n, spread, tr


def k_eps_margin(ev) -> float:
    """Largest eps with (n-1) * spread <= (1-eps) * trace^2."""
    n, spread, tr = _spread_and_trace(ev)
    return 1.0 - (n - 1) * spread / tr**2


def kprime_prefactor(n: int) -> float:
    if n < 2:
        return float(n - 1)
    return (n - 1) * (1.0 + n * (n - 2) / ((n + 1) * (n - 1)))


def k_eps_prime_margin(ev) -> float:
    """Largest eps for the sharpened spread condition; coincides with
    k_eps_margin exactly in two dimensions."""
    n, spread, tr = _spread_and_trace(ev)
    return 1.0 - kprime_prefactor(n) * spread / tr**2


def cordes_delta(A) -> float:
    """Largest delta with ||A||_HS^2 < |Tr A|^2 / (n-1+delta) (strict below)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    tr = float(np.trace(A))
    if tr == 0.0:
        raise ValueError("zero trace: spread conditions are undefined")
    hs2 = float(np.sum(A * A))
    return tr**2 / hs2 - (n - 1)


@dataclass
class NirenbergResult:
    k: float
    k1: float
    max_dev_sq: float
    eps_slack: float
    threshold: float
    threshold_ok: bool
    note: str = UNPROVEN_THRESHOLD_NOTE

    def __iter__(self):
        yield self.k
        yield self.k1


def nirenberg_constants(a_field, f_bound: float, eps_slack: float) -> NirenbergResult:
    """Small-deviation constants for coefficients near the identity.

    a_field is a single symmetric 2x2 matrix or a stack (..., 2, 2); the max
    nodewise squared deviation ||I - a||_HS^2 drives both constants.
    """
    if eps_slack <= 0:
        raise ValueError("eps_slack must be positive")
    if f_bound < 0:
        raise ValueError("f_bound must be nonnegative")
    a = np.asarray(a_field, dtype=float)
    if a.shape[-2:] != (2, 2):
        raise ValueError("coefficient field must consist of 2x2 matrices")
    flat = a.reshape(-1, 2, 2)
    dev = np.eye(2) - flat
    dev_sq = np.sum(dev * dev, axis=(1, 2))
    worst = int(np.argmax(dev_sq))
    max_dev_sq = float(dev_sq[worst])
    if (1.0 + eps_slack) * max_dev_sq >= 1.0:
        raise ValueError(
            f"deviation too large at node {worst}: (1+eps) * ||I - a||^2 = "
            f"{(1.0 + eps_slack) * max_dev_sq:.6g} >= 1")
    k = 2.0 / (1.0 - (1.0 + eps_slack) * max_dev_sq)
    k1 = (1.0 + 1.0 / eps_slack) * f_bound
    n = 2
    threshold = math.inf if n == 2 else (n - 1) / (n - 2)
    return NirenbergResult(k=k, k1=k1, max_dev_sq=max_dev_sq, eps_slack=eps_slack,
                           threshold=threshold, threshold_ok=bool(k < threshold))


def hessian_identity_check(u: GridFunction) -> float:
    """Max nodewise defect of ||H||_HS^2 = (tr H)^2 - 2 det H (round-off only)."""
    H = hessian(u)
    m = H.mask
    h11, h12, h22 = H.h11[m], H.h12[m], H.h22[m]
    hs2 = h11**2 + 2.0 * h12**2 + h22**2
    rhs = (h11 + h22) ** 2 - 2.0 * (h11 * h22 - h12**2)
    if hs2.size == 0:
        return 0.0
    return float(np.max(np.abs(hs2 - rhs)))


@dataclass
class CordesFieldReport:
    """Per-node margins of the linearized coefficient field DF(D^2 u), with
    the field's entries g11, g12, g22 at the same nodes."""

    x: np.ndarray
    y: np.ndarray
    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    keps: np.ndarray
    kepsprime: np.ndarray
    cordesdelta: np.ndarray
    min_keps: float
    min_kepsprime: float
    min_cordes_delta: float
    zero_trace_nodes: list


def linearized_field(spec, u: GridFunction) -> CordesFieldReport:
    """Evaluate DF at the discrete Hessian of u and audit every node."""
    H = hessian(u)
    m = H.mask
    g11, g12, g22 = operators.gradient_batch(spec, H.h11[m], H.h12[m], H.h22[m])
    tr = g11 + g22
    zero = tr == 0.0
    xs, ys = u.grid.X[m], u.grid.Y[m]
    zero_nodes = list(zip(xs[zero].tolist(), ys[zero].tolist()))
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = (g11 - g22) ** 2 + 4.0 * g12**2  # (l1 - l2)^2 for 2x2 symmetric
        keps = np.where(zero, np.nan, 1.0 - spread / tr**2)
        hs2 = g11**2 + 2.0 * g12**2 + g22**2
        cdelta = np.where(zero, np.nan, tr**2 / hs2 - 1.0)
    ok = ~zero
    if not ok.any():
        raise ValueError("every node has zero trace")
    return CordesFieldReport(
        x=xs, y=ys, g11=g11, g12=g12, g22=g22,
        keps=keps, kepsprime=keps.copy(), cordesdelta=cdelta,
        min_keps=float(np.min(keps[ok])),
        min_kepsprime=float(np.min(keps[ok])),
        min_cordes_delta=float(np.min(cdelta[ok])),
        zero_trace_nodes=zero_nodes,
    )
