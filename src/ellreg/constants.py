"""Closed-form evaluation of the explicit universal constants behind interior
C^{2,alpha} regularity of almost-linear uniformly elliptic equations, plus a
machine check of the inequality chain the construction needs.

The chain, for dimension n, ellipticity lam <= Lam, and exponents
0 < alpha < alpha_bar < 1:

    r0          = (3 / (250 n^3))^(1/(1 - alpha_bar))
    eps0_tilde  = min( lam * (2 / (25 n^2)) * r0^alpha_bar,
                       (1/2)^(1 + 6/alpha0) * (lam / K2) * K1^(-3/alpha0)
                           * r0^((2 + alpha_bar)(1 + 3/alpha0)) )
    C0          = 1 + n + (25/4) n^2 + (1/(2 lam)) eps0_tilde (25/4) n^2
    C0'         = C0 (1 + 3/(1 - r0^ab)) / r0^(1+ab)
    C1~         = C0' * 2^ab * (2 + 2^(2+ab))^2
    eps0        = [eps0_tilde at lam/Lam, Lam/lam] / Lam
    C1          = [C1~ at lam/Lam, Lam/lam] * Lam^(2+ab)
    gamma       = ((1/4) r0^(2+ab) / K1)^(1/alpha0)
    mu          = min( (2 C1)^(-1/(ab - alpha)), (3/7)^(1/alpha) )
    delta       = C1 mu^(2+ab) / (omega_n^(1/n) C3)
    C4          = 1 + 3 C1 / (1 - mu^alpha)

eps0_tilde, C0, C0' and C1~ are the near-Laplacian chain at the given bounds.
eps0 and C1 hold at general ellipticity: normalize F so that DF(0) = I, run
the same chain at the rescaled bounds [lam/Lam, Lam/lam], and pull the result
back by 1/Lam and Lam^(2+ab).  build_report is the one evaluation: it runs
the chain once at each pair of bounds.

C0 is printed in two inconsistent forms in the source derivation; the
"proof" form above is canonical here and the "statement" form
1 + n + 4 n^2 + (1/lam) eps0_tilde (25/8) n^(5/2) is reported alongside.

K1, alpha0 (interior Hoelder estimate), C_prime (harmonic boundary estimate),
K2 (mollifier derivative mass) and C3 (inhomogeneous approximation) come from
cited literature and have no closed form; they are configuration inputs with
illustrative defaults, and every constants report records the values used.

Everything is evaluated in binary floating point with 50 significant digits
(mpmath), because the second eps0_tilde branch underflows IEEE doubles
already at the default alpha0 = 0.1 (it is of order 1e-457 for n = 2,
alpha_bar = 1/2).  The chosen quantities eps0_tilde, mu, and delta are placed
a relative 1e-40 inside their feasible regions so that every audited
inequality holds strictly under any later rounding; the shave is invisible at
all documented tolerances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from mpmath import mp

__all__ = [
    "ChainCheck",
    "ConstantsReport",
    "EllipticityBounds",
    "ExternalConstants",
    "HolderPair",
    "build_report",
    "pointwise_factor",
    "report_to_json",
    "validate_constraint_chain",
]

_DPS = 50
with mp.workdps(_DPS):
    # keeps chosen constants strictly inside their feasible region (see module docstring)
    _INSIDE = 1 - mp.mpf(10) ** -40


@dataclass(frozen=True)
class EllipticityBounds:
    lam: float
    Lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lambda must be positive")
        if not self.lam <= self.Lam:
            raise ValueError("lambda must not exceed Lambda")

    def rescaled(self) -> "EllipticityBounds":
        """Bounds [lam/Lam, Lam/lam] of the operator normalized to DF(0) = I."""
        return EllipticityBounds(self.lam / self.Lam, self.Lam / self.lam)


@dataclass(frozen=True)
class HolderPair:
    alpha_bar: float
    alpha: float | None = None

    def __post_init__(self):
        if not 0 < self.alpha_bar < 1:
            raise ValueError("alpha_bar must lie in (0,1)")
        if self.alpha is not None:
            if not 0 < self.alpha < 1:
                raise ValueError("alpha must lie in (0,1)")
            if not self.alpha < self.alpha_bar:
                raise ValueError("alpha must be smaller than alpha_bar")


@dataclass(frozen=True)
class ExternalConstants:
    """Literature constants treated as configuration inputs (see module docstring)."""

    K1: float = 1.0
    alpha0: float = 0.1
    C_prime: float = 1.0
    K2: float = 1.0
    C3: float = 1.0

    def __post_init__(self):
        for name in ("K1", "C_prime", "K2", "C3"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.alpha0 <= 1:
            raise ValueError("alpha0 must lie in (0,1]")


@dataclass(frozen=True)
class ChainCheck:
    name: str
    satisfied: bool
    slack: object  # mpf, RHS - LHS


@dataclass
class ConstantsReport:
    """Every universal constant of the chain (mpmath values) for given inputs."""

    n: int
    bounds: EllipticityBounds
    pair: HolderPair
    ext: ExternalConstants
    c0_variant: str
    r0: object
    eps0_tilde: object
    eps0: object
    C0: object
    C0_proof: object
    C0_statement: object
    C0_prime: object
    C1_tilde: object
    C1: object
    gamma: object
    mu: object
    delta: object
    C4: object
    omega_n: object
    chain_checks: list = field(default_factory=list)

    def all_checks_pass(self) -> bool:
        return all(c.satisfied for c in self.chain_checks)


def pointwise_factor(alpha: float):
    """(2 + 2^(2+alpha))^2, the pointwise-to-uniform Hoelder upgrade factor."""
    with mp.workdps(_DPS):
        a = mp.mpf(alpha)
        return (2 + 2 ** (2 + a)) ** 2


def _chain(n: int, r, ab, lam: float, ext: ExternalConstants, c0_variant: str):
    """(eps0_tilde, C0 proof form, C0 statement form, C0', C1~): the
    near-Laplacian chain at lower ellipticity bound lam, for r = r0 and
    ab = alpha_bar as mpf values; C0' and C1~ take the c0_variant form."""
    lam = mp.mpf(lam)
    a0 = mp.mpf(ext.alpha0)
    branch1 = lam * 2 / (25 * n**2) * r**ab
    branch2 = (
        mp.mpf(2) ** -(1 + 6 / a0)
        * (lam / mp.mpf(ext.K2))
        * mp.mpf(ext.K1) ** (-3 / a0)
        * r ** ((2 + ab) * (1 + 3 / a0))
    )
    eps_t = min(branch1, branch2) * _INSIDE
    C0_proof = 1 + n + mp.mpf(25) / 4 * n**2 + eps_t / (2 * lam) * mp.mpf(25) / 4 * n**2
    C0_statement = 1 + n + 4 * n**2 + eps_t / lam * mp.mpf(25) / 8 * mp.mpf(n) ** mp.mpf("2.5")
    # the tail is formed first: a regrouped C0' may round differently at 50 digits
    tail = (1 + 3 / (1 - r**ab)) / r ** (1 + ab)
    C0_prime = (C0_proof if c0_variant == "proof" else C0_statement) * tail
    return eps_t, C0_proof, C0_statement, C0_prime, C0_prime * 2**ab * pointwise_factor(ab)


def validate_constraint_chain(report: ConstantsReport) -> list:
    """Evaluate each named inequality on the report's own inputs; slack = RHS - LHS,
    satisfied literal."""
    checks = []
    ext, bounds, pair = report.ext, report.bounds, report.pair
    with mp.workdps(_DPS):
        n = report.n
        lam = mp.mpf(bounds.lam)
        ab = mp.mpf(pair.alpha_bar)
        r = report.r0
        eps_t = report.eps0_tilde
        gamma = report.gamma
        K1 = mp.mpf(ext.K1)
        K2 = mp.mpf(ext.K2)
        a0 = mp.mpf(ext.alpha0)

        def add(name, lhs, rhs):
            checks.append(ChainCheck(name, bool(lhs <= rhs), rhs - lhs))

        add("closeness_cap", eps_t, lam * 2 / (25 * n**2) * r**ab)
        add("replacement_budget",
            K1 * gamma**a0 + eps_t / (2 * lam) * K2 / gamma**3,
            r ** (2 + ab) / 2)
        if pair.alpha is not None:
            a = mp.mpf(pair.alpha)
            mu, delta, C1 = report.mu, report.delta, report.C1
            add("ratio_decay", 2 * C1 * mu**ab, mu**a)
            add("ratio_cap", mu**a, mp.mpf(3) / 7)
            add("source_smallness",
                report.omega_n ** (mp.mpf(1) / n) * mp.mpf(ext.C3) * delta,
                C1 * mu ** (2 + ab))
    return checks


def build_report(n: int, bounds: EllipticityBounds, pair: HolderPair,
                 ext: ExternalConstants | None = None, c0_variant: str = "proof") -> ConstantsReport:
    """Evaluate the whole chain once and run the inequality audit.

    The chain runs at bounds for eps0_tilde, C0, C0' and C1~, and at
    bounds.rescaled() for eps0 = eps0_tilde / Lam and C1 = C1~ Lam^(2+alpha_bar).
    """
    ext = ext or ExternalConstants()
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)
    if c0_variant not in ("proof", "statement"):
        raise ValueError(f"unknown C0 variant {c0_variant!r}")
    with mp.workdps(_DPS):
        ab = mp.mpf(pair.alpha_bar)
        r = (mp.mpf(3) / (250 * n**3)) ** (1 / (1 - ab))
        eps_t, C0_proof, C0_statement, C0_prime, C1_tilde = _chain(
            n, r, ab, bounds.lam, ext, c0_variant)
        eps_r, _, _, _, C1_tilde_r = _chain(n, r, ab, bounds.rescaled().lam, ext, c0_variant)
        Lam = mp.mpf(bounds.Lam)
        eps_0, C1 = eps_r / Lam, C1_tilde_r * Lam ** (2 + ab)
        gamma = (r ** (2 + ab) / 4 / mp.mpf(ext.K1)) ** (1 / mp.mpf(ext.alpha0))
        if not gamma < mp.mpf(1) / 5:
            raise ValueError("gamma must stay below 1/5; K1/alpha0 inputs out of range")
        omega = mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2 + 1)
        mu = delta = C4 = None
        if pair.alpha is not None:
            a = mp.mpf(pair.alpha)
            # the largest mu with 2 C1 mu^ab <= mu^a <= 3/7, and the delta that makes
            # source smallness an equality, each shaved inward like eps0_tilde
            mu = min((2 * C1) ** (-1 / (ab - a)), (mp.mpf(3) / 7) ** (1 / a)) * _INSIDE
            delta = C1 * mu ** (2 + ab) / (omega ** (mp.mpf(1) / n) * mp.mpf(ext.C3)) * _INSIDE
            C4 = 1 + 3 * C1 / (1 - mu**a)
        report = ConstantsReport(
            n=n, bounds=bounds, pair=pair, ext=ext, c0_variant=c0_variant,
            r0=r, eps0_tilde=eps_t, eps0=eps_0,
            C0=C0_proof if c0_variant == "proof" else C0_statement,
            C0_proof=C0_proof, C0_statement=C0_statement,
            C0_prime=C0_prime, C1_tilde=C1_tilde, C1=C1,
            gamma=gamma, mu=mu, delta=delta, C4=C4, omega_n=omega,
        )
        for name in ("r0", "eps0_tilde", "eps0", "C0", "C0_prime", "C1_tilde", "C1", "gamma"):
            if not getattr(report, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        assert r < mp.mpf(1) / 5
        report.chain_checks = validate_constraint_chain(report)
    return report


def _jnum(x) -> str:
    """Full-precision JSON number token for an mpf/float value."""
    if x is None:
        return "null"
    if isinstance(x, (int, float)):
        return repr(float(x))
    with mp.workdps(_DPS):
        s = mp.nstr(x, 17)
    return s


def report_to_json(report: ConstantsReport) -> str:
    """Deterministic JSON rendering, indented by two spaces; numbers carry full
    precision even beyond the IEEE-double exponent range, so consumers should
    parse with a big-float-aware reader when extreme inputs are in play."""
    pad = "  "
    lines = ["{"]

    def put(key, token):
        lines.append(f'{pad}"{key}": {token},')

    put("n", str(report.n))
    put("lambda", _jnum(report.bounds.lam))
    put("Lambda", _jnum(report.bounds.Lam))
    put("alpha_bar", _jnum(report.pair.alpha_bar))
    put("alpha", _jnum(report.pair.alpha))
    for name in ("K1", "alpha0", "C_prime", "K2", "C3"):
        put(name, _jnum(getattr(report.ext, name)))
    put("c0_variant", json.dumps(report.c0_variant))
    for name in ("r0", "eps0_tilde", "eps0", "C0", "C0_proof", "C0_statement",
                 "C0_prime", "C1_tilde", "C1", "gamma", "mu", "delta", "C4", "omega_n"):
        put(name, _jnum(getattr(report, name)))
    rows = []
    for c in report.chain_checks:
        rows.append(
            f'{pad}{pad}{{"name": {json.dumps(c.name)}, '
            f'"satisfied": {"true" if c.satisfied else "false"}, '
            f'"slack": {_jnum(c.slack)}}}'
        )
    lines.append(f'{pad}"chain_checks": [')
    lines.append(",\n".join(rows))
    lines.append(f"{pad}]")
    lines.append("}")
    return "\n".join(lines) + "\n"
