"""The radial bump kernel exp(1/(|x|^2 - 1)), its normalization, derivative
masses, and discrete mollification of grid functions.

normalize(n) returns the constant C with integral C * exp(1/(|x|^2-1)) = 1
over the unit ball; third_derivative_mass(n) returns

    C_prime * max_{|p|=3} integral |D^p eta|

with the third derivatives of the kernel written out analytically (chain rule
through s = |x|^2).  One-dimensional integrals go through adaptive QUADPACK
and are re-verified on split subintervals; the 2-D absolute-value integrals
use a composite midpoint rule in polar coordinates with Richardson-style
doubling until two refinement levels agree.

mollify() convolves a grid function with the kernel sampled on the lattice
and renormalized to discrete mass exactly 1 under exact summation.  The
convolution itself rounds: away from underflow a constant c comes back within
len(w) * eps * |c| for the len(w) kernel weights, not bit for bit, and the max
norm can grow by that much.  The output lives on the kernel-eroded domain (the
gamma-shrunk domain); nothing is ever padded or extrapolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, neighbours

__all__ = [
    "BumpKernel",
    "bump_profile",
    "discrete_kernel",
    "mollify",
    "normalize",
    "third_derivative_mass",
]


def bump_profile(s):
    """exp(1/(s-1)) for s = |x|^2 < 1, zero outside (vectorized)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    m = s < 1.0
    out[m] = np.exp(1.0 / (s[m] - 1.0))
    return out


def _adaptive_integral(fn, a: float, b: float, points=None, tol: float = 1e-10) -> float:
    """QUADPACK integral, re-verified by integrating the two halves separately."""
    from scipy import integrate  # deferred: only the kernel constants need it

    kw = {"epsabs": tol * 1e-2, "epsrel": tol * 1e-2, "limit": 200}
    if points:
        kw["points"] = points
    whole, err = integrate.quad(fn, a, b, **kw)
    mid = 0.5 * (a + b)
    left, _ = integrate.quad(fn, a, mid, **kw)
    right, _ = integrate.quad(fn, mid, b, **kw)
    if abs(whole - (left + right)) > tol or err > tol:
        raise RuntimeError("quadrature failed to converge to the requested tolerance")
    return whole


def normalize(n: int) -> float:
    """Normalizing constant: 1 / integral_{|x|<1} exp(1/(|x|^2-1)) dx."""
    if n == 1:
        total = _adaptive_integral(lambda x: float(bump_profile(np.array(x * x))), -1.0, 1.0,
                                   points=[0.0])
    elif n == 2:
        total = 2.0 * math.pi * _adaptive_integral(
            lambda r: r * float(bump_profile(np.array(r * r))), 0.0, 1.0, points=[0.5])
    else:
        raise ValueError("only dimensions 1 and 2 are supported")
    return 1.0 / total


@dataclass(frozen=True)
class BumpKernel:
    """Scaled kernel eta_gamma(x) = gamma^-n C exp(1/((|x|/gamma)^2 - 1))."""

    n: int
    C_norm: float
    gamma: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if not 0 < self.gamma < 0.2:
            raise ValueError("gamma must lie in (0, 1/5)")

    @classmethod
    def build(cls, n: int, gamma: float) -> "BumpKernel":
        return cls(n, normalize(n), gamma)

    def __call__(self, *coords):
        s = sum((np.asarray(c, dtype=float) / self.gamma) ** 2 for c in coords)
        return self.C_norm * self.gamma ** (-self.n) * bump_profile(s)


# analytic s-derivatives of f(s) = exp(1/(s-1)) on s < 1
def _f_derivs(s, k):
    u = s - 1.0
    e = np.exp(1.0 / u)
    v1 = -(u**-2.0)
    v2 = 2.0 * u**-3.0
    v3 = -6.0 * u**-4.0
    if k == 2:
        return e * (v1 * v1 + v2)
    if k == 3:
        return e * (v1**3 + 3.0 * v1 * v2 + v3)
    raise ValueError(k)


def _third_deriv_xxx(x, f2, f3):
    # d^3/dx^3 of f(|x|^2), given f'' and f''' at |x|^2
    return 8.0 * x**3 * f3 + 12.0 * x * f2


def _third_deriv_1d(x):
    # eta'''/C in one dimension, where |x|^2 = x^2
    x = np.asarray(x, dtype=float)
    return _third_deriv_xxx(x, _f_derivs(x * x, 2), _f_derivs(x * x, 3))


def _abs_mass_2d(which: str) -> float:
    """integral over the unit disk of |D^p (exp(1/(s-1)))| for |p| = 3.

    which = "xxx" is the pure direction 8x^3 f''' + 12x f''; "xxy" is the
    mixed one 8x^2 y f''' + 4y f''.  Composite midpoint in polar coordinates,
    doubled until two levels agree to 1e-4 (the integrand is piecewise smooth;
    the absolute value contributes one curve of kinks, so the rule converges
    at second order with a small kink-line remainder).
    """

    def level(nr: int, nt: int) -> float:
        r = (np.arange(nr) + 0.5) / nr
        f2 = _f_derivs(r * r, 2)
        f3 = _f_derivs(r * r, 3)
        total = 0.0
        chunk = 512
        for lo in range(0, nt, chunk):
            t = (np.arange(lo, min(lo + chunk, nt)) + 0.5) * (2.0 * np.pi / nt)
            ct, st = np.cos(t), np.sin(t)
            X = r[:, None] * ct[None, :]
            Y = r[:, None] * st[None, :]
            if which == "xxx":
                vals = _third_deriv_xxx(X, f2[:, None], f3[:, None])
            else:
                vals = 8.0 * X**2 * Y * f3[:, None] + 4.0 * Y * f2[:, None]
            total += float(np.sum(np.abs(vals) * r[:, None]))
        return total * (1.0 / nr) * (2.0 * np.pi / nt)

    nr = 500
    prev = level(nr, nr)
    for _ in range(5):
        nr *= 2
        cur = level(nr, nr)
        if abs(cur - prev) <= 1e-4:
            return cur
        prev = cur
    raise RuntimeError("2-D quadrature failed to converge")


def third_derivative_mass(n: int, c_prime: float = 1.0) -> float:
    """C' * max over third-order multi-indices of integral |D^p eta|."""
    if c_prime <= 0:
        raise ValueError("C_prime must be positive")
    C = normalize(n)
    if n == 1:
        mass = _adaptive_integral(lambda x: abs(float(_third_deriv_1d(np.array(x)))),
                                  -1.0, 1.0, points=[-0.9, -0.5, 0.0, 0.5, 0.9], tol=1e-8)
        return c_prime * C * mass
    if n == 2:
        return c_prime * C * max(_abs_mass_2d("xxx"), _abs_mass_2d("xxy"))
    raise ValueError("only dimensions 1 and 2 are supported")


def discrete_kernel(h: float, gamma: float):
    """Lattice offsets within the kernel support and weights of discrete mass
    exactly 1 (verified with exact summation)."""
    if h > gamma / 2.0:
        raise ValueError("kernel under-resolved: need gamma >= 2h")
    m = int(math.floor(gamma / h))
    di, dj = np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1), indexing="ij")
    w = bump_profile((di**2 + dj**2) * (h / gamma) ** 2)
    keep = w > 0.0  # rim offsets underflow to zero weight; drop them (symmetric in s)
    offsets = np.stack([di[keep], dj[keep]], axis=1)
    w = w[keep]
    w /= w.sum()
    k0 = int(np.argmax(w))
    for _ in range(8):  # pin the discrete mass to 1.0 bit-exactly
        excess = math.fsum(w) - 1.0
        if excess == 0.0:
            break
        w[k0] -= excess
    return offsets, w


def mollify(u: GridFunction, gamma: float) -> GridFunction:
    """Discrete convolution with the renormalized kernel; output on the
    gamma-shrunk (kernel-eroded) domain."""
    g = u.grid
    if not 0 < gamma < g.extent / 5.0:
        raise ValueError("gamma must lie in (0, extent/5)")
    offsets, w = discrete_kernel(g.h, gamma)
    out_defined = u.defined.copy()
    for b in neighbours(u.defined, offsets, False):
        out_defined &= b
    if not out_defined.any():
        raise ValueError("domain too small after gamma-shrinking")
    vals = np.zeros((g.N, g.N))
    for b, wk in zip(neighbours(u.filled(0.0), offsets, 0.0), w):
        vals += wk * b
    values = np.full((g.N, g.N), np.nan)
    values[out_defined] = vals[out_defined]
    out = GridFunction(g, values, out_defined)
    out.meta.update(gamma=gamma, kernel_nodes=len(w))
    return out
