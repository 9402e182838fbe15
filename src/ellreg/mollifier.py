"""The radial bump kernel exp(1/(|x|^2 - 1)), its normalization, derivative
masses, and discrete mollification of grid functions.

normalize(n) returns the constant C with integral C * exp(1/(|x|^2-1)) = 1
over the unit ball; third_derivative_mass(n) returns

    C_prime * max_{|p|=3} integral |D^p eta|

Both are computed by mpmath at 30 working digits, and each result is rounded
to a double once.  The third derivatives are written out analytically through
s = |x|^2 and u = s - 1, so every sign change of one is s = 1/2 or a root of
a cubic in u, and no integrand is integrated across a kink.  In one dimension
the mass is twice the total variation of eta'' on [0, 1] and takes no
quadrature.  In two, each angular integral is exact, and one radial tanh-sinh
quadrature (mp.quad) per multi-index is split at every kink.  Every
quadrature, the ball integral behind C included, raises RuntimeError when its
error estimate exceeds 1e-20 relative.

mollify() convolves a grid function with the kernel sampled on the lattice
and renormalized to discrete mass exactly 1 under exact summation.  The
convolution itself rounds: away from underflow a constant c comes back within
len(w) * eps * |c| for the len(w) kernel weights, not bit for bit, and the max
norm can grow by that much.  The output lives on the kernel-eroded domain (the
gamma-shrunk domain); nothing is ever padded or extrapolated.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp

from .grid import GridFunction, neighbours

__all__ = [
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


_DPS = 30  # working digits of the kernel constants; each is rounded to a double once
_REL_ERR = 1e-20  # largest relative error estimate a quadrature may report


def _quad(fn, points):
    """mp.quad (tanh-sinh) over consecutive points, which must hold every kink
    of fn; raises when the error estimate shows the rule has not converged."""
    value, err = mp.quad(fn, points, error=True)
    if err > _REL_ERR * abs(value):
        raise RuntimeError("quadrature failed to converge to the requested tolerance")
    return value


def _f(s):
    """f(s) = exp(1/(s-1)) and its first three s-derivatives; zero for s >= 1."""
    u = mp.mpf(s) - 1
    if u >= 0:
        return (mp.zero,) * 4
    e = mp.exp(1 / u)
    return e, -e / u**2, e * (1 + 2 * u) / u**4, -e * (1 + 6 * u + 6 * u**2) / u**6


def _ball_integral(n: int):
    """integral_{|x|<1} exp(1/(|x|^2-1)) dx at working precision."""
    if n == 1:
        return _quad(lambda x: _f(x * x)[0], [-1, 0, 1])
    if n == 2:
        return 2 * mp.pi * _quad(lambda r: r * _f(r * r)[0], [0, 0.5, 1])
    raise ValueError("only dimensions 1 and 2 are supported")


def normalize(n: int) -> float:
    """Normalizing constant: 1 / integral_{|x|<1} exp(1/(|x|^2-1)) dx."""
    with mp.workdps(_DPS):
        return float(1 / _ball_integral(n))


# For p = (3,0) and (2,1), D^p f(|x|^2) = r q (a + b t^2) in polar coordinates
# (r, th), with (q, t) = (cos th, sin th) for (3,0) and (sin th, cos th) for
# (2,1), and a, b functions of s = r^2.  a or a + b changes sign at s = 1/2,
# where f'' does, or at a root of a cubic in u = s - 1: the cubic times
# -4 exp(1/u) / u^6 is 8 s f''' + 12 f'' for (3,0), as for eta''' / x in one
# dimension, and 4 f'' + 8 s f''' for (2,1).  Entries: (a, b) from (s, f'',
# f'''), and the cubic's coefficients, highest first.
_POLAR = (
    (lambda s, f2, f3: (8 * s * f3 + 12 * f2, -8 * s * f3), (6, 21, 14, 2)),
    (lambda s, f2, f3: (4 * f2, 8 * s * f3), (10, 23, 14, 2)),
)


def _kinks(cubic) -> list:
    """The s = 1 + u in (0, 1), ascending, at the real roots u of the cubic."""
    return sorted(1 + u for u in mp.polyroots(cubic) if -1 < u < 0)


def _angular(a, b):
    """4 * integral_0^1 |a + b t^2| dt, from the antiderivative a t + b t^3 / 3
    at t0, where a + b t^2 changes sign (t0 = 1 if it does not)."""
    t0 = mp.sqrt(-a / b) if a * (a + b) < 0 else 1
    g0 = a * t0 + b * t0**3 / 3
    return 4 * (abs(g0) + abs(a + b / 3 - g0))


def _polar_mass(ab, cubic):
    """integral over the unit disk of |r q (a + b t^2)|: the angular integral
    in closed form (four quarter turns, dt = |q| dth), then one radial
    quadrature split at every kink."""
    kinks = sorted([mp.mpf(0.5)] + _kinks(cubic))
    return _quad(lambda r: r * r * _angular(*ab(r * r, *_f(r * r)[2:])),
                 [0] + [mp.sqrt(k) for k in kinks] + [1])


def third_derivative_mass(n: int, c_prime: float = 1.0) -> float:
    """C' * max over third-order multi-indices of integral |D^p eta|."""
    if c_prime <= 0:
        raise ValueError("C_prime must be positive")
    with mp.workdps(_DPS):
        total = _ball_integral(n)
        if n == 1:
            # eta''' is odd, so the mass is twice the total variation on [0, 1]
            # of eta'' = 2 f' + 4 s f'', monotone between the zeros of eta'''
            vals = [2 * _f(s)[1] + 4 * s * _f(s)[2] for s in [0, *_kinks(_POLAR[0][1]), 1]]
            mass = 2 * sum(abs(b - a) for a, b in zip(vals, vals[1:]))
        else:
            mass = max(_polar_mass(*p) for p in _POLAR)
        return float(c_prime * mass / total)


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
