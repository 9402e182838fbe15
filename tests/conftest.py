from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from ellreg.grid import Grid2, GridFunction
from ellreg.operators import OperatorSpec, evaluate_batch
from ellreg.solver import hessian, solve_fully_nonlinear


def cubic_harmonic(x, y):
    return x**3 - 3.0 * x * y**2


def saddle(x, y):
    return x**2 - y**2


def shifted(a: np.ndarray, di: int, dj: int, fill=0) -> np.ndarray:
    """Reference shift: a fresh array b with b[i, j] = a[i - di, j - dj],
    ``fill`` where that node lies off the lattice."""
    out = np.full_like(a, fill)
    n0, n1 = a.shape
    out[max(di, 0):n0 + min(di, 0), max(dj, 0):n1 + min(dj, 0)] = \
        a[max(-di, 0):n0 + min(-di, 0), max(-dj, 0):n1 + min(-dj, 0)]
    return out


def holey_field(g: Grid2, seed: int) -> GridFunction:
    """Random values on the defined nodes of g less an off-centre disk and a
    sprinkle of single nodes."""
    rng = philox(seed)
    defined = g.defined & (np.hypot(g.X - 0.3 * g.extent, g.Y + 0.2 * g.extent) > 0.15 * g.extent)
    defined &= rng.random((g.N, g.N)) > 0.02
    return GridFunction(g, np.where(defined, rng.standard_normal((g.N, g.N)), np.nan), defined)


def island_field(g: Grid2) -> GridFunction:
    """x^3 - 3 x y^2 on the defined nodes of g less the annulus 1.5h < |x - c|
    <= 0.3 extent about the node c = (6h, 0), so the pointwise fit ball about
    c holds only the 3 x 3 block of nodes about it."""
    r = np.hypot(g.X - 6 * g.h, g.Y)
    defined = g.defined & ((r <= 1.5 * g.h) | (r > 0.3 * g.extent * (1.0 + 1e-9)))
    return GridFunction(g, np.where(defined, g.X**3 - 3 * g.X * g.Y**2, np.nan), defined)


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def random_field(grid: Grid2, rng: np.random.Generator) -> GridFunction:
    vals = rng.standard_normal((grid.N, grid.N))
    values = np.where(grid.defined, vals, np.nan)
    return GridFunction(grid, values, grid.defined.copy())


@pytest.fixture(scope="session")
def disk33():
    return Grid2.disk(33)


@pytest.fixture(scope="session")
def disk65():
    return Grid2.disk(65)


@pytest.fixture(scope="session")
def disk129():
    return Grid2.disk(129)


@pytest.fixture(scope="session")
def disk257():
    return Grid2.disk(257)


@pytest.fixture(scope="session")
def sine_spec():
    return OperatorSpec(1.0, 0.0, 1.0, 0.05, "sine")


@pytest.fixture(scope="session")
def identity_spec():
    return OperatorSpec(1.0, 0.0, 1.0)


@pytest.fixture(scope="session")
def perturbed_solution(disk129, sine_spec):
    """Solved instance of the perturbed operator with smooth boundary data,
    shared by the analysis tests that read it."""
    u = solve_fully_nonlinear(sine_spec, None, cubic_harmonic, disk129)
    return u


# ---------------------------------------------------------------------------
# discrete comparison oracle


@dataclass
class ComparisonResult:
    """Outcome of the discrete comparison test.

    outcome is "ordered", "not_ordered", or "precondition_failed"; the result
    is truthy exactly when ordered.
    """

    outcome: str
    max_violation: float
    detail: str = ""

    def __bool__(self) -> bool:
        return self.outcome == "ordered"


def comparison_check(u_lower: GridFunction, u_upper: GridFunction, spec, f=None,
                     slack: float | None = None) -> ComparisonResult:
    """Check F(D^2 u_lower) >= f >= F(D^2 u_upper) and boundary order, then
    report whether u_lower <= u_upper at every common interior node; f is
    None (zero) or an array over the full lattice."""
    g = u_lower.grid
    if u_upper.grid.N != g.N or u_upper.grid.extent != g.extent:
        raise ValueError("functions live on different lattices")
    both = u_lower.defined & u_upper.defined
    interior = g.interior & both
    bnd = g.boundary & both
    ffull = np.zeros((g.N, g.N)) if f is None else np.asarray(f, dtype=float)
    if slack is None:
        slack = 1e-7 * (u_lower.sup() + u_upper.sup() + 1.0)

    Hl = hessian(u_lower)
    Hu = hessian(u_upper)
    m = interior & Hl.mask & Hu.mask
    Fl = evaluate_batch(spec, Hl.h11[m], Hl.h12[m], Hl.h22[m])
    Fu = evaluate_batch(spec, Hu.h11[m], Hu.h12[m], Hu.h22[m])
    sub_viol = float(np.max(ffull[m] - Fl, initial=0.0))
    sup_viol = float(np.max(Fu - ffull[m], initial=0.0))
    bnd_viol = float(np.max(u_lower.values[bnd] - u_upper.values[bnd], initial=0.0))
    worst = max(sub_viol, sup_viol, bnd_viol)
    if worst > slack:
        which = ("subsolution residual" if worst == sub_viol
                 else "supersolution residual" if worst == sup_viol
                 else "boundary ordering")
        return ComparisonResult("precondition_failed", worst, which)

    order_tol = 1e-12 * (u_lower.sup() + u_upper.sup() + 1.0)
    gap = u_upper.values[interior] - u_lower.values[interior]
    violation = float(np.max(-gap, initial=0.0))
    if violation <= order_tol:
        return ComparisonResult("ordered", violation)
    return ComparisonResult("not_ordered", violation)
