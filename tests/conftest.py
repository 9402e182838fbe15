from __future__ import annotations

import numpy as np
import pytest

from ellreg.grid import Grid2, GridFunction
from ellreg.operators import OperatorSpec
from ellreg.solver import solve_fully_nonlinear


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
