"""Uniform 2-D lattices over disks and squares, grid functions, and text I/O.

The lattice always spans [-extent, extent]^2 with N nodes per axis, spacing
h = 2*extent/(N-1).  A disk domain is a masked subset of that lattice: a node
is interior when it lies strictly inside the disk, and the discrete boundary
is the 8-connected collar of the interior (every non-interior node touching
an interior node through any of its eight lattice neighbours).  The collar
guarantees that cross-difference stencils evaluated at interior nodes never
reach an undefined node.  Boundary data at a collar node is evaluated at the
node's own coordinates; there is no sub-cell boundary fitting.

Grid file format (text, row-major in the x index):

    grid <shape> <N> <extent>
    v(0,0) v(0,1) ... v(0,N-1)
    ...
    v(N-1,0) ... v(N-1,N-1)

with ``nan`` for undefined nodes (whatever the in-memory values there are).
Values are written with shortest round-trip formatting, so save/load
reproduces the values and the defined mask exactly and deterministically.
An ``inf`` token is rejected on load.

Every shifted read of a lattice array goes through neighbours(): one padded
copy, and per offset (di, dj) a view b[i, j] = a[i + di, j + dj] holding a
fill value past the frame.  A node lies in the closed ball of radius r when
its distance from the centre is at most ball_reach(r) = r (1 + 1e-12), so a
rim node whose coordinates round outward still counts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "Grid2",
    "GridFunction",
    "SubRegion",
    "ball_reach",
    "load_grid",
    "neighbours",
    "save_grid",
]

_NEIGHBORS8 = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]


def neighbours(a: np.ndarray, offsets, fill) -> list:
    """For each (di, dj) in offsets a view b of a padded copy of a, with
    b[i, j] = a[i + di, j + dj] on the lattice and ``fill`` past its frame."""
    pad = max((max(abs(int(di)), abs(int(dj))) for di, dj in offsets), default=0)
    padded = np.pad(a, pad, constant_values=fill)
    n0, n1 = a.shape
    return [padded[pad + di:pad + di + n0, pad + dj:pad + dj + n1] for di, dj in offsets]


def ball_reach(radius: float) -> float:
    """Largest distance from the centre of a node in the closed ball of this radius."""
    return radius * (1.0 + 1e-12)


def _collar(interior: np.ndarray) -> np.ndarray:
    return np.logical_or.reduce(neighbours(interior, _NEIGHBORS8, False)) & ~interior


@dataclass(frozen=True)
class SubRegion:
    """Interior/boundary node masks carving a sub-domain out of a lattice."""

    interior: np.ndarray
    boundary: np.ndarray

    @property
    def defined(self) -> np.ndarray:
        return self.interior | self.boundary


class Grid2:
    """Square lattice over [-extent, extent]^2 with a disk or square domain mask."""

    def __init__(self, shape: str, N: int, extent: float = 1.0):
        if shape not in ("disk", "square"):
            raise ValueError(f"unknown grid shape {shape!r}")
        N = int(N)
        if N < 17:
            raise ValueError("grid needs at least 17 nodes per axis")
        if not 0 < extent < np.inf:
            raise ValueError(f"extent must be positive and finite, got {extent!r}")
        self.shape = shape
        self.N = N
        self.extent = float(extent)
        self.h = 2.0 * self.extent / (N - 1)
        self.xs = np.linspace(-self.extent, self.extent, N)
        # read-only views of xs: X[i, j] = xs[i], Y[i, j] = xs[j]
        self.X = np.broadcast_to(self.xs[:, None], (N, N))
        self.Y = np.broadcast_to(self.xs, (N, N))
        if shape == "disk":
            self.region = self.subregion(self.extent)
        else:
            interior = np.zeros((N, N), dtype=bool)
            interior[1:-1, 1:-1] = True
            self.region = SubRegion(interior, _collar(interior))

    @classmethod
    def disk(cls, N: int, radius: float = 1.0) -> "Grid2":
        return cls("disk", N, radius)

    @classmethod
    def square(cls, N: int, half_width: float = 1.0) -> "Grid2":
        return cls("square", N, half_width)

    @property
    def interior(self) -> np.ndarray:
        return self.region.interior

    @property
    def boundary(self) -> np.ndarray:
        return self.region.boundary

    @property
    def defined(self) -> np.ndarray:
        return self.region.defined

    def ball(self, radius: float, center=(0.0, 0.0)) -> np.ndarray:
        """Lattice nodes, defined or not, in the closed ball of the given radius."""
        return np.hypot((self.xs - center[0])[:, None], self.xs - center[1]) <= ball_reach(radius)

    def ball_mask(self, radius: float) -> np.ndarray:
        """Defined nodes in the closed ball of the given radius about the origin."""
        return self.defined & self.ball(radius)

    def subregion(self, radius: float, center=(0.0, 0.0)) -> SubRegion:
        """Disk sub-domain on this lattice (interior strictly inside, 8-collar boundary)."""
        rr = np.hypot((self.xs - center[0])[:, None], self.xs - center[1])  # no N^2 temporaries
        interior = rr < radius * (1.0 - 1e-12)
        return SubRegion(interior, _collar(interior))

    def __repr__(self) -> str:
        return f"Grid2({self.shape!r}, N={self.N}, extent={self.extent})"


@dataclass
class GridFunction:
    """Scalar field sampled on a grid; NaN off the defined mask."""

    grid: Grid2
    values: np.ndarray
    defined: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        bad = self.defined & ~np.isfinite(self.values)
        if bad.any():
            raise ValueError("non-finite values on defined nodes")

    @classmethod
    def from_callable(cls, grid: Grid2, fn: Callable, mask: np.ndarray | None = None) -> "GridFunction":
        mask = grid.defined if mask is None else mask
        values = np.full((grid.N, grid.N), np.nan)
        values[mask] = np.asarray(fn(grid.X[mask], grid.Y[mask]), dtype=float)
        return cls(grid, values, mask.copy())

    @classmethod
    def zeros(cls, grid: Grid2, mask: np.ndarray | None = None) -> "GridFunction":
        return cls.from_callable(grid, lambda x, y: np.zeros_like(x), mask)

    def filled(self, fill: float = 0.0) -> np.ndarray:
        """Values array with undefined nodes replaced by ``fill`` (for stencil work)."""
        out = self.values.copy()
        out[~self.defined] = fill
        return out

    def sup(self) -> float:
        """Max of |values| over defined nodes."""
        if not self.defined.any():
            raise ValueError("empty evaluation mask")
        return float(np.max(np.abs(self.values[self.defined])))


def save_grid(path, gf: GridFunction) -> None:
    g = gf.grid
    values = np.where(gf.defined, gf.values, np.nan)
    lines = [f"grid {g.shape} {g.N} {g.extent!r}"]
    lines += [" ".join(map(repr, row.tolist())) for row in values]
    Path(path).write_text("\n".join(lines) + "\n")


def load_grid(path) -> GridFunction:
    with open(path) as fh:
        header = fh.readline().strip()
        head = header.split()
        if len(head) != 4 or head[0] != "grid":
            raise ValueError(f"{path}: malformed grid header {header!r}")
        try:
            grid = Grid2(head[1], int(head[2]), float(head[3]))
            with warnings.catch_warnings():
                # a file without value rows fails the shape check below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(fh, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if values.shape != (grid.N, grid.N):
        raise ValueError(f"{path}: expected {grid.N}x{grid.N} values, got {values.shape}")
    if np.isinf(values).any():
        raise ValueError(f"{path}: infinite value in grid file")
    return GridFunction(grid, values, ~np.isnan(values))
