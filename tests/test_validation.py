"""Every check in src/ that rejects its input by raising, triggered once each:
the error type and its message are what a caller sees."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from ellreg import campanato as cp
from ellreg import constants as C
from ellreg import cordes
from ellreg import mollifier as mo
from ellreg import operators as op
from ellreg import solver as sv
from ellreg.grid import Grid2, GridFunction, SubRegion, load_grid

IDENTITY = op.OperatorSpec(1.0, 0.0, 1.0)
FLAT = C.EllipticityBounds(1.0, 1.0)
DISK17 = Grid2.disk(17)


class _IndefiniteAtZero:
    """An operator whose DF(0) has the eigenvalue -1."""

    eps = 0.0

    def gradient(self, M):
        return op.sym2(1.0, 0.0, -1.0)


def _uncovered_certificate(tmp_path):
    # a nonzero source needs the alpha of the pair, which this report lacks
    g = Grid2.disk(65)
    u = GridFunction.from_callable(g, lambda x, y: x * x - y * y)
    f = GridFunction.from_callable(g, lambda x, y: np.ones_like(x))
    cp.certificate_check(u, IDENTITY, f, C.build_report(2, FLAT, C.HolderPair(0.5)), FLAT)


def _unbracketed_correction(tmp_path):
    # at eps = 1e-18 the correction moves F by far less than the rounding of
    # F at the replacement's Taylor polynomial
    u = GridFunction.from_callable(Grid2.disk(65), lambda x, y: (
        x * x - y * y + 0.3 * x**3 - 0.9 * x * y * y + 0.1 * np.sin(3 * x) * np.cos(2 * y)))
    cp.improvement_step(u, op.OperatorSpec(1.0, 0.0, 1.0, 1e-18, "sine"))


def _malformed_header(tmp_path):
    path = tmp_path / "u.grid"
    path.write_text("grod disk 17 1.0\n")
    load_grid(path)


def _overflowing_stencil(tmp_path):
    # boundary data whose second differences overflow: the first residual is
    # not finite
    with np.errstate(over="ignore", invalid="ignore"):
        sv.solve_linear_dirichlet(np.eye(2), None, 1e308, DISK17)


_NOWHERE = np.zeros((17, 17), dtype=bool)
_CASES = {
    "campanato_iterate rho": (
        lambda t: cp.campanato_iterate(GridFunction.zeros(DISK17), IDENTITY, rho=1.0),
        ValueError, "rho must lie in (0,1)"),
    "campanato_iterate kmax": (
        lambda t: cp.campanato_iterate(GridFunction.zeros(DISK17), IDENTITY, kmax=-1),
        ValueError, "kmax must be nonnegative"),
    "certificate_check source without alpha": (
        _uncovered_certificate,
        ValueError, "inhomogeneous certificate needs a full (alpha, alpha_bar) report"),
    "improvement_step bracket": (
        _unbracketed_correction,
        sv.SolverError, "correction bisection cannot bracket a zero of F; "
                        "the operator's eps is too small for this instance"),
    "EllipticityBounds order": (
        lambda t: C.EllipticityBounds(2.0, 1.0),
        ValueError, "lambda must not exceed Lambda"),
    "HolderPair alpha": (
        lambda t: C.HolderPair(0.5, 1.5),
        ValueError, "alpha must lie in (0,1)"),
    "build_report infinite K1": (
        lambda t: C.build_report(2, FLAT, C.HolderPair(0.5), C.ExternalConstants(K1=math.inf)),
        ValueError, "eps0_tilde must be strictly positive"),
    "k_eps_margin empty": (
        lambda t: cordes.k_eps_margin([]),
        ValueError, "need at least one eigenvalue"),
    "nirenberg_constants 3x3": (
        lambda t: cordes.nirenberg_constants(np.eye(3), 0.0, 0.5),
        ValueError, "coefficient field must consist of 2x2 matrices"),
    "GridFunction non-finite": (
        lambda t: GridFunction(DISK17, np.full((17, 17), np.nan), DISK17.defined),
        ValueError, "non-finite values on defined nodes"),
    "GridFunction.sup empty": (
        lambda t: GridFunction(DISK17, np.full((17, 17), np.nan), _NOWHERE).sup(),
        ValueError, "empty evaluation mask"),
    "load_grid header": (
        _malformed_header,
        ValueError, "u.grid: malformed grid header 'grod disk 17 1.0'"),
    "third_derivative_mass C_prime": (
        lambda t: mo.third_derivative_mass(2, c_prime=0.0),
        ValueError, "C_prime must be positive"),
    "residual_audit samples": (
        lambda t: op.residual_audit(IDENTITY, samples=0),
        ValueError, "need at least one sample"),
    "normalize indefinite DF(0)": (
        lambda t: op.normalize(_IndefiniteAtZero()),
        ValueError, "DF(0) must be positive definite"),
    "solve boundary data": (
        lambda t: sv.solve_linear_dirichlet(
            np.eye(2), None, GridFunction(DISK17, np.zeros((17, 17)), DISK17.interior), DISK17),
        ValueError, "boundary data not defined on every boundary node"),
    "solve empty region": (
        lambda t: sv.solve_linear_dirichlet(np.eye(2), None, 0.0, DISK17,
                                            region=SubRegion(_NOWHERE, _NOWHERE)),
        sv.SolverError, "region has no interior nodes"),
    "solve non-finite iterate": (
        _overflowing_stencil,
        sv.SolverError, "iteration produced non-finite values"),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_each_rejection_raises_its_message(case, tmp_path):
    trigger, error, message = _CASES[case]
    with pytest.raises(error, match=re.escape(message) + "$"):
        trigger(tmp_path)
