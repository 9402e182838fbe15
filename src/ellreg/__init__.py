"""ellreg: explicit-constants interior regularity toolkit for almost-linear
uniformly elliptic equations on 2-D grids.

The exports load on first access (PEP 562), so ``import ellreg.constants``
loads mpmath and no numpy, and ``import ellreg.cli`` loads neither.
"""

import importlib

__version__ = "0.1.0"

# export -> the submodule that defines it
_EXPORTS = {
    "ConstantsReport": "constants",
    "EllipticityBounds": "constants",
    "ExternalConstants": "constants",
    "HolderPair": "constants",
    "build_report": "constants",
    "Grid2": "grid",
    "GridFunction": "grid",
    "load_grid": "grid",
    "save_grid": "grid",
    "OperatorSpec": "operators",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
