"""Module boundaries: each ellreg module owns its private names (no module
imports or reads another package module's ``_``-prefixed name), and start-up
stays light (the CLI module imports only the standard library, no module
imports scipy, and the package exports load on first access)."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import ellreg
from ellreg import constants, grid, operators

SRC = Path(ellreg.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _foreign_private_uses(path: Path) -> list[str]:
    """``from .x import _y``, and ``m._y`` on any name m bound by an import
    from another module of the package."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ellreg")):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                imported.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in imported and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_into_another_modules_private_names():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    found = [use for path in modules for use in _foreign_private_uses(path)]
    assert not found, found


def _imports(path: Path, function_bodies: bool = False) -> list[tuple[int, str]]:
    """(line, top-level package) of every import, leaving out those in
    function bodies unless asked: the rest are every import that can run
    when the module loads.  A relative import reads ``ellreg``."""
    todo, found = list(ast.parse(path.read_text(), filename=str(path)).body), []
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "ellreg" if node.level else node.module.partition(".")[0]))
        elif function_bodies or not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_cli_loads_only_the_standard_library():
    found = _imports(SRC / "cli.py")
    assert {"argparse", "configparser"} <= {name for _, name in found}
    assert [(line, name) for line, name in found if name not in sys.stdlib_module_names] == []


def test_no_module_imports_scipy():
    # function bodies included: numpy and mpmath are the only dependencies
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line, name in _imports(path, function_bodies=True) if name == "scipy"]
    assert not found, found


EXPORTS = {
    "ConstantsReport": constants.ConstantsReport,
    "EllipticityBounds": constants.EllipticityBounds,
    "ExternalConstants": constants.ExternalConstants,
    "HolderPair": constants.HolderPair,
    "build_report": constants.build_report,
    "Grid2": grid.Grid2,
    "GridFunction": grid.GridFunction,
    "load_grid": grid.load_grid,
    "save_grid": grid.save_grid,
    "OperatorSpec": operators.OperatorSpec,
}


def test_package_exports_are_the_submodules_objects():
    assert set(ellreg.__all__) == set(EXPORTS) | {"__version__"}
    for name, obj in EXPORTS.items():
        assert getattr(ellreg, name) is obj, name
    assert set(ellreg.__all__) <= set(dir(ellreg))
    assert not hasattr(ellreg, "no_such_export")


def test_importing_the_package_loads_no_numpy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ellreg; print(sorted({'numpy', 'mpmath'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_every_all_lists_the_public_names_its_module_defines():
    # names in __all__ resolve, and each public function or class a module
    # defines is listed, so neither a stale entry nor a missing one survives
    missing, stale = [], []
    for path in sorted(SRC.glob("*.py")):
        name = "ellreg" if path.stem == "__init__" else f"ellreg.{path.stem}"
        module = importlib.import_module(name)
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        stale += [f"{name}.{n}" for n in listed if not hasattr(module, n)]
        missing += [f"{name}.{n}" for n, obj in vars(module).items()
                    if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == name and n not in listed]
    assert not stale, stale
    assert not missing, missing
