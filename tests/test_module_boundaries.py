"""Each ellreg module owns its private names: no module imports or reads
another package module's ``_``-prefixed name."""

from __future__ import annotations

import ast
from pathlib import Path

import ellreg

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
