"""No library module imports a name it never uses.

``__init__.py`` is skipped: its imports are the package's exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import twoblock

SRC = Path(twoblock.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported.items())
        if name not in used
    ]


def test_guard_sees_an_unused_import():
    source = "from typing import Iterable, Iterator\nx: Iterable[int] = ()\n"
    assert unused_imports(source) == ["Iterator (line 1)"]


def test_library_has_no_unused_imports():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not found, f"imported but never used: {found}"
