"""No library module imports a name it never uses, and importing the
package loads no module that only a rarely used function needs.

``__init__.py`` is skipped: its imports are the package's exports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def test_import_loads_no_json_or_process_pool():
    # ``json`` and ``concurrent.futures`` (with the ``logging``, ``traceback``,
    # ``string`` and ``textwrap`` it loads) are imported inside the functions
    # that write JSON or start a worker pool.
    lazy = ["json", "concurrent.futures", "logging", "traceback", "string", "textwrap"]
    code = (
        "import sys, twoblock, twoblock.harness, twoblock.io\n"
        f"print(sorted(m for m in {lazy!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_import_loads_only_the_stdlib_the_package_names():
    # The stdlib modules ``src/twoblock`` imports at module level, with what
    # they load; anything else the package import pulls in adds to start-up.
    named = "argparse, dataclasses, functools, itertools, os, random, sys, typing"
    code = (
        f"import {named}\n"
        "before = set(sys.modules)\n"
        "import twoblock, twoblock.harness, twoblock.io, twoblock.cli\n"
        "print(sorted(m for m in set(sys.modules) - before\n"
        "             if m not in ('__future__', 'twoblock')\n"
        "             and not m.startswith('twoblock.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
