"""No library module imports a name it never uses, no private helper
outlives its last caller, and importing the package loads no module that
only a rarely used function needs.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import twoblock
from twoblock import detection

SRC = Path(twoblock.__file__).parent

# The package's exports: its six library modules and the names they define.
EXPORTS = [
    "AbsenceReport", "ArcSplit", "Coloring", "ContractionTrace",
    "CrossingException", "CycleTree", "DiCycle", "Digraph", "EliminationOrder",
    "PhiLabels", "PipelineRun", "PreimageMap", "TwoBlockCertificate", "UGraph",
    "build_contraction_trace", "build_digraph", "chromatic_number", "color_F",
    "color_hamiltonian", "color_strong_digraph", "coloring", "contract",
    "crossing_chord_case", "cycle_path", "cycle_segment", "degeneracy",
    "detection", "digraph", "elimination_back_degree", "errors",
    "extract_cycle_tree", "find_two_block_cycle", "greedy_color_by_order",
    "ham_degeneracy_order", "hamiltonian", "hamiltonian_cycle", "induced",
    "is_proper", "is_strong", "k_colorable", "longest_cycle",
    "low_degree_or_certificate", "order_F1", "phi_labeling", "pipeline",
    "pipeline_report", "run_pipeline", "split_arcs", "tree_path",
    "underlying_graph", "validate_cycle_tree", "validate_structure",
    "validate_trace", "verify_certificate",
]


def run_fresh(code: str) -> str:
    """The stripped stdout of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def loaded_after(imports: str) -> list[str]:
    """The ``twoblock`` modules loaded by ``import <imports>``."""
    code = (
        f"import sys, {imports}\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'twoblock'))"
    )
    return run_fresh(code).split()


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
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not found, f"imported but never used: {found}"


def reads(tree: ast.AST) -> Counter[str]:
    """How often each name is read in ``tree``, as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """The private top-level functions and classes of ``sources`` (file name
    to text) that nothing outside their own definition reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = sum((reads(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{file}::{node.name}"
        for file, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and everywhere[node.name] == reads(node)[node.name]
    )


def test_guard_sees_an_unreferenced_private_helper():
    sources = {
        "a.py": "def _used():\n    return 1\n\n\ndef _dead(n):\n    return _dead(n)\n",
        "b.py": "from a import _used\nx = _used()\n",
    }
    assert unreferenced_private_definitions(sources) == ["a.py::_dead"]


def test_every_private_definition_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unreferenced_private_definitions(sources) == []


def test_import_loads_no_json_or_process_pool():
    # ``json`` and ``concurrent.futures`` (with the ``logging``, ``traceback``,
    # ``string`` and ``textwrap`` it loads) are imported inside the functions
    # that write JSON or start a worker pool.
    lazy = ["json", "concurrent.futures", "logging", "traceback", "string", "textwrap"]
    code = (
        "import sys, twoblock, twoblock.harness, twoblock.io\n"
        f"print(sorted(m for m in {lazy!r} if m in sys.modules))"
    )
    assert run_fresh(code) == "[]"


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
    assert run_fresh(code) == "[]"


def test_package_import_loads_no_submodule():
    assert loaded_after("twoblock") == ["twoblock"]


def test_harness_import_loads_what_the_harness_runs():
    assert loaded_after("twoblock, twoblock.harness") == [
        "twoblock",
        "twoblock.detection",
        "twoblock.digraph",
        "twoblock.errors",
        "twoblock.harness",
    ]


def test_cli_import_loads_no_harness_or_hamiltonian():
    loaded = loaded_after("twoblock.cli")
    assert "twoblock.pipeline" not in loaded
    assert "twoblock.harness" not in loaded and "twoblock.hamiltonian" not in loaded


def test_io_import_loads_no_coloring():
    assert "twoblock.coloring" not in loaded_after("twoblock.io")


def test_exports_are_the_submodules_objects():
    assert sorted(twoblock.__all__) == EXPORTS
    modules = {"coloring", "detection", "digraph", "errors", "hamiltonian", "pipeline"}
    for name in EXPORTS:
        obj = getattr(twoblock, name)
        if name in modules:
            assert obj is sys.modules[f"twoblock.{name}"]
        else:
            assert obj.__module__.removeprefix("twoblock.") in modules
            assert obj is getattr(sys.modules[obj.__module__], name)


def test_star_import_binds_every_export():
    code = (
        "before = set(globals())\n"
        "from twoblock import *\n"
        "import twoblock.detection as d\n"
        "print(find_two_block_cycle is d.find_two_block_cycle and detection is d)\n"
        "print(*sorted(set(globals()) - before - {'before', 'd'}))"
    )
    same, names = run_fresh(code).splitlines()
    assert same == "True" and names.split() == EXPORTS


def test_export_follows_a_patched_submodule(monkeypatch):
    original = detection.find_two_block_cycle

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(detection, "find_two_block_cycle", patched)
    assert twoblock.find_two_block_cycle is patched
    monkeypatch.undo()
    assert twoblock.find_two_block_cycle is original


def test_unknown_name_and_dir():
    message = "module 'twoblock' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=message):
        twoblock.no_such_name
    assert "__all__" in dir(twoblock) and set(EXPORTS) <= set(dir(twoblock))
