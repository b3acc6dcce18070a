"""Runtime verification must not depend on ``assert``, which ``python -O`` strips."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import twoblock

SRC = Path(twoblock.__file__).parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"bare assert statements: {found}"


def test_verification_runs_under_optimize_flag():
    script = (
        "from twoblock import detection\n"
        "from twoblock.digraph import build_digraph\n"
        "from twoblock.errors import StructuralViolation\n"
        "detection.verify_certificate = lambda *args: False\n"
        "d = build_digraph(3, [(0, 1), (1, 2), (0, 2)])\n"
        "try:\n"
        "    detection.find_two_block_cycle(d, 2, 1)\n"
        "except StructuralViolation:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "raised"
