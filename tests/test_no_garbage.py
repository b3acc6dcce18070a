"""The colorability search and the cycle-tree path search run without
self-recursive closures, so a call leaves no reference cycle behind."""

from __future__ import annotations

import gc

import pytest

from twoblock.coloring import chromatic_number, k_colorable
from twoblock.digraph import DiCycle
from twoblock.errors import StructuralViolation
from twoblock.pipeline import CycleTree, _build_cycle_tree, tree_path

from test_pinned_outputs import BACKTRACKS, _wheel


def test_searches_leave_no_reference_cycles():
    w5 = _wheel(5)
    tree = _build_cycle_tree(7, [[0, 1, 2, 3], [0, 4, 5, 6]])
    calls = [
        lambda: k_colorable(w5, 3),
        lambda: k_colorable(BACKTRACKS, 3),
        lambda: chromatic_number(w5),
        lambda: tree_path(tree, 1, 5),
        lambda: tree_path(tree, 5, 1),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_tree_path_rejects_two_paths():
    # Not a cycle-tree: the two cycles share 0 and 2, so 0 -> 1 -> 2 and
    # 0 -> 4 -> 2 both run from 0 to 2.
    bad = CycleTree(
        6, (DiCycle((0, 1, 2, 3)), DiCycle((0, 4, 2, 5))), (None, 0), (None, 0)
    )
    with pytest.raises(StructuralViolation, match="found two or more"):
        tree_path(bad, 0, 2)
    assert tree_path(bad, 1, 2) == (1, 2)
