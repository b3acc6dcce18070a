"""Heuristic longest cycle: the exact search under an expansion budget.

Above the cap, ``longest_cycle(strict=False)`` returns the best cycle found
before the budget runs out, and raises ``Acyclic`` only for a digraph with no
cycle at all.
"""

from __future__ import annotations

import pytest

from twoblock import detection
from twoblock.cli import main
from twoblock.detection import longest_cycle
from twoblock.digraph import build_digraph
from twoblock.errors import Acyclic


def path_with_back_arc(n: int, tail: int, head: int):
    return build_digraph(n, [(i, i + 1) for i in range(n - 1)] + [(tail, head)])


@pytest.mark.parametrize("n,tail,head", [(60, 26, 24), (200, 199, 197)])
def test_short_cycle_on_long_path_is_found(n, tail, head):
    d = path_with_back_arc(n, tail, head)
    assert longest_cycle(d, cap=20, strict=False).vertices == (head, head + 1, tail)


def test_cli_heuristic_prints_the_cycle(tmp_path, capsys):
    d = path_with_back_arc(60, 26, 24)
    path = tmp_path / "path60.edges"
    path.write_text(f"{d.n}\n" + "".join(f"{t} {h}\n" for t, h in sorted(d.arcs)))
    assert main(["longest-cycle", "--heuristic", str(path)]) == 0
    assert capsys.readouterr().out == "longest cycle length 3: [24, 25, 26]\n"


def test_acyclic_above_cap_raises():
    d = build_digraph(30, [(i, i + 1) for i in range(29)])
    with pytest.raises(Acyclic):
        longest_cycle(d, cap=20, strict=False)


def test_first_cycle_ignores_the_budget(monkeypatch):
    # Five expansions cannot close a 30-cycle, but the first cycle through a
    # start is searched without a budget.
    monkeypatch.setattr(detection, "_HEURISTIC_BUDGET", 5)
    d = build_digraph(30, [(i, (i + 1) % 30) for i in range(30)])
    assert longest_cycle(d, cap=20, strict=False).vertices == tuple(range(30))


def test_exhausted_budget_returns_the_best_cycle_so_far(monkeypatch):
    # The 30-cycle 0 -> 29 -> ... -> 1 -> 0 with the chord 0 -> 2: the first
    # cycle through 0 is the triangle over the chord, and one unit of budget
    # ends the search for a longer one.
    arcs = [(i, (i - 1) % 30) for i in range(30)] + [(0, 2)]
    d = build_digraph(30, arcs)
    monkeypatch.setattr(detection, "_HEURISTIC_BUDGET", 1)
    assert longest_cycle(d, cap=20, strict=False).vertices == (0, 2, 1)
    monkeypatch.setattr(detection, "_HEURISTIC_BUDGET", 100)
    cyc = longest_cycle(d, cap=20, strict=False)
    assert cyc.vertices == (0, *range(29, 0, -1))
