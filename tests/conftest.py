from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from twoblock import detection
from twoblock.cli import figure1_tournament
from twoblock.digraph import Digraph


@pytest.fixture(scope="session")
def fig1() -> Digraph:
    return figure1_tournament()


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return Path(__file__).parent.parent / "fixtures"


@pytest.fixture
def work_limit(monkeypatch):
    """``work_limit(budget, tries=None)`` sets the work limit that every exact
    search reads above its cap and, if ``tries`` is given, the pair limit of
    detection, until the test ends."""

    def set_limits(budget: int, tries: int | None = None) -> None:
        monkeypatch.setattr(detection, "_HEURISTIC_BUDGET", budget)
        if tries is not None:
            monkeypatch.setattr(detection, "_HEURISTIC_TRIES", tries)

    return set_limits


@st.composite
def digraphs(draw, min_n: int = 1, max_n: int = 6) -> Digraph:
    n = draw(st.integers(min_n, max_n))
    possible = [(i, j) for i in range(n) for j in range(n) if i != j]
    arcs = draw(st.sets(st.sampled_from(possible)) if possible else st.just(set()))
    return Digraph(n, frozenset(arcs))
