"""The exact clique refutation in ``k_colorable``.

A clique of ``c + 1`` vertices answers "not c-colorable" before the
backtracking search starts.  Above the cap both searches run under the work
limit, and only a backtracking search that the limit cuts short is
refused."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoblock import coloring
from twoblock.coloring import Coloring, _clique_of_size, _greedy_clique, k_colorable
from twoblock.digraph import UGraph
from twoblock.errors import CapExceeded
from twoblock.harness import random_cycle_tree_free
from twoblock.pipeline import run_pipeline

from oracles import oracle_chromatic
from test_pinned_outputs import BACKTRACKS


@st.composite
def ugraphs(draw, max_n: int) -> UGraph:
    n = draw(st.integers(0, max_n))
    possible = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(possible)) if possible else st.just(set()))
    return UGraph(n, frozenset(edges))


def is_clique(g: UGraph, vertices) -> bool:
    return all(pair in g.edges for pair in combinations(sorted(vertices), 2))


def brute_clique_number(g: UGraph) -> int:
    return max(
        (size for size in range(g.n + 1)
         for sub in combinations(range(g.n), size) if is_clique(g, sub)),
        default=0,
    )


@settings(max_examples=200, deadline=None)
@given(ugraphs(max_n=9))
def test_clique_helper_matches_subset_search(g):
    omega = brute_clique_number(g)
    for size in range(g.n + 2):
        found = _clique_of_size(g, size)
        if size <= omega:
            assert found is not None
            assert len(set(found)) == size and is_clique(g, found)
        else:
            assert found is None


@settings(max_examples=150, deadline=None)
@given(ugraphs(max_n=9), st.integers(-1, 2))
@example(BACKTRACKS, 0)  # c = omega = 3: only the backtracking search decides
def test_k_colorable_none_exactly_above_chromatic_number(g, offset):
    c = max(brute_clique_number(g) + offset, 0)
    found = k_colorable(g, c)
    if oracle_chromatic(g) > c:
        assert found is None
    else:
        assert found is not None and found.palette_size <= c
        assert all(found.colors[a] != found.colors[b] for a, b in g.edges)


def test_pipeline_instance_needs_no_backtracking(monkeypatch):
    # Criterion-5 instance i=9: 14 vertices, 33 edges, c = 5, a greedy
    # clique of 4 and a 6-clique, so the one "not 5-colorable" answer used
    # to come from a full backtracking search.  Every call left is a greedy
    # descent, whose palette holds a color per vertex.
    calls = []
    backtrack = coloring._color_backtrack

    def counted(*args):
        calls.append(args)
        return backtrack(*args)

    monkeypatch.setattr(coloring, "_color_backtrack", counted)
    d = random_cycle_tree_free(14, 4, 3, seed=3009, cap=14)
    run = run_pipeline(d, 4, 3, detect_cap=14)
    assert all(c >= g.n for g, c, *_ in calls)
    assert run.coloring == Coloring(
        (6, 5, 4, 3, 2, 0, 4, 0, 2, 0, 2, 3, 2, 1), 7
    )
    assert run.trace.final_coloring == Coloring((0,), 1)


def test_above_cap_still_refused_when_greedy_clique_misses(work_limit):
    # K4 on 0..3; hub 4 touches 0 and three leaves, so it has the highest
    # degree and the greedy clique {4, 0} never reaches the K4.
    edges = list(combinations(range(4), 2)) + [(0, 4), (4, 5), (4, 6), (4, 7)]
    g = UGraph(8, frozenset(edges))
    assert len(_greedy_clique(g)) <= 3
    assert sorted(_clique_of_size(g, 4)) == [0, 1, 2, 3]
    # Above the cap the clique search finds the K4 within the work limit.
    assert k_colorable(g, 3, cap=7) is None
    assert k_colorable(g, 3, cap=8) is None
    # With one unit the clique search gives up and the backtracking search
    # is cut short, so the answer is refused.
    work_limit(1)
    assert _clique_of_size(g, 4, 1) is None
    with pytest.raises(CapExceeded):
        k_colorable(g, 3, cap=7)
