from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from twoblock import coloring
from twoblock.coloring import (
    Coloring,
    chromatic_number,
    degeneracy,
    elimination_back_degree,
    greedy_color_by_order,
    is_proper,
    k_colorable,
)
from twoblock.digraph import UGraph, underlying_graph
from twoblock.errors import CapExceeded

from conftest import digraphs
from oracles import oracle_back_degree, oracle_chromatic, random_digraph


def complete_graph(n):
    return UGraph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle_graph(n):
    return UGraph(n, frozenset(tuple(sorted((i, (i + 1) % n))) for i in range(n)))


def every_graph(n):
    # All 2 ** (n choose 2) labelled graphs on n vertices, in edge-bit order.
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield bits, UGraph(n, frozenset(p for i, p in enumerate(pairs) if bits >> i & 1))


def bfs_two_colorable(g):
    side = [-1] * g.n
    for root in range(g.n):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = [root]
        for v in queue:
            for w in range(g.n):
                if g.adj_mask[v] >> w & 1:
                    if side[w] == -1:
                        side[w] = 1 - side[v]
                        queue.append(w)
                    elif side[w] == side[v]:
                        return False
    return True


def petersen():
    outer = [tuple(sorted((i, (i + 1) % 5))) for i in range(5)]
    inner = [tuple(sorted((5 + i, 5 + (i + 2) % 5))) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return UGraph(10, frozenset(outer + inner + spokes))


def grotzsch():
    # Mycielski construction over C5: triangle-free with chromatic number 4.
    edges = set()
    for i in range(5):
        edges.add(tuple(sorted((i, (i + 1) % 5))))
        edges.add(tuple(sorted((5 + i, (i + 1) % 5))))
        edges.add(tuple(sorted((5 + i, (i - 1) % 5))))
        edges.add((5 + i, 10))
    return UGraph(11, frozenset(edges))


class TestKColorable:
    def test_k5_with_4_fails(self):
        assert k_colorable(complete_graph(5), 4) is None

    def test_k5_with_5_distinct(self):
        col = k_colorable(complete_graph(5), 5)
        assert col is not None
        assert len(set(col.colors)) == 5

    def test_odd_cycle(self):
        assert k_colorable(cycle_graph(5), 2) is None
        col = k_colorable(cycle_graph(5), 3)
        assert col is not None and is_proper(cycle_graph(5), col)

    def test_zero_colors_empty_graph(self):
        assert k_colorable(UGraph(0, frozenset()), 0) is not None

    def test_cap(self, work_limit):
        # chi = 4 keeps every shortcut (the greedy descent, the clique
        # bounds) from resolving c = 3.  Above the cap the backtracking
        # search finishes within the work limit, so its None is exact; a
        # small limit cuts it short, and then it refuses.
        g = grotzsch()
        assert k_colorable(g, 3, cap=4) is None
        assert k_colorable(g, 3, cap=11) is None
        assert chromatic_number(g)[0] == 4
        assert chromatic_number(g, cap=4) == chromatic_number(g)
        work_limit(10)
        with pytest.raises(CapExceeded, match="ran out of its work limit"):
            k_colorable(g, 3, cap=4)


class TestChromaticNumber:
    def test_figure1_underlying_is_5(self, fig1):
        chi, witness = chromatic_number(underlying_graph(fig1))
        assert chi == 5
        assert is_proper(underlying_graph(fig1), witness)

    def test_even_cycle(self):
        assert chromatic_number(cycle_graph(6))[0] == 2

    def test_petersen_is_3(self):
        # classic instance; reconfirmed by the naive oracle below
        g = petersen()
        chi, witness = chromatic_number(g)
        assert chi == 3 == oracle_chromatic(g)
        assert is_proper(g, witness)

    def test_starts_at_the_greedy_clique(self, monkeypatch):
        # Every c below the greedy clique's size is refused, so it is not asked.
        calls = []

        def counting(g, c, **kwargs):
            calls.append(c)
            return k_colorable(g, c, **kwargs)

        monkeypatch.setattr(coloring, "k_colorable", counting)
        assert chromatic_number(complete_graph(5)) == (5, Coloring(tuple(range(5)), 5))
        assert calls == [5]


class TestDegeneracy:
    def test_k5(self):
        assert degeneracy(complete_graph(5)).bound == 4

    def test_cycle(self):
        assert degeneracy(cycle_graph(7)).bound == 2

    def test_tree(self):
        g = UGraph(5, frozenset({(0, 1), (1, 2), (1, 3), (3, 4)}))
        assert degeneracy(g).bound == 1

    def test_order_passes_independent_checker(self):
        g = petersen()
        order = degeneracy(g)
        assert elimination_back_degree(g, order.order) <= order.bound
        assert oracle_back_degree(g, order.order) <= order.bound


class TestGreedyColorByOrder:
    def test_k5_uses_5(self):
        g = complete_graph(5)
        col = greedy_color_by_order(g, degeneracy(g))
        assert col.palette_size == 5 and is_proper(g, col)

    def test_tree_uses_at_most_2(self):
        g = UGraph(6, frozenset({(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)}))
        col = greedy_color_by_order(g, degeneracy(g))
        assert col.palette_size <= 2 and is_proper(g, col)

    def test_c5_uses_at_most_3(self):
        g = cycle_graph(5)
        col = greedy_color_by_order(g, degeneracy(g))
        assert col.palette_size <= 3 and is_proper(g, col)


def test_is_proper_rejects_bad_colorings():
    g = cycle_graph(3)
    assert not is_proper(g, Coloring((0, 0, 1), 2))
    assert not is_proper(g, Coloring((0, 1), 2))
    assert not is_proper(g, Coloring((0, 1, 5), 3))


def test_exactness_against_oracle_small_random():
    rng = random.Random(20240817)
    for _ in range(60):
        n = rng.randint(1, 7)
        g = underlying_graph(random_digraph(rng, n, 0.4))
        chi, witness = chromatic_number(g)
        assert chi == oracle_chromatic(g)
        assert is_proper(g, witness)
        assert k_colorable(g, chi) is not None
        if chi > 1:
            assert k_colorable(g, chi - 1) is None


@settings(max_examples=120, deadline=None)
@given(digraphs(max_n=7))
def test_chromatic_witness_and_boundaries(d):
    g = underlying_graph(d)
    chi, witness = chromatic_number(g)
    assert is_proper(g, witness)
    assert witness.palette_size == chi
    if chi > 0:
        assert k_colorable(g, chi) is not None
    if chi > 1:
        assert k_colorable(g, chi - 1) is None


@settings(max_examples=120, deadline=None)
@given(digraphs(max_n=7))
def test_degeneracy_and_greedy_invariants(d):
    g = underlying_graph(d)
    order = degeneracy(g)
    assert elimination_back_degree(g, order.order) <= order.bound
    col = greedy_color_by_order(g, order)
    assert is_proper(g, col)
    assert col.palette_size <= order.bound + 1


def test_two_colorable_exactly_when_breadth_first_succeeds():
    for n in range(7):
        for _, g in every_graph(n):
            assert (k_colorable(g, 2) is not None) == bfs_two_colorable(g)


# SHA-256 over every answer of ``k_colorable(g, c)`` for each labelled graph
# with n <= 5 and each c <= n; any changed coloring changes it.
SMALL_COLORINGS_SHA256 = "fc0d30b9ff2195a180264bac6ad047416f28f88e7ae452196827f83d5f87e8c9"


def test_every_small_coloring_is_pinned():
    digest = hashlib.sha256()
    for n in range(6):
        for bits, g in every_graph(n):
            for c in range(n + 1):
                found = k_colorable(g, c)
                answer = "-" if found is None else f"{found.colors} {found.palette_size}"
                digest.update(f"{n} {bits} {c} {answer}\n".encode())
    assert digest.hexdigest() == SMALL_COLORINGS_SHA256
