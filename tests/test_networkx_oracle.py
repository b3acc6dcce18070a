"""Differential tests against networkx, an implementation independent of
this library.  networkx is a test-only dependency; the tests skip without it.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoblock.detection import _dominators, _menger_gate, longest_cycle
from twoblock.digraph import Digraph, is_strong
from twoblock.errors import Acyclic
from twoblock.harness import canonical_form, tournament_classes

from conftest import digraphs
from oracles import random_digraph

nx = pytest.importorskip("networkx")


def to_nx(d: Digraph):
    g = nx.DiGraph()
    g.add_nodes_from(range(d.n))
    g.add_edges_from(d.arcs)
    return g


@settings(max_examples=300, deadline=None)
@given(digraphs(min_n=0, max_n=8))
def test_strong_connectivity_matches_networkx(d):
    g = to_nx(d)
    # networkx calls the null graph's connectivity undefined; it is not strong.
    assert is_strong(d) == (d.n >= 1 and nx.is_strongly_connected(g))


@settings(max_examples=200, deadline=None)
@given(digraphs(min_n=1, max_n=7))
def test_longest_cycle_matches_networkx(d):
    expected = max((len(c) for c in nx.simple_cycles(to_nx(d))), default=0)
    if expected == 0:
        with pytest.raises(Acyclic):
            longest_cycle(d)
    else:
        assert longest_cycle(d).length == expected


@settings(max_examples=200, deadline=None)
@given(digraphs(min_n=2, max_n=7), st.data())
def test_two_disjoint_paths_matches_networkx(d, data):
    u, v = data.draw(st.permutations(range(d.n)))[:2]
    region = data.draw(st.integers(0, (1 << d.n) - 1)) | (1 << u) | (1 << v)
    sub = to_nx(d).subgraph([x for x in range(d.n) if (region >> x) & 1])
    # With the arc u->v present networkx counts the arc as one path, and any
    # other path has an interior vertex: the arc rule of the docstring.
    try:
        count = len(list(nx.node_disjoint_paths(sub, u, v)))
    except nx.NetworkXNoPath:
        count = 0
    dom = _dominators(d.out_mask, d.in_mask, u, region)
    assert _menger_gate(d.out_mask, d.in_mask, u, v, region, dom) == (count >= 2)


def relabel(d: Digraph, rng: random.Random) -> Digraph:
    perm = rng.sample(range(d.n), d.n)
    return Digraph(d.n, frozenset((perm[t], perm[h]) for t, h in d.arcs))


def random_tournament(rng: random.Random, n: int) -> Digraph:
    return Digraph(n, frozenset(
        (i, j) if rng.random() < 0.5 else (j, i)
        for i in range(n) for j in range(i + 1, n)
    ))


def test_canonical_form_matches_networkx_isomorphism():
    # Pairs of random tournaments and of random digraphs of three densities;
    # every digraph is also compared with a random relabeling of itself.
    rng = random.Random(11)
    outcomes = set()
    for _ in range(1500):
        n = rng.randint(0, 7)
        if rng.random() < 0.5:
            a, b = random_tournament(rng, n), random_tournament(rng, n)
        else:
            p = rng.choice((0.2, 0.5, 0.8))
            a, b = random_digraph(rng, n, p), random_digraph(rng, n, p)
        assert canonical_form(relabel(a, rng)) == canonical_form(a)
        same = nx.is_isomorphic(to_nx(a), to_nx(b))
        assert (canonical_form(a) == canonical_form(b)) == same
        outcomes.add(same)
    assert outcomes == {True, False}


def test_canonical_form_on_relabeled_7_tournament_classes():
    # Both digraphs are random relabelings of class representatives, half of
    # them of the same class, so that classes whose refined partition keeps
    # vertices of different orbits in one cell are reached.
    rng = random.Random(12)
    classes = tournament_classes(7)
    for _ in range(1000):
        a = rng.choice(classes)
        b = a if rng.random() < 0.5 else rng.choice(classes)
        a, b = relabel(a, rng), relabel(b, rng)
        same = nx.is_isomorphic(to_nx(a), to_nx(b))
        assert (canonical_form(a) == canonical_form(b)) == same
