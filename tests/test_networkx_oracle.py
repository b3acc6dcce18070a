"""Differential tests against networkx, an implementation independent of
this library.  networkx is a test-only dependency; the tests skip without it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoblock.detection import _two_disjoint_paths, longest_cycle
from twoblock.digraph import Digraph, is_strong, strong_components
from twoblock.errors import Acyclic

from conftest import digraphs

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
    comps = strong_components(d)
    assert set(comps) == {frozenset(c) for c in nx.strongly_connected_components(g)}
    assert [min(c) for c in comps] == sorted(min(c) for c in comps)


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
    assert _two_disjoint_paths(d.out_mask, d.in_mask, u, v, region) == (count >= 2)
