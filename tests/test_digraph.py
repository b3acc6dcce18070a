from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoblock.digraph import (
    DiCycle,
    Digraph,
    build_digraph,
    contract,
    cycle_segment,
    induced,
    is_strong,
    reverse,
    underlying_graph,
)
from twoblock.errors import (
    DuplicateArc,
    EmptySet,
    LoopArc,
    NotOnCycle,
    VertexOutOfRange,
)

from conftest import digraphs


def directed_cycle(n):
    return build_digraph(n, [(i, (i + 1) % n) for i in range(n)])


class TestBuildDigraph:
    def test_figure1_tournament(self, fig1):
        assert fig1.n == 5
        assert fig1.arc_count == 10
        assert fig1.has_arc(0, 1) and fig1.has_arc(4, 0)

    def test_single_isolated_vertex(self):
        d = build_digraph(1, [])
        assert d.n == 1 and d.arc_count == 0

    def test_digon_accepted(self):
        d = build_digraph(2, [(0, 1), (1, 0)])
        assert d.arc_count == 2

    def test_loop_rejected(self):
        with pytest.raises(LoopArc):
            build_digraph(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateArc):
            build_digraph(3, [(0, 1), (0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRange):
            build_digraph(3, [(0, 3)])


@settings(max_examples=200, deadline=None)
@given(digraphs(min_n=2, max_n=8), st.data())
def test_with_arc_matches_a_fresh_digraph(d, data):
    missing = [
        (a, b) for a in range(d.n) for b in range(d.n)
        if a != b and (a, b) not in d.arcs
    ]
    if not missing:
        return
    a, b = data.draw(st.sampled_from(missing))
    grown = d.with_arc(a, b)
    fresh = Digraph(d.n, d.arcs | {(a, b)})
    assert grown == fresh
    # The masks were derived from d's; they must equal freshly built ones.
    assert grown.out_mask == fresh.out_mask
    assert grown.in_mask == fresh.in_mask


class TestWithArc:
    def test_leaves_the_parent_alone(self):
        d = directed_cycle(3)
        grown = d.with_arc(0, 2)
        assert grown.has_arc(0, 2) and not d.has_arc(0, 2)
        assert d.out_mask == (0b010, 0b100, 0b001)

    def test_rejects_bad_arcs(self):
        d = directed_cycle(3)
        with pytest.raises(LoopArc):
            d.with_arc(1, 1)
        with pytest.raises(DuplicateArc):
            d.with_arc(0, 1)
        with pytest.raises(VertexOutOfRange):
            d.with_arc(0, 3)


class TestUnderlyingGraph:
    def test_digon_collapses(self):
        g = underlying_graph(build_digraph(2, [(0, 1), (1, 0)]))
        assert g.edges == frozenset({(0, 1)})

    def test_figure1_gives_k5(self, fig1):
        g = underlying_graph(fig1)
        assert g.edge_count == 10
        assert all(g.degree(v) == 4 for v in range(5))

    def test_directed_c6_gives_c6(self):
        g = underlying_graph(directed_cycle(6))
        assert g.edge_count == 6
        assert all(g.degree(v) == 2 for v in range(6))


class TestStrongComponents:
    def test_directed_triangle_strong(self):
        assert is_strong(directed_cycle(3))

    def test_figure1_strong(self, fig1):
        assert is_strong(fig1)

    def test_single_arc_not_strong(self):
        d = build_digraph(2, [(0, 1)])
        assert not is_strong(d)

    def test_empty_digraph_not_strong(self):
        assert not is_strong(build_digraph(0, []))

    def test_single_vertex_strong(self):
        assert is_strong(build_digraph(1, []))


class TestContract:
    def test_contract_everything(self):
        d, pmap = contract(directed_cycle(3), {0, 1, 2})
        assert d.n == 1 and d.arc_count == 0
        assert pmap.of(0) == frozenset({0, 1, 2})

    def test_contract_two_of_triangle_gives_digon(self):
        # a=0 -> b=1 -> c=2 -> a; contracting {b, c} leaves a digon.
        tri = directed_cycle(3)
        d, pmap = contract(tri, {1, 2})
        assert d.n == 2
        assert d.arcs == frozenset({(0, 1), (1, 0)})
        assert pmap.of(1) == frozenset({1, 2})

    def test_contract_singleton_isomorphic(self):
        d, pmap = contract(directed_cycle(4), {2})
        assert d.n == 4 and d.arc_count == 4
        assert all(len(pmap.of(v)) == 1 for v in range(4))

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            contract(directed_cycle(3), set())

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRange):
            contract(directed_cycle(3), {5})


class TestInduced:
    def test_full_set_identity(self, fig1):
        d, corr = induced(fig1, range(5))
        assert d == fig1
        assert corr == (0, 1, 2, 3, 4)

    def test_figure1_on_first_three(self, fig1):
        d, corr = induced(fig1, {0, 1, 2})
        assert corr == (0, 1, 2)
        assert d.arcs == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_empty_set(self, fig1):
        d, corr = induced(fig1, set())
        assert d.n == 0 and corr == ()


class TestCycleSegment:
    def test_forward(self):
        c = DiCycle((0, 1, 2, 3))
        assert cycle_segment(c, 0, 2) == (0, 1, 2)

    def test_wraparound(self):
        c = DiCycle((0, 1, 2, 3))
        assert cycle_segment(c, 2, 0) == (2, 3, 0)

    def test_zero_length(self):
        c = DiCycle((0, 1, 2, 3))
        assert cycle_segment(c, 1, 1) == (1,)

    def test_not_on_cycle(self):
        with pytest.raises(NotOnCycle):
            cycle_segment(DiCycle((0, 1, 2)), 0, 5)


class TestPathAndCycleTypes:
    def test_digon_is_valid_cycle(self):
        c = DiCycle((0, 1))
        assert c.length == 2
        assert c.arcs() == ((0, 1), (1, 0))

    def test_cycle_needs_two_vertices(self):
        with pytest.raises(EmptySet):
            DiCycle((0,))

    def test_canonical_rotation(self):
        assert DiCycle((2, 0, 1)).canonical().vertices == (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(digraphs(), st.data())
def test_contract_arc_correspondence(d, data):
    if d.n < 2:
        return
    size = data.draw(st.integers(1, d.n))
    s = frozenset(data.draw(st.permutations(range(d.n)))[:size])
    c, pmap = contract(d, s)
    v_s = c.n - 1
    for t, h in c.arcs:
        if t != v_s and h != v_s:
            assert (min(pmap.of(t)), min(pmap.of(h))) in d.arcs
        elif t == v_s and h != v_s:
            assert any((w, min(pmap.of(h))) in d.arcs for w in s)
        elif h == v_s and t != v_s:
            assert any((min(pmap.of(t)), w) in d.arcs for w in s)
    # preimages partition the source vertex set
    union = set()
    for v in range(c.n):
        assert pmap.of(v)
        assert not (pmap.of(v) & union)
        union |= pmap.of(v)
    assert union == set(range(d.n))


@settings(max_examples=150, deadline=None)
@given(digraphs(min_n=2), st.data())
def test_contract_preserves_strongness(d, data):
    if not is_strong(d):
        return
    size = data.draw(st.integers(1, d.n))
    s = frozenset(data.draw(st.permutations(range(d.n)))[:size])
    sub, _ = induced(d, s)
    if not is_strong(sub):
        return
    c, _ = contract(d, s)
    assert is_strong(c)


@settings(max_examples=150, deadline=None)
@given(digraphs(), st.data())
def test_contract_underlying_never_grows(d, data):
    if d.n < 1:
        return
    size = data.draw(st.integers(1, d.n))
    s = frozenset(data.draw(st.permutations(range(d.n)))[:size])
    c, _ = contract(d, s)
    assert all(t != h for t, h in c.arcs)
    assert underlying_graph(c).edge_count <= underlying_graph(d).edge_count


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 9), st.data())
def test_cycle_segment_length_identity(n, data):
    c = DiCycle(tuple(range(n)))
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    if u == v:
        return
    # each segment has one arc fewer than vertices
    assert len(cycle_segment(c, u, v)) + len(cycle_segment(c, v, u)) == n + 2


class TestMaskStorage:
    """A digraph is stored as its masks; ``arcs`` is derived on first read."""

    @settings(max_examples=200, deadline=None)
    @given(digraphs(min_n=0, max_n=10))
    def test_from_masks_equals_the_arc_built_digraph(self, d):
        m = Digraph.from_masks(d.n, d.out_mask, d.in_mask)
        assert m == d and hash(m) == hash(d)
        assert m.arcs == d.arcs and m.arc_count == d.arc_count == len(d.arcs)

    @settings(max_examples=100, deadline=None)
    @given(digraphs(min_n=0, max_n=10))
    def test_pickle_round_trip(self, d):
        for x in (d, Digraph.from_masks(d.n, d.out_mask, d.in_mask)):
            back = pickle.loads(pickle.dumps(x))
            assert back == d and back.arcs == d.arcs

    @settings(max_examples=100, deadline=None)
    @given(digraphs(min_n=0, max_n=10))
    def test_reverse_turns_every_arc(self, d):
        r = reverse(d)
        assert r.arcs == {(h, t) for t, h in d.arcs}
        assert reverse(r) == d

    def test_assignment_raises(self):
        d = directed_cycle(3)
        with pytest.raises(AttributeError):
            d.n = 4
        with pytest.raises(AttributeError):
            del d.out_mask
        assert d.n == 3

    def test_equality_ignores_how_the_digraph_was_built(self):
        d = directed_cycle(4)
        assert d != reverse(d) and d != directed_cycle(5) and d != "C4"
        assert len({d, Digraph.from_masks(4, d.out_mask, d.in_mask)}) == 1

    def test_with_arc_and_reverse_build_no_arc_set(self):
        grown = directed_cycle(4).with_arc(0, 2)
        turned = reverse(grown)
        for d in (grown, turned):
            assert "arcs" not in vars(d)
        assert turned.arcs == {(1, 0), (2, 1), (3, 2), (0, 3), (2, 0)}
        assert "arcs" in vars(turned) and "arcs" not in vars(grown)
