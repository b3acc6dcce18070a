"""The strong shortcut and the spanning c(kk, 1) rule of exhaustive detection.

``find_two_block_cycle`` skips every reachability search on a strong
digraph, and ``_pair_search`` decides a pair whose region has
exactly kk + 1 vertices, with ll == 1, from the arc u->v and the first
spanning u->v path.  Both must leave every answer as the unpruned search
gives it: these tests compare them with the brute-force oracles, on every
labeled 5-tournament and on digraphs that are one reachability search away
from strong.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from twoblock.detection import (
    AbsenceReport,
    TwoBlockCertificate,
    _pair_search,
    find_two_block_cycle,
)
from twoblock.digraph import Digraph, build_digraph, is_strong, reverse
from twoblock.harness import _tournament

from oracles import (
    first_pair_search,
    oracle_two_block,
    oracle_two_disjoint_paths,
    oracle_verify_certificate,
    out_adjacency,
    reaches,
)


def test_every_spanning_c41_pair_of_5_tournaments_matches_oracle():
    # A pair whose region is all five vertices takes the spanning rule for
    # (kk, ll) = (4, 1); its answer must be the unpruned search's.
    full = 31
    pairs = hits = 0
    for bits in range(1 << 10):
        d = _tournament(5, bits)
        adj = out_adjacency(d)
        for u in range(5):
            for v in range(5):
                if u == v:
                    continue
                if not all(
                    reaches(adj, u, x, set(range(5)))
                    and reaches(adj, x, v, set(range(5)))
                    for x in range(5)
                ):
                    continue
                expected = first_pair_search(d, u, v, 4, 1)
                assert _pair_search(d, u, v, full, 4, 1) == expected
                pairs += 1
                hits += expected is not None
    assert (pairs, hits) == (12240, 3400)


class TestSpanningRule:
    def test_two_vertex_region_with_kk_1_has_no_pair(self):
        # kk = 1 is outside the rule: the only path is the arc itself.
        for d in (build_digraph(2, [(0, 1)]), build_digraph(2, [(0, 1), (1, 0)])):
            assert _pair_search(d, 0, 1, 0b11, 1, 1) is None

    def test_path_leaving_below_v_comes_first(self):
        d = build_digraph(3, [(0, 1), (1, 2), (0, 2)])
        assert _pair_search(d, 0, 2, 0b111, 2, 1) == ((0, 1, 2), (0, 2))

    def test_arc_comes_first_when_every_path_leaves_above_v(self):
        d = build_digraph(3, [(0, 2), (2, 1), (0, 1)])
        assert _pair_search(d, 0, 1, 0b111, 2, 1) == ((0, 1), (0, 2, 1))

    def test_no_pair_without_the_arc(self):
        d = build_digraph(3, [(0, 1), (1, 2)])
        assert _pair_search(d, 0, 2, 0b111, 2, 1) is None


@st.composite
def rooted_not_strong(draw, min_n: int = 2, max_n: int = 7) -> Digraph:
    """A digraph in which vertex 0 reaches every vertex and a nonempty set B
    of other vertices has no arc back out of B, so B does not reach 0."""
    n = draw(st.integers(min_n, max_n))
    b = draw(st.sets(st.integers(1, n - 1), min_size=1))
    arcs = set()
    for j in range(1, n):
        # An arc into j from an earlier vertex keeps 0 reaching all.
        parents = [i for i in range(j) if j in b or i not in b]
        arcs.add((draw(st.sampled_from(parents)), j))
    possible = [
        (i, j) for i in range(n) for j in range(n)
        if i != j and (j in b or i not in b)
    ]
    arcs |= draw(st.sets(st.sampled_from(possible)))
    return Digraph(n, frozenset(arcs))


def expected_pairs_checked(d: Digraph, k: int, ell: int) -> int:
    # The pairs that pass the reachability, size and Menger gates, from
    # plain set searches and the cut-vertex gate oracle.
    adj = out_adjacency(d)
    everything = set(range(d.n))
    need_interior = (max(k, ell) - 1) + (min(k, ell) - 1)
    count = 0
    for u in range(d.n):
        for v in range(d.n):
            if u == v or not reaches(adj, u, v, everything):
                continue
            region = [
                x for x in range(d.n)
                if reaches(adj, u, x, everything) and reaches(adj, x, v, everything)
            ]
            if len(region) - 2 < need_interior:
                continue
            mask = sum(1 << x for x in region)
            count += oracle_two_disjoint_paths(d, u, v, mask)
    return count


PARAMS = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (4, 1)]


@settings(max_examples=120, deadline=None)
@given(rooted_not_strong(), st.booleans())
def test_one_sided_reachability_matches_oracles(d, backward):
    # Vertex 0 reaches all but is not reached by all, or, reversed, the
    # other way round: the strong shortcut must not fire, and the lazy
    # reachability searches must give the oracle's verdicts and counts.
    if backward:
        d = reverse(d)
    full = (1 << d.n) - 1
    adj = out_adjacency(d)
    from_0 = sum(1 << x for x in range(d.n) if reaches(adj, 0, x, set(range(d.n))))
    to_0 = sum(1 << x for x in range(d.n) if reaches(adj, x, 0, set(range(d.n))))
    assert not is_strong(d)
    assert (to_0 if backward else from_0) == full
    assert (from_0 if backward else to_0) != full
    for k, ell in PARAMS:
        result = find_two_block_cycle(d, k, ell)
        assert isinstance(result, TwoBlockCertificate) == oracle_two_block(d, k, ell)
        if isinstance(result, TwoBlockCertificate):
            assert oracle_verify_certificate(d, result, k, ell)
        else:
            assert result == AbsenceReport(
                k, ell, "exhaustive", expected_pairs_checked(d, k, ell)
            )
