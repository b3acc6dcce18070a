from __future__ import annotations

import gc
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoblock import detection
from twoblock.detection import (
    AbsenceReport,
    CrossingException,
    TwoBlockCertificate,
    _pair_search,
    _paths,
    _two_disjoint_paths,
    _walks,
    crossing_chord_case,
    find_two_block_cycle,
    find_two_block_cycle_through_arc,
    hamiltonian_cycle,
    longest_cycle,
    verify_certificate,
)
from twoblock.coloring import chromatic_number
from twoblock.digraph import (
    DiCycle,
    DiPath,
    Digraph,
    build_digraph,
    is_strong,
    reach_mask,
    underlying_graph,
)
from twoblock.errors import (
    Acyclic,
    CapExceeded,
    NotAChord,
    PreconditionViolated,
    StructuralViolation,
)

from conftest import digraphs
from oracles import (
    all_cycles,
    all_simple_paths,
    cycles_through,
    oracle_longest_cycle_length,
    oracle_two_block,
    random_digraph,
    two_block_pairs,
)


def directed_cycle(n):
    return build_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def c5_with_chord():
    return build_digraph(5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 2)])


class TestFindTwoBlockCycle:
    def test_figure1_has_no_c41(self, fig1):
        result = find_two_block_cycle(fig1, 4, 1)
        assert isinstance(result, AbsenceReport)
        assert result.mode == "exhaustive"
        assert result.pairs_checked == 13

    def test_directed_cycle_never_has_one(self):
        d = directed_cycle(5)
        for k, ell in [(1, 1), (2, 1), (3, 2)]:
            assert isinstance(find_two_block_cycle(d, k, ell), AbsenceReport)

    def test_c5_chord_gives_certificate(self):
        d = c5_with_chord()
        cert = find_two_block_cycle(d, 2, 1)
        assert isinstance(cert, TwoBlockCertificate)
        assert cert.path_a.vertices == (0, 1, 2)
        assert cert.path_b.vertices == (0, 2)
        assert verify_certificate(d, cert, 2, 1)

    def test_bad_parameters(self, fig1):
        with pytest.raises(PreconditionViolated):
            find_two_block_cycle(fig1, 0, 1)

    def test_strict_cap(self):
        d = directed_cycle(13)
        with pytest.raises(CapExceeded):
            find_two_block_cycle(d, 2, 1, cap=12)

    def test_heuristic_mode_tags_capped(self):
        d = directed_cycle(13)
        result = find_two_block_cycle(d, 2, 1, cap=12, strict=False)
        assert isinstance(result, AbsenceReport)
        assert result.mode == "capped"

    def test_heuristic_mode_can_find(self):
        arcs = [(i, (i + 1) % 13) for i in range(13)] + [(0, 2)]
        d = build_digraph(13, arcs)
        result = find_two_block_cycle(d, 2, 1, cap=12, strict=False)
        assert isinstance(result, TwoBlockCertificate)
        assert verify_certificate(d, result, 2, 1)

    def test_digon_is_not_c11(self):
        d = build_digraph(2, [(0, 1), (1, 0)])
        assert isinstance(find_two_block_cycle(d, 1, 1), AbsenceReport)

    def test_pairs_checked_counts_searched_pairs(self, fig1):
        # Figure 1 is strong and every pair's region is all five vertices,
        # so exactly the pairs joined by two disjoint paths are searched.
        joined = sum(
            1
            for u in range(5)
            for v in range(5)
            if u != v and two_block_pairs(fig1, u, v)
        )
        assert joined == 13 < 5 * 4
        assert find_two_block_cycle(fig1, 4, 1).pairs_checked == joined
        assert find_two_block_cycle(directed_cycle(6), 1, 1).pairs_checked == 0

    def test_failed_verification_raises(self, monkeypatch):
        monkeypatch.setattr(detection, "verify_certificate", lambda *args: False)
        with pytest.raises(StructuralViolation):
            find_two_block_cycle(c5_with_chord(), 2, 1)
        with pytest.raises(StructuralViolation):
            find_two_block_cycle_through_arc(c5_with_chord(), 2, 1, (0, 2))

    def test_unfitting_path_pair_raises(self):
        with pytest.raises(StructuralViolation):
            detection._certificate(0, 2, (0, 2), (0, 1, 2), 3, 1)


def full_region(d, u, v):
    full = (1 << d.n) - 1
    return reach_mask(d.out_mask, u, full) & reach_mask(d.in_mask, v, full)


def gate(d, u, v):
    return _two_disjoint_paths(d.out_mask, d.in_mask, u, v, full_region(d, u, v))


class TestTwoDisjointPathsGate:
    def test_digon(self):
        d = build_digraph(2, [(0, 1), (1, 0)])
        assert not gate(d, 0, 1) and not gate(d, 1, 0)

    def test_direct_arc_plus_two_path(self):
        d = build_digraph(3, [(0, 1), (1, 2), (0, 2)])
        assert gate(d, 0, 2)
        assert not gate(d, 0, 1) and not gate(d, 1, 2)

    def test_lone_arc_is_one_path(self):
        assert not gate(build_digraph(2, [(0, 1)]), 0, 1)

    def test_theta_with_cut_vertex(self):
        # Two diamonds 0 => 3 => 6 in series: 3 separates 0 from 6.
        arcs = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)]
        d = build_digraph(7, arcs)
        assert gate(d, 0, 3) and gate(d, 3, 6)
        assert not gate(d, 0, 6)
        assert not gate(d, 1, 6)

    def test_unreachable(self):
        d = build_digraph(3, [(0, 1), (1, 2)])
        assert not gate(d, 2, 0)


@settings(max_examples=200, deadline=None)
@given(digraphs(min_n=2, max_n=6))
def test_gate_matches_oracle(d):
    for u in range(d.n):
        for v in range(d.n):
            if u != v:
                assert gate(d, u, v) == bool(two_block_pairs(d, u, v))


@settings(max_examples=100, deadline=None)
@given(digraphs(min_n=2, max_n=6))
def test_rejected_pairs_have_no_pair_search_result(d):
    n = d.n
    for u in range(n):
        for v in range(n):
            if u == v or gate(d, u, v):
                continue
            region = full_region(d, u, v)
            for kk in range(1, n):
                for ll in range(1, min(kk, n - kk) + 1):
                    assert _pair_search(d, u, v, region, kk, ll) is None


@settings(max_examples=150, deadline=None)
@given(digraphs(max_n=6), st.randoms(use_true_random=False))
def test_path_kernel_matches_oracle(d, rng):
    # Depth-first order with ascending neighbours is lexicographic order.
    full = (1 << d.n) - 1
    for u in range(d.n):
        for v in range(d.n):
            paths = all_simple_paths(d, u, v) if u != v else cycles_through(d, u)
            for min_len in range(d.n + 1):
                expected = sorted(p for p in paths if len(p) - 1 >= min_len)
                got = [
                    (*p, v) for p in _paths(d.out_mask, d.in_mask, u, v, full, min_len)
                ]
                assert got == expected
            shuffled = _paths(d.out_mask, d.in_mask, u, v, full, 0, rng=rng)
            assert sorted((*p, v) for p in shuffled) == sorted(paths)


def preorder_walks(adj, start, allowed):
    # Brute force: every vertex sequence from start that follows adj.  Tuple
    # order puts a path before its extensions, which is preorder.
    rest = [x for x in range(len(adj)) if (allowed >> x) & 1 and x != start]
    walks = [(start,)]
    for size in range(1, len(rest) + 1):
        for tail in permutations(rest, size):
            walk = (start, *tail)
            if all((adj[a] >> b) & 1 for a, b in zip(walk, walk[1:])):
                walks.append(walk)
    return sorted(walks)


@settings(max_examples=150, deadline=None)
@given(digraphs(max_n=6), st.data())
def test_walks_match_brute_force(d, data):
    start = data.draw(st.integers(0, d.n - 1))
    allowed = data.draw(st.integers(0, (1 << d.n) - 1)) | (1 << start)
    for adj in (d.out_mask, d.in_mask):
        got = []
        for walk, used in _walks(adj, start, allowed):
            assert used == sum(1 << x for x in walk)
            got.append(tuple(walk))
        assert got == preorder_walks(adj, start, allowed)


class TestIterativeSearches:
    def test_long_cycle_needs_no_recursion(self):
        d = directed_cycle(1200)
        assert hamiltonian_cycle(d, cap=1200).vertices == tuple(range(1200))
        assert longest_cycle(d, cap=1200).vertices == tuple(range(1200))

    def test_searches_leave_no_reference_cycles(self, fig1):
        calls = [
            lambda: find_two_block_cycle(fig1, 4, 1),
            lambda: find_two_block_cycle(fig1, 2, 1),
            lambda: find_two_block_cycle(fig1, 4, 1, cap=4, strict=False),
            lambda: find_two_block_cycle(fig1, 2, 1, cap=4, strict=False),
            lambda: find_two_block_cycle_through_arc(fig1, 4, 1, (0, 2)),
            lambda: find_two_block_cycle_through_arc(fig1, 2, 1, (0, 2)),
            lambda: longest_cycle(fig1),
            lambda: hamiltonian_cycle(fig1),
        ]
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                call()
                assert gc.collect() == 0
        finally:
            gc.enable()


# Heuristic certificates recorded from the recursive searches that the path
# kernel replaced: (graph seed, n, p, search seed, k, ell, budget, result).
# Any change to the RNG stream or to the budget accounting shows up here.
HEURISTIC_PINS = [
    (3, 9, 0.3, 3, 2, 1, 20000,
     {"u": 0, "v": 8, "path_a": [0, 1, 8], "path_b": [0, 6, 8]}),
    (11, 10, 0.3, 7, 3, 2, 20000,
     {"u": 4, "v": 3, "path_a": [4, 6, 2, 3], "path_b": [4, 7, 3]}),
    (17, 11, 0.25, 2, 4, 1, 20000,
     {"u": 0, "v": 7, "path_a": [0, 8, 10, 2, 6, 7], "path_b": [0, 9, 7]}),
    (17, 11, 0.25, 2, 4, 1, 6,
     {"u": 9, "v": 7, "path_a": [9, 5, 4, 0, 8, 7], "path_b": [9, 7]}),
    (23, 12, 0.35, 5, 3, 3, 20000,
     {"u": 6, "v": 5, "path_a": [6, 2, 10, 4, 5], "path_b": [6, 0, 8, 1, 3, 5]}),
    (23, 12, 0.35, 5, 3, 3, 6,
     {"u": 6, "v": 4, "path_a": [6, 2, 10, 4], "path_b": [6, 0, 8, 4]}),
]


@pytest.mark.parametrize("graph_seed,n,p,seed,k,ell,budget,expected", HEURISTIC_PINS)
def test_heuristic_certificates_are_pinned(
    monkeypatch, graph_seed, n, p, seed, k, ell, budget, expected
):
    d = random_digraph(random.Random(graph_seed), n, p)
    monkeypatch.setattr(detection, "_HEURISTIC_BUDGET", budget)
    got = find_two_block_cycle(d, k, ell, cap=n - 1, strict=False, seed=seed)
    assert got.to_json_dict() == {**expected, "k": k, "ell": ell}


class TestVerifyCertificate:
    def test_good_certificate(self):
        d = c5_with_chord()
        cert = TwoBlockCertificate(0, 2, DiPath((0, 1, 2)), DiPath((0, 2)), 2, 1)
        assert verify_certificate(d, cert, 2, 1)

    def test_shared_interior_rejected(self):
        d = build_digraph(4, [(0, 1), (1, 2), (0, 3), (3, 2), (1, 3)])
        cert = TwoBlockCertificate(0, 2, DiPath((0, 1, 2)), DiPath((0, 1, 3, 2)), 2, 1)
        assert not verify_certificate(d, cert, 2, 1)

    def test_short_path_rejected(self):
        d = c5_with_chord()
        cert = TwoBlockCertificate(0, 2, DiPath((0, 1, 2)), DiPath((0, 2)), 2, 2)
        assert not verify_certificate(d, cert, 2, 2)

    def test_identical_paths_rejected(self):
        d = build_digraph(2, [(0, 1)])
        cert = TwoBlockCertificate(0, 1, DiPath((0, 1)), DiPath((0, 1)), 1, 1)
        assert not verify_certificate(d, cert, 1, 1)

    def test_missing_arc_rejected(self):
        d = directed_cycle(5)
        cert = TwoBlockCertificate(0, 2, DiPath((0, 1, 2)), DiPath((0, 2)), 2, 1)
        assert not verify_certificate(d, cert, 2, 1)


class TestLongestCycle:
    def test_directed_cycle(self):
        assert longest_cycle(directed_cycle(7)).length == 7

    def test_figure1_length_5(self, fig1):
        cyc = longest_cycle(fig1)
        assert cyc.length == 5 == oracle_longest_cycle_length(fig1)

    def test_acyclic_raises(self):
        with pytest.raises(Acyclic):
            longest_cycle(build_digraph(3, [(0, 1), (1, 2)]))

    def test_tie_break_is_canonical_lex_least(self):
        # two disjoint triangles: (0,1,2) wins over (3,4,5)
        d = build_digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert longest_cycle(d).vertices == (0, 1, 2)

    def test_strict_cap(self):
        with pytest.raises(CapExceeded):
            longest_cycle(directed_cycle(21), cap=20)

    def test_matches_oracle_on_randoms(self):
        rng = random.Random(31)
        for _ in range(50):
            d = random_digraph(rng, rng.randint(2, 7), rng.choice([0.2, 0.35]))
            expected = oracle_longest_cycle_length(d)
            if expected is None:
                with pytest.raises(Acyclic):
                    longest_cycle(d)
            else:
                assert longest_cycle(d).length == expected

    def test_heuristic_returns_genuine_cycle(self):
        d = directed_cycle(25)
        cyc = longest_cycle(d, cap=20, strict=False)
        assert all(d.has_arc(t, h) for t, h in cyc.arcs())


class TestHamiltonianCycle:
    def test_directed_c4(self):
        assert hamiltonian_cycle(directed_cycle(4)) is not None

    def test_figure1_found(self, fig1):
        cyc = hamiltonian_cycle(fig1)
        assert cyc is not None and cyc.length == 5

    def test_star_absent(self):
        assert hamiltonian_cycle(build_digraph(3, [(0, 1), (0, 2)])) is None

    def test_matches_oracle_on_randoms(self):
        rng = random.Random(5)
        for _ in range(40):
            d = random_digraph(rng, rng.randint(2, 6), 0.4)
            cyc = hamiltonian_cycle(d)
            has_ham = any(len(c) == d.n for c in all_cycles(d))
            assert (cyc is not None) == has_ham
            if cyc is not None:
                assert len(cyc.vertices) == d.n
                assert all(d.has_arc(t, h) for t, h in cyc.arcs())


class TestCrossingChordCase:
    # cycle 0..7; u=0, x=2, v=4, y=6 gives |uCx|=2, |vCy|=2
    def _cycle(self, n=8):
        return DiCycle(tuple(range(n)))

    def _host(self, n, chord1, chord2):
        arcs = [(i, (i + 1) % n) for i in range(n)] + [chord1, chord2]
        return build_digraph(n, arcs)

    def test_forward_forward_certificate(self):
        c = self._cycle()
        out = crossing_chord_case(c, (0, 4), (2, 6), 3, 3)
        assert isinstance(out, TwoBlockCertificate)
        assert out.path_a.vertices == (0, 1, 2, 6)
        assert out.path_b.vertices == (0, 4, 5, 6)
        assert verify_certificate(self._host(8, (0, 4), (2, 6)), out, 3, 3)

    def test_exception_a(self):
        c = self._cycle()
        out = crossing_chord_case(c, (0, 4), (6, 2), 3, 3)
        assert isinstance(out, CrossingException) and out.case == "a"

    def test_exception_b(self):
        c = self._cycle()
        out = crossing_chord_case(c, (4, 0), (2, 6), 3, 3, u=0, v=4)
        assert isinstance(out, CrossingException) and out.case == "b"

    def test_backward_backward_certificate(self):
        c = self._cycle()
        out = crossing_chord_case(c, (4, 0), (6, 2), 3, 3, u=0, v=4)
        assert isinstance(out, TwoBlockCertificate)
        assert verify_certificate(self._host(8, (4, 0), (6, 2)), out, 3, 3)

    def test_no_exception_when_strict_inequalities(self):
        c = self._cycle()
        for chord1 in [(0, 4), (4, 0)]:
            for chord2 in [(2, 6), (6, 2)]:
                out = crossing_chord_case(c, chord1, chord2, 2, 2, u=0, v=4)
                assert isinstance(out, TwoBlockCertificate)
                assert verify_certificate(self._host(8, chord1, chord2), out, 2, 2)

    def test_cycle_arc_rejected(self):
        c = self._cycle()
        with pytest.raises(NotAChord):
            crossing_chord_case(c, (0, 1), (2, 6), 1, 1)

    def test_length_precondition(self):
        c = self._cycle()
        with pytest.raises(PreconditionViolated):
            crossing_chord_case(c, (0, 4), (2, 6), 4, 3)

    def test_non_crossing_rejected(self):
        # both chord2 endpoints inside the same segment: not a crossing
        c = self._cycle()
        with pytest.raises(PreconditionViolated):
            crossing_chord_case(c, (0, 4), (1, 3), 1, 1)


class TestThroughArcSearch:
    def test_agrees_with_full_detector_on_fresh_arcs(self):
        rng = random.Random(99)
        checked = 0
        while checked < 120:
            n = rng.randint(3, 6)
            d = random_digraph(rng, n, 0.3)
            k, ell = rng.randint(1, 3), rng.randint(1, 2)
            if oracle_two_block(d, k, ell):
                continue
            missing = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j and not d.has_arc(i, j)
            ]
            if not missing:
                continue
            arc = rng.choice(missing)
            bigger = Digraph(n, d.arcs | {arc})
            via_arc = find_two_block_cycle_through_arc(bigger, k, ell, arc)
            full = oracle_two_block(bigger, k, ell)
            assert (via_arc is not None) == full
            if via_arc is not None:
                assert verify_certificate(bigger, via_arc, k, ell)
            checked += 1


def test_exhaustive_detection_agrees_with_oracle_small():
    rng = random.Random(424242)
    pairs = [(k, ell) for k in range(1, 5) for ell in range(1, 5) if k + ell <= 5]
    for _ in range(120):
        d = random_digraph(rng, rng.randint(1, 5), 0.35)
        for k, ell in pairs:
            got = find_two_block_cycle(d, k, ell)
            expect = oracle_two_block(d, k, ell)
            assert isinstance(got, TwoBlockCertificate) == expect
            if isinstance(got, TwoBlockCertificate):
                assert verify_certificate(d, got, k, ell)


@settings(max_examples=120, deadline=None)
@given(digraphs(max_n=6), st.integers(1, 3), st.integers(1, 3))
def test_symmetry_in_k_and_ell(d, k, ell):
    a = find_two_block_cycle(d, k, ell)
    b = find_two_block_cycle(d, ell, k)
    assert isinstance(a, TwoBlockCertificate) == isinstance(b, TwoBlockCertificate)


@settings(max_examples=120, deadline=None)
@given(digraphs(max_n=6), st.integers(1, 3), st.integers(1, 3))
def test_monotonicity_of_certificates(d, k, ell):
    got = find_two_block_cycle(d, k, ell)
    if not isinstance(got, TwoBlockCertificate):
        return
    for kp in range(1, k + 1):
        for ellp in range(1, ell + 1):
            assert verify_certificate(d, got, kp, ellp) or verify_certificate(
                d,
                TwoBlockCertificate(
                    got.u, got.v, got.path_b, got.path_a, kp, ellp
                ),
                kp,
                ellp,
            )
            weaker = find_two_block_cycle(d, kp, ellp)
            assert isinstance(weaker, TwoBlockCertificate)


@settings(max_examples=60, deadline=None)
@given(digraphs(min_n=2, max_n=6))
def test_bondy_longest_cycle_vs_chi(d):
    if not is_strong(d):
        return
    chi, _ = chromatic_number(underlying_graph(d))
    assert longest_cycle(d).length >= chi
