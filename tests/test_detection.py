from __future__ import annotations

import gc
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from twoblock import detection
from twoblock.detection import (
    AbsenceReport,
    CrossingException,
    TwoBlockCertificate,
    _dominators,
    _menger_gate,
    _pair_search,
    _paths,
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
    first_pair_search,
    oracle_dominators,
    oracle_longest_cycle_length,
    oracle_two_block,
    oracle_two_disjoint_paths,
    oracle_verify_certificate,
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
        assert cert.path_a == (0, 1, 2)
        assert cert.path_b == (0, 2)
        assert verify_certificate(d, cert, 2, 1)

    def test_bad_parameters(self, fig1):
        with pytest.raises(PreconditionViolated):
            find_two_block_cycle(fig1, 0, 1)

    def test_strict_cap(self, fig1, work_limit):
        # A directed cycle has no pair to search, so no limit can cut its
        # search short: above the cap strict mode still proves absence.
        result = find_two_block_cycle(directed_cycle(13), 2, 1, cap=12)
        assert result == AbsenceReport(2, 1, "exhaustive", 0)
        # One expansion per pair, or a single pair, cuts Figure 1's proof short.
        work_limit(1)
        with pytest.raises(CapExceeded, match="ran out of its work limit"):
            find_two_block_cycle(fig1, 4, 1, cap=4)
        work_limit(20000, tries=1)
        with pytest.raises(CapExceeded, match="ran out of its work limit"):
            find_two_block_cycle(fig1, 4, 1, cap=4)

    def test_heuristic_mode_tags_capped(self, fig1, work_limit):
        result = find_two_block_cycle(directed_cycle(13), 2, 1, cap=12, strict=False)
        assert result == AbsenceReport(2, 1, "exhaustive", 0)
        work_limit(1)
        result = find_two_block_cycle(fig1, 4, 1, cap=4, strict=False)
        assert result == AbsenceReport(4, 1, "capped", 13)
        work_limit(20000, tries=1)
        result = find_two_block_cycle(fig1, 4, 1, cap=4, strict=False)
        assert result == AbsenceReport(4, 1, "capped", 1)

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
            d = build_digraph(3, [(0, 1), (1, 2), (0, 2)])
            detection.certify(d, (0, 2), (0, 1, 2), 3, 1)


def full_region(d, u, v):
    full = (1 << d.n) - 1
    return reach_mask(d.out_mask, 1 << u, full) & reach_mask(d.in_mask, 1 << v, full)


def gate(d, u, v, region=None):
    # The Menger gate with the dominator sets taken inside ``region``.
    if region is None:
        region = full_region(d, u, v)
    dom = _dominators(d.out_mask, d.in_mask, u, region)
    return _menger_gate(d.out_mask, d.in_mask, u, v, region, dom)


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


def reaches(d, u, v, allowed, skip_arc=False):
    # Plain depth-first search over vertex sets; ``skip_arc`` ignores u->v.
    seen, stack = {u}, [u]
    while stack:
        x = stack.pop()
        for t, h in d.arcs:
            if t == x and h in allowed and h not in seen:
                if skip_arc and (t, h) == (u, v):
                    continue
                seen.add(h)
                stack.append(h)
    return v in seen


@settings(max_examples=300, deadline=None)
@given(digraphs(min_n=2, max_n=8), st.data())
def test_gate_matches_single_vertex_cut_check(d, data):
    u, v = data.draw(st.permutations(range(d.n)))[:2]
    region = data.draw(st.integers(0, (1 << d.n) - 1)) | (1 << u) | (1 << v)
    inside = {x for x in range(d.n) if (region >> x) & 1}
    if (u, v) in d.arcs:
        # The arc is one path; the other needs an interior vertex.
        expected = reaches(d, u, v, inside, skip_arc=True)
    else:
        expected = reaches(d, u, v, inside) and all(
            reaches(d, u, v, inside - {w}) for w in inside - {u, v}
        )
    assert gate(d, u, v, region) == expected


def random_region(d, data, *ends):
    return data.draw(st.integers(0, (1 << d.n) - 1)) | sum(1 << x for x in ends)


@settings(max_examples=300, deadline=None)
@given(digraphs(min_n=1, max_n=8), st.data())
def test_dominators_match_oracle(d, data):
    allowed = random_region(d, data)
    for u in range(d.n):
        got = _dominators(d.out_mask, d.in_mask, u, allowed | (1 << u))
        assert got == oracle_dominators(d, u, allowed | (1 << u))
        # Without u in ``allowed`` nothing is reached.
        assert _dominators(d.out_mask, d.in_mask, u, allowed & ~(1 << u)) == [0] * d.n


@settings(max_examples=300, deadline=None)
@given(digraphs(min_n=2, max_n=8), st.data())
def test_gate_matches_reference_gates(d, data):
    u, v = data.draw(st.permutations(range(d.n)))[:2]
    region = random_region(d, data, u, v)
    verdict = gate(d, u, v, region)
    assert verdict == oracle_two_disjoint_paths(d, u, v, region)
    if (u, v) not in d.arcs:
        dom = oracle_dominators(d, u, region)
        assert verdict == (dom[v] == (1 << u) | (1 << v))


@settings(max_examples=200, deadline=None)
@given(digraphs(min_n=2, max_n=8))
def test_gate_from_one_dominator_pass_per_source(d):
    # Detection takes u's dominators once, inside everything u reaches, and
    # reads them for every v: the u->v paths there are those of the region.
    full = (1 << d.n) - 1
    for u in range(d.n):
        reach_u = reach_mask(d.out_mask, 1 << u, full)
        dom = _dominators(d.out_mask, d.in_mask, u, reach_u)
        for v in range(d.n):
            if v != u and (reach_u >> v) & 1:
                region = full_region(d, u, v)
                got = _menger_gate(d.out_mask, d.in_mask, u, v, region, dom)
                assert got == gate(d, u, v)


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
@given(digraphs(max_n=6))
def test_path_kernel_matches_oracle(d):
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


@settings(max_examples=150, deadline=None)
@given(digraphs(min_n=2, max_n=7))
def test_exhaustive_pair_search_matches_oracle(d):
    # The first-step rule skips work only: the first pair in lexicographic
    # order, and its first second path, are those of the unpruned search.
    n = d.n
    for u in range(n):
        for v in range(n):
            if u == v or not gate(d, u, v):
                continue
            region = full_region(d, u, v)
            for kk in range(1, n):
                for ll in range(1, min(kk, n - kk) + 1):
                    expected = first_pair_search(d, u, v, kk, ll)
                    assert _pair_search(d, u, v, region, kk, ll) == expected


@settings(max_examples=200, deadline=None)
@given(digraphs(max_n=7), st.data())
def test_reach_mask_stop_matches_full_search(d, data):
    starts = data.draw(st.integers(0, (1 << d.n) - 1))
    allowed = data.draw(st.integers(0, (1 << d.n) - 1))
    stop = data.draw(st.integers(0, (1 << d.n) - 1))
    for adj in (d.out_mask, d.in_mask):
        full = reach_mask(adj, starts, allowed)
        part = reach_mask(adj, starts, allowed, stop)
        assert part & ~full == 0
        assert bool(part & stop) == bool(full & stop)


@settings(max_examples=200, deadline=None)
@given(digraphs(max_n=7), st.data())
def test_reach_mask_from_a_set_is_the_union_of_its_starts(d, data):
    starts = data.draw(st.integers(0, (1 << d.n) - 1))
    allowed = data.draw(st.integers(0, (1 << d.n) - 1))
    for adj in (d.out_mask, d.in_mask):
        union = 0
        for v in range(d.n):
            if (starts >> v) & 1:
                union |= reach_mask(adj, 1 << v, allowed)
        assert reach_mask(adj, starts, allowed) == union


class TestIterativeSearches:
    def test_long_cycle_needs_no_recursion(self):
        d = directed_cycle(1200)
        assert hamiltonian_cycle(d, cap=1200).vertices == tuple(range(1200))
        assert longest_cycle(d, cap=1200).vertices == tuple(range(1200))

    def test_long_oriented_cycle_through_arc(self):
        # The chord 2->0 and the 1,198-arc path 2 -> 3 -> ... -> 0 are the
        # only certificate through the chord, so c(2, 2) has none.
        d = Digraph(1200, directed_cycle(1200).arcs | {(2, 0)})
        cert = find_two_block_cycle_through_arc(d, 2, 1, (2, 0))
        assert (cert.u, cert.v) == (2, 0)
        assert cert.path_a == (*range(2, 1200), 0)
        assert cert.path_b == (2, 0)
        assert find_two_block_cycle_through_arc(d, 2, 2, (2, 0)) is None

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


def heuristic_above_cap(d, k, ell):
    """Heuristic detection above the cap, one below n."""
    return find_two_block_cycle(d, k, ell, cap=d.n - 1, strict=False)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(d=digraphs(min_n=0, max_n=8), k=st.integers(1, 4), ell=st.integers(1, 4))
def test_unbounded_heuristic_is_the_exhaustive_search(work_limit, d, k, ell):
    # Above the cap detection is the exhaustive pair loop under a budget, so
    # with limits past any need it gives the same answer, mode included.
    work_limit(10**12, tries=10**12)
    assert heuristic_above_cap(d, k, ell).to_json_dict() == (
        find_two_block_cycle(d, k, ell).to_json_dict()
    )


def test_unbounded_heuristic_on_figure1(fig1, work_limit):
    work_limit(10**12, tries=10**12)
    assert heuristic_above_cap(fig1, 4, 1).to_json_dict() == {
        "k": 4, "ell": 1, "mode": "exhaustive", "pairs_checked": 13
    }


# Heuristic results: (graph seed, n, p, k, ell, budget, result), with the
# cap one below n.  The budget-6 rows run out of budget, so a change to the
# budget accounting shows up here.
HEURISTIC_PINS = [
    (3, 9, 0.3, 2, 1, 20000,
     {"u": 0, "v": 1, "path_a": [0, 6, 8, 1], "path_b": [0, 1]}),
    (11, 10, 0.3, 3, 2, 20000,
     {"u": 1, "v": 2, "path_a": [1, 4, 6, 2], "path_b": [1, 7, 2]}),
    (17, 11, 0.25, 4, 1, 20000,
     {"u": 0, "v": 4, "path_a": [0, 8, 10, 2, 6, 7, 4], "path_b": [0, 9, 5, 4]}),
    (17, 11, 0.25, 4, 1, 6,
     {"u": 0, "v": 8, "path_a": [0, 9, 5, 4, 8], "path_b": [0, 8]}),
    (23, 12, 0.35, 3, 3, 20000,
     {"u": 0, "v": 1, "path_a": [0, 4, 8, 1],
      "path_b": [0, 9, 6, 2, 10, 7, 3, 11, 1]}),
    (23, 12, 0.35, 3, 3, 6,
     {"u": 2, "v": 0, "path_a": [2, 9, 6, 0], "path_b": [2, 10, 4, 0]}),
]


@pytest.mark.parametrize("graph_seed,n,p,k,ell,budget,expected", HEURISTIC_PINS)
def test_heuristic_certificates_are_pinned(
    monkeypatch, graph_seed, n, p, k, ell, budget, expected
):
    d = random_digraph(random.Random(graph_seed), n, p)
    monkeypatch.setattr(detection, "_HEURISTIC_BUDGET", budget)
    got = find_two_block_cycle(d, k, ell, cap=n - 1, strict=False)
    assert got.to_json_dict() == {**expected, "k": k, "ell": ell}


class TestVerifyCertificate:
    def test_good_certificate(self):
        d = c5_with_chord()
        cert = TwoBlockCertificate(0, 2, (0, 1, 2), (0, 2), 2, 1)
        assert verify_certificate(d, cert, 2, 1)

    def test_shared_interior_rejected(self):
        d = build_digraph(4, [(0, 1), (1, 2), (0, 3), (3, 2), (1, 3)])
        cert = TwoBlockCertificate(0, 2, (0, 1, 2), (0, 1, 3, 2), 2, 1)
        assert not verify_certificate(d, cert, 2, 1)

    def test_short_path_rejected(self):
        d = c5_with_chord()
        cert = TwoBlockCertificate(0, 2, (0, 1, 2), (0, 2), 2, 2)
        assert not verify_certificate(d, cert, 2, 2)

    def test_identical_paths_rejected(self):
        d = build_digraph(2, [(0, 1)])
        cert = TwoBlockCertificate(0, 1, (0, 1), (0, 1), 1, 1)
        assert not verify_certificate(d, cert, 1, 1)

    def test_missing_arc_rejected(self):
        d = directed_cycle(5)
        cert = TwoBlockCertificate(0, 2, (0, 1, 2), (0, 2), 2, 1)
        assert not verify_certificate(d, cert, 2, 1)

    def test_repeated_vertex_rejected(self):
        # Every arc of the walk 0 1 2 1 3 exists; only simplicity fails.
        d = build_digraph(4, [(0, 1), (1, 2), (2, 1), (1, 3), (0, 3)])
        walk = (0, 1, 2, 1, 3)
        cert = TwoBlockCertificate(0, 3, walk, (0, 3), 2, 1)
        assert not verify_certificate(d, cert, 2, 1)
        assert not oracle_verify_certificate(d, cert, 2, 1)

    def test_negative_vertices_rejected(self):
        d = c5_with_chord()
        for p, q, u, v in [
            ((0, -1, 2), (0, 2), 0, 2),
            ((-5, 1, 2), (-5, 2), -5, 2),
            ((0, 1, 2), (0, -3, 2), 0, 2),
            ((0, 1, -3), (0, -3), 0, -3),
        ]:
            cert = TwoBlockCertificate(u, v, p, q, 1, 1)
            assert not verify_certificate(d, cert, 1, 1)

    def test_vertices_beyond_n_rejected(self):
        d = c5_with_chord()
        for p, q, u, v in [
            ((0, 5, 2), (0, 2), 0, 2),
            ((0, 1, 2), (0, 9, 2), 0, 2),
            ((7, 1, 2), (7, 2), 7, 2),
        ]:
            cert = TwoBlockCertificate(u, v, p, q, 1, 1)
            assert not verify_certificate(d, cert, 1, 1)


def mutants(d, cert):
    # Single-vertex mutations of a valid certificate, each with the digraph,
    # k and ell to check it against.
    p, q = cert.path_a, cert.path_b
    u, v, k, ell = cert.u, cert.v, cert.k_req, cert.ell_req

    def with_paths(pp, qq, uu=u, vv=v):
        return TwoBlockCertificate(uu, vv, pp, qq, k, ell)

    def with_middle(x):
        # The path with an interior vertex has its middle vertex set to x.
        if len(p) > 2:
            i = len(p) // 2
            return with_paths((*p[:i], x, *p[i + 1 :]), q)
        i = len(q) // 2
        return with_paths(p, (*q[:i], x, *q[i + 1 :]))

    yield "repeated vertex", d, with_middle(u), k, ell
    for bad in (-1, d.n):
        yield "out-of-range vertex", d, with_middle(bad), k, ell
        yield "out-of-range vertex", d, with_paths(p, q, bad, v), k, ell
    yield "swapped endpoints", d, with_paths(p, q, v, u), k, ell
    if len(p) > 2 and len(q) > 2:
        shared = (q[0], p[1], *q[2:])
        yield "shared interior vertex", d, with_paths(p, shared), k, ell
    yield "path too short", d, cert, len(p), ell
    yield "path too short", d, cert, k, len(q)
    for t, h in zip(p, p[1:]):
        yield "missing arc", Digraph(d.n, d.arcs - {(t, h)}), cert, k, ell
    yield "identical paths", d, with_paths(p, p), k, min(ell, len(p) - 1)


def test_verifier_matches_oracle_on_certificates_and_mutants():
    rng = random.Random(2024)
    valid = rejected = 0
    for _ in range(150):
        d = random_digraph(rng, rng.randint(3, 7), rng.choice([0.3, 0.5]))
        for u in range(d.n):
            for v in range(d.n):
                paths = all_simple_paths(d, u, v) if u != v else []
                for p in paths:
                    for q in paths:
                        if p == q or set(p[1:-1]) & set(q[1:-1]):
                            continue
                        k = rng.randint(1, len(p) - 1)
                        ell = rng.randint(1, len(q) - 1)
                        cert = TwoBlockCertificate(u, v, p, q, k, ell)
                        assert verify_certificate(d, cert, k, ell)
                        assert oracle_verify_certificate(d, cert, k, ell)
                        valid += 1
                        for what, dd, bad, kk, ll in mutants(d, cert):
                            assert not oracle_verify_certificate(dd, bad, kk, ll), what
                            assert not verify_certificate(dd, bad, kk, ll), what
                            rejected += 1
    assert valid > 500 and rejected > 5000


@settings(max_examples=300, deadline=None)
@given(digraphs(min_n=2, max_n=6), st.data())
def test_verifier_matches_oracle_on_random_vertex_tuples(d, data):
    vertex = st.integers(-2, d.n + 1)
    p = data.draw(st.lists(vertex, min_size=1, max_size=d.n + 1))
    q = data.draw(st.lists(vertex, min_size=1, max_size=d.n + 1))
    u, v = data.draw(vertex), data.draw(vertex)
    k, ell = data.draw(st.integers(0, d.n)), data.draw(st.integers(0, d.n))
    cert = TwoBlockCertificate(u, v, tuple(p), tuple(q), k, ell)
    assert verify_certificate(d, cert, k, ell) == oracle_verify_certificate(
        d, cert, k, ell
    )


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

    def test_strict_cap(self, work_limit):
        # The first cycle through a start is searched without a budget, so a
        # 21-cycle is proved longest above the cap of 20.
        assert longest_cycle(directed_cycle(21), cap=20).length == 21
        # Reversed and with the chord 0 -> 2, the first cycle is the triangle
        # (0, 2, 1), and the search for a longer one spends the budget.
        d = build_digraph(21, [(i, (i - 1) % 21) for i in range(21)] + [(0, 2)])
        assert longest_cycle(d, cap=20).vertices == (0, *range(20, 0, -1))
        work_limit(1)
        with pytest.raises(CapExceeded, match="ran out of its work limit"):
            longest_cycle(d, cap=20)
        assert longest_cycle(d, cap=20, strict=False).vertices == (0, 2, 1)

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
        assert out.path_a == (0, 1, 2, 6)
        assert out.path_b == (0, 4, 5, 6)
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


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(digraphs(max_n=7), st.integers(1, 3), st.integers(1, 3))
def test_through_arc_matches_oracle_on_every_missing_arc(d, k, ell):
    # On a free digraph a new c(k, ell) must use the new arc, so the
    # arc-anchored verdict is the oracle's verdict on the larger digraph.
    assume(not oracle_two_block(d, k, ell))
    for arc in ((t, h) for t in range(d.n) for h in range(d.n)):
        if arc[0] == arc[1] or arc in d.arcs:
            continue
        bigger = Digraph(d.n, d.arcs | {arc})
        cert = find_two_block_cycle_through_arc(bigger, k, ell, arc)
        assert (cert is not None) == oracle_two_block(bigger, k, ell)
        if cert is not None:
            assert oracle_verify_certificate(bigger, cert, k, ell)
            p, q = cert.path_a, cert.path_b
            assert arc in [*zip(p, p[1:]), *zip(q, q[1:])]


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
