from __future__ import annotations

import random

import pytest

from twoblock.coloring import (
    Coloring,
    chromatic_number,
    elimination_back_degree,
    is_proper,
)
from twoblock.detection import TwoBlockCertificate, verify_certificate
from twoblock.digraph import (
    DiCycle,
    Digraph,
    build_digraph,
    contract,
    cycle_segment,
    induced,
    underlying_graph,
)
from twoblock.errors import NotStrong, PreconditionViolated, StructuralViolation
from twoblock.harness import random_cycle_tree_free, random_strong_ckl_free
from twoblock.pipeline import (
    ContractionTrace,
    CycleTree,
    TraceStep,
    _build_cycle_tree,
    _uncontract_certificate,
    build_contraction_trace,
    class_palette_bound,
    color_F,
    color_strong_digraph,
    cycle_path,
    extract_cycle_tree,
    order_F1,
    palette_bound,
    phi_labeling,
    pipeline_report,
    run_pipeline,
    split_arcs,
    tree_path,
    validate_cycle_tree,
    validate_structure,
    validate_trace,
)

from oracles import order_f1_by_cycles


def directed_cycle(n):
    return build_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def figure_eight():
    # two directed triangles sharing vertex 2
    return build_digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])


def two_quads_shared_origin():
    # quad 0-1-2-3 and quad 0-4-5-6 glued at 0
    arcs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]
    return build_digraph(7, arcs)


def quad_tree() -> CycleTree:
    return _build_cycle_tree(7, [[0, 1, 2, 3], [0, 4, 5, 6]])


class TestBuildContractionTrace:
    def test_stops_immediately_when_colorable(self, fig1):
        trace = build_contraction_trace(fig1, 4, 1)
        assert not isinstance(trace, TwoBlockCertificate)
        assert len(trace.steps) == 0
        assert trace.final_coloring.palette_size == 5
        validate_trace(trace, deep=True)

    def test_c6_contracts_once(self):
        trace = build_contraction_trace(directed_cycle(6), 2, 1)
        assert len(trace.steps) == 1
        assert trace.steps[0].cycle.length == 6
        assert trace.final.n == 1
        validate_trace(trace, deep=True)

    def test_non_free_input_aborts_with_certificate(self):
        d = build_digraph(5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 2)])
        result = build_contraction_trace(d, 2, 1)
        assert isinstance(result, TwoBlockCertificate)
        assert verify_certificate(d, result, 2, 1)

    def test_not_strong_rejected(self):
        with pytest.raises(NotStrong):
            build_contraction_trace(build_digraph(3, [(0, 1), (1, 2)]), 2, 1)

    def test_parameter_range(self):
        with pytest.raises(PreconditionViolated):
            build_contraction_trace(directed_cycle(4), 1, 1)
        with pytest.raises(PreconditionViolated):
            build_contraction_trace(directed_cycle(4), 2, 3)

    def test_figure_eight_two_steps(self):
        trace = build_contraction_trace(figure_eight(), 2, 1)
        assert len(trace.steps) == 2
        assert trace.lengths() == (3, 3)
        validate_trace(trace, deep=True)


class TestDeepValidation:
    # Traces that pass every structural check but hold c(k, ell) at one
    # level; only the deep re-proof can reject them.

    def test_rejects_planted_level(self):
        # C5 plus the chord 0->2 holds c(2, 1); its Hamiltonian cycle
        # contracts to one vertex, which one colour colours.
        d = build_digraph(5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 2)])
        cycle = DiCycle(tuple(range(5)))
        final, pmap = contract(d, cycle.vertices)
        step = TraceStep(d, cycle, pmap, final.n - 1)
        trace = ContractionTrace(2, 1, (step,), final, Coloring((0,), 1), True)
        validate_trace(trace)
        with pytest.raises(StructuralViolation, match="level 0 contains"):
            validate_trace(trace, deep=True)

    def test_rejects_planted_final_level(self):
        # C5 plus the chord 0->3 holds c(3, 1) and is 3-colourable.
        d = build_digraph(5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 3)])
        trace = ContractionTrace(3, 1, (), d, Coloring((0, 1, 0, 1, 2), 3), True)
        validate_trace(trace)
        with pytest.raises(StructuralViolation, match="level 0 contains"):
            validate_trace(trace, deep=True)

    def test_rejects_cycle_that_is_not_longest(self):
        # A 4-cycle contracted while a 5-cycle exists.
        d = build_digraph(5, [(i, (i + 1) % 5) for i in range(5)] + [(3, 0)])
        cycle = DiCycle((0, 1, 2, 3))
        final, pmap = contract(d, cycle.vertices)
        step = TraceStep(d, cycle, pmap, final.n - 1)
        coloring = Coloring((0, 1), 2)
        trace = ContractionTrace(3, 1, (step,), final, coloring, True)
        validate_trace(trace)
        with pytest.raises(StructuralViolation, match="not longest"):
            validate_trace(trace, deep=True)


class TestCertificateLifting:
    def _step(self, d, cycle_vertices):
        nxt, pmap = contract(d, cycle_vertices)
        cyc = DiCycle(tuple(cycle_vertices)).canonical()
        return nxt, TraceStep(d, cyc, pmap, nxt.n - 1)

    def test_contracted_vertex_interior(self):
        d = build_digraph(
            6,
            [(0, 1), (1, 2), (2, 0), (3, 0), (2, 4), (3, 5), (5, 4), (3, 4)],
        )
        nxt, step = self._step(d, (0, 1, 2))
        cert = TwoBlockCertificate(0, 1, (0, 3, 1), (0, 1), 2, 1)
        assert verify_certificate(nxt, cert, 2, 1)
        lifted = _uncontract_certificate(cert, step, 2, 1)
        assert verify_certificate(d, lifted, 2, 1)
        assert lifted.path_a == (3, 0, 1, 2, 4)

    def test_contracted_vertex_source(self):
        # both certificate paths leave the contracted triangle
        d = build_digraph(
            6,
            [(0, 1), (1, 2), (2, 0), (1, 3), (3, 4), (2, 5), (5, 4), (2, 4)],
        )
        nxt, step = self._step(d, (0, 1, 2))
        # in nxt: 3->0, 4->1, 5->2, v_S=3; arcs (3,0),(0,1),(3,2),(2,1),(3,1)
        cert = TwoBlockCertificate(3, 1, (3, 0, 1), (3, 1), 2, 1)
        assert verify_certificate(nxt, cert, 2, 1)
        lifted = _uncontract_certificate(cert, step, 2, 1)
        assert verify_certificate(d, lifted, 2, 1)

    def test_contracted_vertex_sink(self):
        d = build_digraph(
            6,
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 0), (3, 5), (5, 1), (3, 1)],
        )
        nxt, step = self._step(d, (0, 1, 2))
        cert = TwoBlockCertificate(0, 3, (0, 1, 3), (0, 3), 2, 1)
        assert verify_certificate(nxt, cert, 2, 1)
        lifted = _uncontract_certificate(cert, step, 2, 1)
        assert verify_certificate(d, lifted, 2, 1)

    def test_lift_through_heuristic_trace(self):
        # oversized digraph with a planted c(2,1); capped heuristic negatives
        # let the builder contract, and the deep-level hit must lift cleanly
        arcs = [(i, (i + 1) % 16) for i in range(16)] + [(0, 2)]
        d = build_digraph(16, arcs)
        result = build_contraction_trace(d, 2, 1, detect_cap=6, strict=False)
        if isinstance(result, TwoBlockCertificate):
            assert verify_certificate(d, result, 2, 1)
        else:
            # heuristic mode may legitimately never spot it; the trace must
            # then still be structurally sound
            assert result.final_coloring.palette_size <= 1


class TestExtractCycleTree:
    def test_singleton_class(self, fig1):
        trace = build_contraction_trace(fig1, 4, 1)
        assert extract_cycle_tree(trace, 0) is None

    def test_single_cycle_tree(self):
        trace = build_contraction_trace(directed_cycle(6), 2, 1)
        tree = extract_cycle_tree(trace, 0)
        assert tree is not None
        assert len(tree.cycles) == 1
        assert tree.cycles[0].length == 6
        f, _ = induced(directed_cycle(6), range(6))
        validate_cycle_tree(f, tree, trace.lengths(), 2)

    def test_two_level_tree(self):
        d = figure_eight()
        trace = build_contraction_trace(d, 2, 1)
        tree = extract_cycle_tree(trace, 0)
        assert tree is not None
        assert len(tree.cycles) == 2
        assert tree.parent_cycle == (None, 0)
        f, corr = induced(d, trace.preimage_class(0))
        assert corr == (0, 1, 2, 3, 4)
        validate_cycle_tree(f, tree, trace.lengths(), 2)
        shared = set(tree.cycles[0].vertices) & set(tree.cycles[1].vertices)
        assert shared == {2}


class TestTreeAndCyclePaths:
    def test_single_cycle_tree_path_is_cycle_segment(self):
        tree = _build_cycle_tree(4, [[0, 1, 2, 3]])
        assert tree_path(tree, 1, 3) == cycle_segment(tree.cycles[0], 1, 3)

    def test_two_cycles_route_through_shared_vertex(self):
        tree = quad_tree()
        assert tree_path(tree, 1, 5) == (1, 2, 3, 0, 4, 5)

    def test_three_cycle_chain(self):
        tree = _build_cycle_tree(
            10, [[0, 1, 2, 3], [3, 4, 5, 6], [6, 7, 8, 9]]
        )
        assert cycle_path(tree, 0, 2) == (0, 1, 2)
        assert cycle_path(tree, 2, 0) == (2, 1, 0)
        assert tree.depth == (0, 1, 2)

    def test_zero_length_tree_path(self):
        tree = quad_tree()
        assert tree_path(tree, 5, 5) == (5,)


class TestPhiLabeling:
    def test_root_cycle_vertices_are_zero(self):
        f = two_quads_shared_origin()
        labels = phi_labeling(f, quad_tree(), 3)
        assert all(labels.labels[v] == 0 for v in (0, 1, 2, 3))

    def test_small_ell_forces_all_zero(self):
        f = two_quads_shared_origin()
        for ell in (1, 2):
            labels = phi_labeling(f, quad_tree(), ell)
            assert not any(labels.labels)

    def test_vertex_one_arc_before_parent_gets_one(self):
        f = two_quads_shared_origin()
        labels = phi_labeling(f, quad_tree(), 3)
        # 6 -> 0 closes the child quad, so |6 C 0| = 1 <= ell - 2
        assert labels.labels[6] == 1
        assert labels.labels[5] == 0 and labels.labels[4] == 0
        assert labels.home_cycle[6] == 1 and labels.home_cycle[0] == 0


class TestSplitArcs:
    def test_no_external_arcs_gives_empty_f2(self):
        f = two_quads_shared_origin()
        tree = quad_tree()
        split = split_arcs(f, tree, phi_labeling(f, tree, 3))
        assert split.f2_arcs == frozenset()
        assert split.f1_arcs == f.arcs

    def test_equal_labels_land_in_f1(self):
        base = two_quads_shared_origin()
        f = Digraph(7, base.arcs | {(1, 5)})  # labels 0 and 0
        tree = quad_tree()
        split = split_arcs(f, tree, phi_labeling(f, tree, 3))
        assert (1, 5) in split.f1_arcs

    def test_label_crossing_external_arc_lands_in_f2(self):
        base = two_quads_shared_origin()
        f = Digraph(7, base.arcs | {(1, 6)})  # labels 0 and 1
        tree = quad_tree()
        labels = phi_labeling(f, tree, 3)
        split = split_arcs(f, tree, labels)
        assert split.f2_arcs == frozenset({(1, 6)})
        # phi is a proper 2-coloring of the F2 side
        assert all(labels.labels[t] != labels.labels[h] for t, h in split.f2_arcs)


class TestValidateStructure:
    def test_no_external_arcs_vacuously_clean(self):
        f = two_quads_shared_origin()
        tree = quad_tree()
        split = split_arcs(f, tree, phi_labeling(f, tree, 3))
        diag = validate_structure(f, tree, split, 3, 3)
        assert diag["external_arcs"] == 0

    def test_injected_backward_path_violation(self):
        # arc (2, 5): |y T u| = |5 T 0| = 2 > ell - 2 = 1
        base = two_quads_shared_origin()
        f = Digraph(7, base.arcs | {(2, 5)})
        tree = quad_tree()
        labels = phi_labeling(f, tree, 3)
        split = split_arcs(f, tree, labels)
        with pytest.raises(StructuralViolation):
            validate_structure(f, tree, split, 3, 3)

    def test_external_arc_with_small_ell_flagged(self):
        base = two_quads_shared_origin()
        f = Digraph(7, base.arcs | {(1, 5)})
        tree = quad_tree()
        labels = phi_labeling(f, tree, 2)
        split = split_arcs(f, tree, labels)
        with pytest.raises(StructuralViolation):
            validate_structure(f, tree, split, 3, 2)

    def test_corpus_instances_validate_clean(self):
        for seed in range(6):
            d = random_cycle_tree_free(12, 3, 3, seed=seed, cap=13)
            run = run_pipeline(d, 3, 3, detect_cap=13)
            assert not isinstance(run, TwoBlockCertificate)
            for s in range(run.trace.final.n):
                klass = sorted(run.trace.preimage_class(s))
                if len(klass) == 1:
                    continue
                tree = extract_cycle_tree(run.trace, s)
                f, _ = induced(d, klass)
                labels = phi_labeling(f, tree, 3)
                split = split_arcs(f, tree, labels)
                validate_structure(f, tree, split, 3, 3)

    def test_f1_external_arc_reaches_comparability_check(self):
        # The one external arc stays in F1, so the comparability and
        # per-prefix degree checks run on it.
        d = random_cycle_tree_free(11, 3, 3, seed=6, cap=13)
        run = run_pipeline(d, 3, 3, detect_cap=13)
        assert run.class_members == (tuple(range(11)),)
        tree = extract_cycle_tree(run.trace, 0)
        f, _ = induced(d, run.class_members[0])
        split = split_arcs(f, tree, phi_labeling(f, tree, 3))
        assert validate_structure(f, tree, split, 3, 3) == {
            "external_arcs": 1,
            "f1_external_arcs": 1,
            "prefix_vertices_checked": 7,
        }


class TestOrderF1:
    def test_bare_cycle_bound_two(self):
        f1 = directed_cycle(6)
        order = order_F1(f1, 2, 1)
        assert order.bound <= 2 <= 2 + 2 * 1 - 2 + 2
        assert elimination_back_degree(underlying_graph(f1), order.order) <= 2

    def test_chorded_cycle_stays_within_ham_bound(self):
        d = random_strong_ckl_free(9, 3, 2, seed=4)
        order = order_F1(d, 3, 2)
        g = underlying_graph(d)
        assert elimination_back_degree(g, order.order) <= 3 + 2 - 1

    def test_cycle_by_cycle_construction_checks_out(self):
        f1 = two_quads_shared_origin()
        tree = quad_tree()
        order = order_f1_by_cycles(f1, tree, 3, 3)
        g = underlying_graph(f1)
        assert sorted(order) == list(range(7))
        assert elimination_back_degree(g, order) <= 3 + 2 * 3 - 2

    def test_corpus_orders_meet_lemma_bound(self):
        for seed in range(5):
            d = random_cycle_tree_free(12, 3, 2, seed=100 + seed, cap=13)
            run = run_pipeline(d, 3, 2, detect_cap=13)
            assert not isinstance(run, TwoBlockCertificate)
            for s in range(run.trace.final.n):
                klass = sorted(run.trace.preimage_class(s))
                if len(klass) == 1:
                    continue
                tree = extract_cycle_tree(run.trace, s)
                f, _ = induced(d, klass)
                labels = phi_labeling(f, tree, 2)
                split = split_arcs(f, tree, labels)
                f1 = Digraph(f.n, split.f1_arcs)
                order = order_F1(f1, 3, 2)
                assert (
                    elimination_back_degree(underlying_graph(f1), order.order)
                    <= 3 + 2 * 2 - 2
                )
                by_cycles = order_f1_by_cycles(f1, tree, 3, 2)
                assert (
                    elimination_back_degree(underlying_graph(f1), by_cycles)
                    <= 3 + 2 * 2 - 2
                )


class TestColorF:
    def test_singleton(self):
        assert color_F(Digraph(1, frozenset()), None, 2, 1).palette_size == 1

    def test_contracted_c6_two_colors(self):
        trace = build_contraction_trace(directed_cycle(6), 2, 1)
        tree = extract_cycle_tree(trace, 0)
        f, _ = induced(directed_cycle(6), range(6))
        coloring = color_F(f, tree, 2, 1)
        assert coloring.palette_size == 2 <= class_palette_bound(2, 1)
        assert is_proper(underlying_graph(f), coloring)

    def test_two_quads_with_crossing_arc(self):
        base = two_quads_shared_origin()
        f = Digraph(7, base.arcs | {(1, 6)})
        coloring = color_F(f, quad_tree(), 3, 3)
        assert is_proper(underlying_graph(f), coloring)
        assert coloring.palette_size <= class_palette_bound(3, 3)


class TestColorStrongDigraph:
    def test_c6(self):
        coloring = color_strong_digraph(directed_cycle(6), 2, 1)
        assert coloring.palette_size == 2
        assert palette_bound(2, 1) == 6

    def test_figure1(self, fig1):
        coloring = color_strong_digraph(fig1, 4, 1)
        assert coloring.palette_size == 5 <= palette_bound(4, 1) == 50
        assert is_proper(underlying_graph(fig1), coloring)

    def test_c5_chord_certificate(self):
        d = build_digraph(5, [(i, (i + 1) % 5) for i in range(5)] + [(0, 2)])
        result = color_strong_digraph(d, 2, 1)
        assert isinstance(result, TwoBlockCertificate)
        assert verify_certificate(d, result, 2, 1)

    def test_report_mentions_key_numbers(self):
        run = run_pipeline(directed_cycle(6), 2, 1)
        text = pipeline_report(run)
        assert "contraction steps (m): 1" in text
        assert "palette bound 6" in text

    def test_random_corpus_end_to_end(self):
        rng = random.Random(3)
        for _ in range(8):
            k = rng.choice([2, 3])
            ell = rng.randint(1, k)
            n = rng.randint(8, 12)
            gen = rng.choice([random_strong_ckl_free, random_cycle_tree_free])
            d = gen(n, k, ell, seed=rng.randint(0, 10**6), cap=13)
            run = run_pipeline(d, k, ell, detect_cap=13)
            assert not isinstance(run, TwoBlockCertificate)
            validate_trace(run.trace, deep=True)
            assert is_proper(underlying_graph(d), run.coloring)
            assert run.coloring.palette_size <= palette_bound(k, ell)
            chi, _ = chromatic_number(underlying_graph(d))
            assert chi <= run.coloring.palette_size


class TestDegenerateShapes:
    # digon-only and flower-shaped strong digraphs: every contracted cycle is
    # short and the preimage trees branch heavily

    def test_digon_chain(self):
        arcs = [a for i in range(5) for a in [(i, i + 1), (i + 1, i)]]
        d = build_digraph(6, arcs)
        run = run_pipeline(d, 2, 1)
        assert not isinstance(run, TwoBlockCertificate)
        assert run.trace.lengths() == (2, 2, 2, 2, 2)
        validate_trace(run.trace, deep=True)
        assert run.coloring.palette_size == 2

    def test_triangle_flower(self):
        arcs = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 0)]
        d = build_digraph(7, arcs)
        run = run_pipeline(d, 2, 2)
        assert not isinstance(run, TwoBlockCertificate)
        validate_trace(run.trace, deep=True)
        tree = extract_cycle_tree(run.trace, 0)
        assert tree is not None and len(tree.cycles) == 3
        assert run.coloring.palette_size <= palette_bound(2, 2)


class TestCycleTreeValidation:
    def test_tampered_tree_rejected(self):
        d = figure_eight()
        trace = build_contraction_trace(d, 2, 1)
        tree = extract_cycle_tree(trace, 0)
        f, _ = induced(d, trace.preimage_class(0))
        bad = CycleTree(
            tree.n,
            tree.cycles + (DiCycle((0, 1)),),
            tree.parent_cycle + (0,),
            tree.parent_vertex + (0,),
        )
        with pytest.raises(StructuralViolation):
            validate_cycle_tree(f, bad, trace.lengths(), 2)

    def test_wrong_length_rejected(self):
        trace = build_contraction_trace(directed_cycle(6), 2, 1)
        tree = extract_cycle_tree(trace, 0)
        f, _ = induced(directed_cycle(6), range(6))
        with pytest.raises(StructuralViolation):
            validate_cycle_tree(f, tree, (5,), 2)
