from __future__ import annotations

import json
import random
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings

from twoblock import harness
from twoblock.coloring import chromatic_number
from twoblock.detection import AbsenceReport, find_two_block_cycle, hamiltonian_cycle
from twoblock.digraph import Digraph, build_digraph, is_strong, underlying_graph
from twoblock.errors import (
    CapExceeded,
    LoopArc,
    PreconditionViolated,
    StructuralViolation,
    VertexOutOfRange,
)
from twoblock.harness import (
    InstanceRecord,
    audit_bondy,
    audit_bw_claim,
    canonical_form,
    decode_arcs_hex,
    encode_arcs_hex,
    random_cycle_tree_free,
    random_hamiltonian_min_degree,
    random_strong_ckl_free,
    random_strong_digraph,
    search_problem1,
    tournament_classes,
    write_records,
)

from conftest import digraphs
from oracles import (
    _reference_refine,
    canonical_form_brute,
    canonical_form_reference,
    random_digraph,
)


def record_from_json_line(line: str) -> InstanceRecord:
    data = json.loads(line)
    return InstanceRecord(
        data["instance_id"],
        data["seed"],
        data["vertex_count"],
        data["arcs_hex"],
        data["tags"],
        data["properties"],
    )

# OEIS A000568 (tournaments on n vertices up to isomorphism) and A051337
# (the strong ones), n = 1..7.
CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56, 7: 456}
STRONG_CLASS_COUNTS = {1: 1, 2: 0, 3: 1, 4: 1, 5: 6, 6: 35, 7: 353}


def test_sprinkle_makes_one_arc_anchored_call_per_candidate(monkeypatch):
    # The benchmark's per-layer figures for arc-anchored detection count
    # these calls: one per candidate arc, none hidden behind another entry.
    calls = []
    real = harness.find_two_block_cycle_through_arc

    def counting(d, k, ell, arc):
        calls.append(arc)
        return real(d, k, ell, arc)

    monkeypatch.setattr(harness, "find_two_block_cycle_through_arc", counting)
    n = 9
    base = {(i, (i + 1) % n) for i in range(n)}
    d = harness._sprinkle_chords(n, 3, 2, set(base), random.Random(7), 12)
    non_arcs = {(i, j) for i in range(n) for j in range(n) if i != j} - base
    assert len(calls) == len(non_arcs) == len(set(calls))
    assert set(calls) == non_arcs
    assert base < d.arcs
    calls.clear()
    random_strong_ckl_free(8, 3, 1, seed=11)
    assert len(calls) == 8 * 7 - 8


def same_partition(digraphs, form_a, form_b) -> bool:
    """Whether two canonical forms split ``digraphs`` into the same classes."""
    pairs = {(form_a(d), form_b(d)) for d in digraphs}
    return len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


class TestEncoding:
    def test_round_trip_random(self):
        rng = random.Random(0)
        for _ in range(50):
            d = random_digraph(rng, rng.randint(1, 8), 0.4)
            assert decode_arcs_hex(d.n, encode_arcs_hex(d)) == d

    def test_record_round_trip(self, fig1):
        rec = InstanceRecord(
            "x-1", 7, 5, encode_arcs_hex(fig1), {"strong": True}, {"chi": 5}
        )
        back = record_from_json_line(rec.to_json_line())
        assert back == rec
        assert back.digraph() == fig1

    def test_round_trip_every_digraph_on_4_vertices(self):
        off_diagonal = [t * 4 + h for t in range(4) for h in range(4) if t != h]
        seen = set()
        for pattern in range(1 << 12):
            bits = sum(1 << p for i, p in enumerate(off_diagonal) if pattern >> i & 1)
            d = decode_arcs_hex(4, format(bits, "x"))
            assert d.arc_count == pattern.bit_count()
            assert int(encode_arcs_hex(d), 16) == bits
            assert harness._from_bits(4, bits) == d
            seen.add(d)
        assert len(seen) == 4096

    @settings(max_examples=200, deadline=None)
    @given(digraphs(min_n=0, max_n=10))
    def test_from_bits_inverts_the_encoding(self, d):
        assert harness._from_bits(d.n, int(encode_arcs_hex(d), 16)) == d

    def test_loop_bit_raises(self):
        with pytest.raises(LoopArc):
            decode_arcs_hex(3, "1")
        with pytest.raises(LoopArc):
            decode_arcs_hex(3, "100")

    def test_bit_beyond_the_matrix_raises(self):
        with pytest.raises(VertexOutOfRange):
            decode_arcs_hex(2, "fff")
        with pytest.raises(VertexOutOfRange):
            decode_arcs_hex(2, "10")
        with pytest.raises(VertexOutOfRange):
            decode_arcs_hex(0, "1")


def labeled_tournaments(n: int) -> list[Digraph]:
    """All labeled n-tournaments, in bitmask order."""
    return [harness._tournament(n, bits) for bits in range(1 << n * (n - 1) // 2)]


def class_representatives(n: int) -> list[Digraph]:
    """The least bit pattern among the members of each tournament class."""
    patterns = sorted(harness._members(d)[0][0] for d in tournament_classes(n))
    return [harness._tournament(n, bits) for bits in patterns]


class TestEnumerateTournaments:
    def test_tournament_equals_the_arc_built_one(self):
        for n in range(1, 6):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for bits in range(1 << len(pairs)):
                arcs = frozenset(
                    (i, j) if bits >> idx & 1 else (j, i)
                    for idx, (i, j) in enumerate(pairs)
                )
                d = harness._tournament(n, bits)
                assert d == Digraph(n, arcs) and d.arcs == arcs

    def test_no_arc_set_is_built_until_read(self):
        built = [harness._tournament(6, 12345), *tournament_classes(6)]
        assert all("arcs" not in vars(d) for d in built)
        assert built[0].arc_count == 15 and "arcs" not in vars(built[0])
        assert len(built[0].arcs) == 15 and "arcs" in vars(built[0])

    def test_counts_n3(self):
        all_t = labeled_tournaments(3)
        assert len(set(all_t)) == 8
        assert len({canonical_form(d) for d in all_t}) == 2

    def test_counts_n5(self):
        assert len({d.arcs for d in labeled_tournaments(5)}) == 1024

    def test_every_output_is_a_tournament(self):
        for d in labeled_tournaments(4):
            g = underlying_graph(d)
            assert g.edge_count == 6 and d.arc_count == 6

    def test_masks_built_with_the_arcs_match_fresh_ones(self):
        for d in labeled_tournaments(5):
            fresh = Digraph(d.n, d.arcs)
            assert d.out_mask == fresh.out_mask
            assert d.in_mask == fresh.in_mask

    def test_exactly_one_strong_4_tournament_class(self):
        strong_classes = {
            canonical_form(d)
            for d in labeled_tournaments(4)
            if is_strong(d)
        }
        assert len(strong_classes) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_dedup_keeps_first_of_each_brute_force_class(self, n):
        labeled = labeled_tournaments(n)
        assert same_partition(labeled, canonical_form, canonical_form_brute)
        first: dict[int, Digraph] = {}
        for d in labeled:
            first.setdefault(canonical_form_brute(d), d)
        assert class_representatives(n) == list(first.values())

    def test_dedup_n6_gives_one_tournament_per_class(self):
        reps = class_representatives(6)
        assert len(reps) == 56
        assert len({canonical_form(d) for d in reps}) == 56


def all_digraphs(n: int) -> list[Digraph]:
    """All labeled digraphs on ``n`` vertices."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return [
        Digraph(n, frozenset(arc for i, arc in enumerate(pairs) if (bits >> i) & 1))
        for bits in range(1 << len(pairs))
    ]


class TestCanonicalForm:
    def test_all_4_vertex_digraphs_match_brute_force(self):
        assert same_partition(all_digraphs(4), canonical_form, canonical_form_brute)

    def test_null_digraph(self):
        assert canonical_form(Digraph(0, frozenset())) == 0

    @pytest.mark.parametrize("n", sorted(CLASS_COUNTS))
    def test_class_counts_match_oeis(self, n):
        classes = tournament_classes(n)
        assert len(classes) == CLASS_COUNTS[n]
        assert sum(is_strong(d) for d in classes) == STRONG_CLASS_COUNTS[n]
        forms = [canonical_form(d) for d in classes]
        assert forms == sorted(set(forms))
        assert forms == [int(encode_arcs_hex(d), 16) for d in classes]
        assert all(d.arc_count == n * (n - 1) // 2 for d in classes)

    def test_class_range(self):
        with pytest.raises(CapExceeded):
            tournament_classes(9)
        with pytest.raises(PreconditionViolated):
            tournament_classes(0)


class TestCanonicalFormValues:
    """``canonical_form`` gives the very integer of the tuple-keyed reference
    search, not only the same classes: class labels, ``search`` and
    ``bw-audit`` rows are built from these values."""

    def test_all_4_vertex_digraphs(self):
        for d in all_digraphs(4):
            assert canonical_form(d) == canonical_form_reference(d), d

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_every_labeled_tournament(self, n):
        for d in labeled_tournaments(n):
            assert canonical_form(d) == canonical_form_reference(d), d

    def test_class_representatives_n6(self):
        reps = class_representatives(6)
        assert len(reps) == 56
        for d in reps:
            assert canonical_form(d) == canonical_form_reference(d), d

    def test_random_9_tournaments(self):
        rng = random.Random(9)
        for _ in range(200):
            d = harness._tournament(9, rng.getrandbits(36))
            assert canonical_form(d) == canonical_form_reference(d), d

    @settings(max_examples=150, deadline=None)
    @given(digraphs(min_n=0, max_n=10))
    def test_random_digraphs(self, d):
        # Without automorphism pruning the search visits up to the product
        # of (cell size)! leaves of the root partition; keep that small.
        root = _reference_refine(d.out_mask, d.in_mask, [list(range(d.n))])
        assume(prod(factorial(len(c)) for c in root) <= 720)
        assert canonical_form(d) == canonical_form_reference(d)

    def test_counts_wider_than_five_bits(self):
        # A transitive 40-tournament with three arcs reversed: out-counts up
        # to 39 need six bits per key field, and the ties the reversals make
        # are split by refinement alone, so the reference needs no branching.
        n = 40
        arcs = {(i, j) for i in range(n) for j in range(i + 1, n)}
        for i, j in [(0, 39), (2, 20), (17, 37)]:
            arcs.symmetric_difference_update({(i, j), (j, i)})
        d = Digraph(n, frozenset(arcs))
        root = _reference_refine(d.out_mask, d.in_mask, [list(range(n))])
        assert len(root) == n
        assert canonical_form(d) == canonical_form_reference(d)


class TestRandomGenerators:
    def test_strong_ckl_free_postconditions(self):
        d = random_strong_ckl_free(6, 3, 2, seed=1)
        assert is_strong(d)
        report = find_two_block_cycle(d, 3, 2)
        assert isinstance(report, AbsenceReport) and report.mode == "exhaustive"

    def test_k1_rejected(self):
        with pytest.raises(PreconditionViolated):
            random_strong_ckl_free(5, 1, 1, seed=0)

    def test_k2_ell1_admits_no_chords(self):
        # every chord on a directed cycle creates c(2,1)
        for seed in range(5):
            d = random_strong_ckl_free(7, 2, 1, seed=seed)
            assert d.arc_count == 7

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_k2_ell1_gives_the_bare_cycle(self, n):
        d = random_strong_ckl_free(n, 2, 1, seed=3)
        assert d.arc_count == n

    def test_deterministic_per_seed(self):
        a = random_strong_ckl_free(8, 3, 2, seed=42)
        b = random_strong_ckl_free(8, 3, 2, seed=42)
        assert a == b
        assert a != random_strong_ckl_free(8, 3, 2, seed=43)

    def test_cycle_tree_generator(self):
        d = random_cycle_tree_free(11, 3, 2, seed=3)
        assert is_strong(d)
        assert isinstance(find_two_block_cycle(d, 3, 2), AbsenceReport)

    def test_min_degree_generator(self):
        d = random_hamiltonian_min_degree(8, 4, seed=9)
        assert hamiltonian_cycle(d) is not None
        assert all(d.underlying_degree(v) >= 4 for v in range(8))

    @pytest.mark.parametrize("n", [0, 1])
    def test_min_degree_generator_needs_two_vertices(self, n):
        # one vertex would need the loop 0 -> 0 as its Hamiltonian cycle
        with pytest.raises(PreconditionViolated):
            random_hamiltonian_min_degree(n, 0, seed=0)
        digon = random_hamiltonian_min_degree(2, 1, seed=0)
        assert hamiltonian_cycle(digon) is not None

    def test_random_strong(self):
        assert is_strong(random_strong_digraph(7, seed=5))


class TestSearchProblem1:
    def test_n5_contains_figure1_class(self, fig1):
        hits = search_problem1(5)
        assert hits
        fig1_class = canonical_form(fig1)
        matching = [
            r for r in hits if canonical_form(r.digraph()) == fig1_class
        ]
        assert matching
        assert any(not r.properties["two_block"]["4,1"] for r in matching)

    def test_n5_reports_every_pair(self):
        hits = search_problem1(5)
        assert len(hits) == 40
        for rec in hits:
            assert set(rec.properties["two_block"]) == {"1,4", "2,3", "3,2", "4,1"}
            assert rec.properties["chi"] == 5

    def test_n6_has_no_hits(self):
        assert search_problem1(6) == []

    def test_member_disagreeing_with_its_class_is_an_internal_error(
        self, monkeypatch
    ):
        monkeypatch.setattr(harness, "_evaluate_tournament", lambda n, bits: None)
        with pytest.raises(StructuralViolation):
            search_problem1(5)

    def test_range_check(self):
        with pytest.raises(PreconditionViolated):
            search_problem1(3)
        with pytest.raises(CapExceeded):
            search_problem1(9)

    def test_records_reverify(self):
        hits = search_problem1(5)
        assert hits
        for rec in hits:
            d = rec.digraph()
            assert is_strong(d) == rec.tags["strong"]
            chi, _ = chromatic_number(underlying_graph(d))
            assert chi == rec.properties["chi"]
            for pair, verdict in rec.properties["two_block"].items():
                k, ell = map(int, pair.split(","))
                found = find_two_block_cycle(d, k, ell)
                assert (not isinstance(found, AbsenceReport)) == verdict

    def test_write_records_sorted_and_stable(self, tmp_path):
        hits = search_problem1(5)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records(hits, str(out1))
        write_records(reversed(hits), str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_pool_output_is_byte_stable(self, tmp_path):
        serial = search_problem1(5, workers=1)
        pooled = search_problem1(5, workers=2)
        assert len(serial) == 40
        out1, out2 = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        write_records(serial, str(out1))
        write_records(pooled, str(out2))
        assert out1.read_bytes() == out2.read_bytes()


class TestAudits:
    def test_bondy_on_directed_c5(self):
        report = audit_bondy([build_digraph(5, [(i, (i + 1) % 5) for i in range(5)])])
        assert report.checked == 1 and not report.violations

    def test_bondy_on_figure1(self, fig1):
        report = audit_bondy([fig1])
        assert not report.violations

    def test_bondy_pooled_matches_serial(self, fig1):
        instances = [fig1] + [random_strong_digraph(7, seed) for seed in range(6)]
        assert audit_bondy(instances, workers=2) == audit_bondy(instances)

    def test_bondy_rejects_non_strong(self):
        with pytest.raises(PreconditionViolated):
            audit_bondy([build_digraph(2, [(0, 1)])])

    def test_bw_n4_full_table(self):
        report = audit_bw_claim(4)
        assert len(report.rows) == 64 * 3
        assert report.to_csv().startswith("tournament_bits,k,ell,contains")

    def test_bw_n3_rejected(self):
        with pytest.raises(PreconditionViolated):
            audit_bw_claim(3)

    def test_bw_deterministic(self):
        assert audit_bw_claim(4).to_csv() == audit_bw_claim(4).to_csv()
