"""The generators prove their output free once, and later detections on
that same object within the cap reuse the proof instead of searching.

Every answer must equal the one a fresh object with the same arcs gives,
for either (k, ell) order and either mode; any other object, and any call
above the cap, must search."""

from __future__ import annotations

import random
from io import StringIO

import pytest

from twoblock import detection
from twoblock.detection import (
    TwoBlockCertificate,
    find_two_block_cycle,
    hamiltonian_cycle,
    keep_certificate,
    prove_free,
)
from twoblock.digraph import Digraph, reverse
from twoblock.errors import CapExceeded, StructuralViolation
from twoblock.hamiltonian import color_hamiltonian, ham_degeneracy_order
from twoblock.harness import random_cycle_tree_free, random_strong_ckl_free
from twoblock.io import read_edge_list

GENERATORS = [random_strong_ckl_free, random_cycle_tree_free]
# (n, k, ell) the generators are called with; every output has at most 12
# vertices, so it lies within the default detection cap.
SHAPES = [(8, 2, 1), (9, 3, 2), (10, 3, 1), (11, 4, 2), (12, 2, 2)]
SEEDS = [0, 3, 7]


@pytest.fixture
def pair_searches(monkeypatch):
    """A list that grows by one entry per ``_pair_search`` call."""
    calls = []
    real = detection._pair_search

    def counting(*args):
        calls.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(detection, "_pair_search", counting)
    return calls


def fresh(d: Digraph) -> Digraph:
    return Digraph(d.n, d.arcs)


def outcome(*args, **kwargs):
    """``find_two_block_cycle``'s JSON answer, or the class it raised."""
    try:
        return find_two_block_cycle(*args, **kwargs).to_json_dict()
    except CapExceeded as exc:
        return type(exc)


def generated(generator, n, k, ell, seed) -> Digraph:
    d = generator(n, k, ell, seed)
    assert d.n <= detection.DEFAULT_DETECT_CAP
    return d


@pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("n, k, ell", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_generator_output_answers_as_a_fresh_copy(
    generator, n, k, ell, seed, pair_searches
):
    # The generator's own pair, in either order, is answered without a
    # search; every other pair is searched as on the copy.
    d = generated(generator, n, k, ell, seed)
    copy = fresh(d)
    for a, b in {(k, ell), (ell, k), (2, 1), (k + 1, ell)}:
        for strict in (True, False):
            pair_searches.clear()
            expected = outcome(copy, a, b, strict=strict)
            on_copy = len(pair_searches)
            pair_searches.clear()
            got = find_two_block_cycle(d, a, b, strict=strict)
            assert got.to_json_dict() == expected
            if {a, b} == {k, ell}:
                assert got.mode == "exhaustive" and pair_searches == []
            else:
                assert len(pair_searches) == on_copy


@pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("seed", SEEDS)
def test_other_objects_search_for_themselves(generator, seed, pair_searches):
    n, k, ell = 10, 3, 2
    d = generated(generator, n, k, ell, seed)
    assert find_two_block_cycle(fresh(d), k, ell).pairs_checked > 0
    perm = list(range(d.n))
    random.Random(seed).shuffle(perm)
    relabeled = Digraph(d.n, frozenset((perm[t], perm[h]) for t, h in d.arcs))
    missing = min(
        (t, h)
        for t in range(d.n)
        for h in range(d.n)
        if t != h and not d.has_arc(t, h)
    )
    for other in (fresh(d), relabeled, d.with_arc(*missing), reverse(d)):
        for a, b in ((k, ell), (ell, k)):
            pair_searches.clear()
            find_two_block_cycle(other, a, b)
            assert len(pair_searches) > 0


@pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("n, k, ell", SHAPES)
def test_record_is_ignored_above_the_cap(
    generator, n, k, ell, work_limit, pair_searches
):
    d = generated(generator, n, k, ell, 5)
    copy = fresh(d)
    below = d.n - 1

    def same_as_copy():
        for a, b in ((k, ell), (ell, k)):
            for strict in (True, False):
                pair_searches.clear()
                expected = outcome(copy, a, b, cap=below, strict=strict)
                on_copy = len(pair_searches)
                pair_searches.clear()
                assert outcome(d, a, b, cap=below, strict=strict) == expected
                assert len(pair_searches) == on_copy

    same_as_copy()
    work_limit(1)
    same_as_copy()


def test_prove_free_keeps_no_certificate(pair_searches):
    # A 5-cycle with the chord 0->2 holds c(2, 1): 0->1->2 and 0->2.
    d = Digraph(5, frozenset({(i, (i + 1) % 5) for i in range(5)} | {(0, 2)}))
    assert isinstance(prove_free(d, 2, 1), TwoBlockCertificate)
    pair_searches.clear()
    assert isinstance(find_two_block_cycle(d, 2, 1), TwoBlockCertificate)
    assert pair_searches


def test_prove_free_keeps_no_cut_short_answer(work_limit, pair_searches):
    d = random_strong_ckl_free(12, 3, 2, seed=2)
    copy = fresh(d)
    work_limit(1)
    with pytest.raises(CapExceeded):
        prove_free(copy, 3, 2, cap=5)
    pair_searches.clear()
    assert find_two_block_cycle(copy, 3, 2).mode == "exhaustive"
    assert pair_searches


def _five_cycle_with_chord() -> Digraph:
    # A 5-cycle with the chord 0->2 holds c(2, 1): 0->1->2 and 0->2.
    return Digraph(5, frozenset({(i, (i + 1) % 5) for i in range(5)} | {(0, 2)}))


def test_kept_certificate_answers_both_orders_without_search(pair_searches):
    d = _five_cycle_with_chord()
    kept = keep_certificate(d, (0, 2), (0, 1, 2), 2, 1)
    assert (kept.path_a, kept.path_b) == ((0, 1, 2), (0, 2))
    pair_searches.clear()
    assert find_two_block_cycle(d, 2, 1) is kept
    flipped = find_two_block_cycle(d, 1, 2, strict=False)
    assert (flipped.k_req, flipped.ell_req) == (1, 2)
    assert (flipped.path_a, flipped.path_b) == ((0, 2), (0, 1, 2))
    assert pair_searches == []
    # other pairs, other objects and calls above the cap search
    for args, kwargs in (
        ((d, 3, 1), {}),
        ((fresh(d), 2, 1), {}),
        ((d, 2, 1), {"cap": 4, "strict": False}),
    ):
        pair_searches.clear()
        find_two_block_cycle(*args, **kwargs)
        assert pair_searches


def test_rejected_certificate_is_not_kept(pair_searches):
    d = _five_cycle_with_chord()
    with pytest.raises(StructuralViolation, match="failed verification"):
        keep_certificate(d, (2, 1, 0), (0, 2), 2, 1)
    pair_searches.clear()
    assert isinstance(find_two_block_cycle(d, 2, 1), TwoBlockCertificate)
    assert pair_searches


@pytest.mark.parametrize("n, k, ell", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_color_hamiltonian_on_generator_output_searches_nothing(
    n, k, ell, seed, pair_searches
):
    d = random_strong_ckl_free(n, k, ell, seed)
    ham = hamiltonian_cycle(d)
    copy = fresh(d)
    for a, b in ((k, ell), (ell, k)):
        expected = color_hamiltonian(copy, ham, a, b)
        pair_searches.clear()
        assert color_hamiltonian(d, ham, a, b) == expected
        assert pair_searches == []


@pytest.mark.parametrize("seed", SEEDS)
def test_ham_degeneracy_order_on_a_read_digraph_searches(seed, pair_searches):
    d = random_strong_ckl_free(10, 3, 2, seed)
    text = f"{d.n}\n" + "".join(f"{t} {h}\n" for t, h in sorted(d.arcs))
    read = read_edge_list(StringIO(text))
    assert read == d
    ham = hamiltonian_cycle(d)
    expected = ham_degeneracy_order(d, ham, 3, 2)
    pair_searches.clear()
    assert ham_degeneracy_order(read, ham, 3, 2) == expected
    assert pair_searches
