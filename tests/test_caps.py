"""One rule for every exact search: up to its cap it runs without a limit,
above it the same search runs under the work limit, and its answer is exact
iff that limit cut nothing short.  A cap that is given applies to every
search of the call."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoblock.coloring import chromatic_number
from twoblock.detection import (
    AbsenceReport,
    find_two_block_cycle,
    hamiltonian_cycle,
    longest_cycle,
)
from twoblock.digraph import Digraph, build_digraph, underlying_graph
from twoblock.errors import Acyclic, CapExceeded
from twoblock.harness import random_cycle_tree_free, random_strong_ckl_free
from twoblock.pipeline import run_pipeline, validate_trace

from conftest import digraphs


def test_detection_cap_raises_the_cycle_cap():
    # A 22-cycle is past the default longest-cycle cap of 20.
    d = build_digraph(22, [(i, (i + 1) % 22) for i in range(22)])
    run = run_pipeline(d, 2, 1, detect_cap=22)
    assert run.trace.lengths() == (22,)
    validate_trace(run.trace, deep=True, detect_cap=22)


def outcome(search, *args, **kwargs):
    """The result of a search, or the class of the error it raised."""
    try:
        return search(*args, **kwargs)
    except (Acyclic, CapExceeded) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(digraphs(max_n=8), st.integers(1, 4), st.integers(1, 4))
def test_every_cap_gives_the_default_cap_answer(d, k, ell):
    # On these digraphs the default limits never run out, so every search
    # above its cap finishes and answers as it does within the default cap.
    g = underlying_graph(d)
    expected = [
        outcome(find_two_block_cycle, d, k, ell),
        outcome(find_two_block_cycle, d, k, ell, strict=False),
        outcome(longest_cycle, d),
        outcome(hamiltonian_cycle, d),
        outcome(chromatic_number, g),
    ]
    assert CapExceeded not in expected
    for cap in (0, d.n - 1):
        assert [
            outcome(find_two_block_cycle, d, k, ell, cap=cap),
            outcome(find_two_block_cycle, d, k, ell, cap=cap, strict=False),
            outcome(longest_cycle, d, cap=cap),
            outcome(hamiltonian_cycle, d, cap=cap),
            outcome(chromatic_number, g, cap=cap),
        ] == expected


def relabeled(d: Digraph, seed: int) -> Digraph:
    perm = list(range(d.n))
    random.Random(seed).shuffle(perm)
    return Digraph(d.n, frozenset((perm[t], perm[h]) for t, h in d.arcs))


# (generator, n, k, ell, pairs searched by the proof of the relabeled digraph)
ABOVE_CAP_PROOFS = [
    (random_strong_ckl_free, 24, 3, 2, 55),
    (random_strong_ckl_free, 20, 4, 2, 46),
    (random_cycle_tree_free, 24, 4, 2, 63),
]


@pytest.mark.parametrize("maker,n,k,ell,pairs", ABOVE_CAP_PROOFS)
def test_free_digraphs_above_the_cap_are_proved_free(maker, n, k, ell, pairs):
    # The generators verify their output at the default detection cap of 12.
    d = relabeled(maker(n, k, ell, seed=1), seed=n + k)
    assert find_two_block_cycle(d, k, ell) == AbsenceReport(
        k, ell, "exhaustive", pairs
    )


def test_long_directed_cycle_is_proved_free_in_both_modes():
    d = build_digraph(500, [(i, (i + 1) % 500) for i in range(500)])
    for strict in (True, False):
        assert find_two_block_cycle(d, 2, 1, strict=strict) == AbsenceReport(
            2, 1, "exhaustive", 0
        )


def test_hamiltonian_cycle_above_the_cap(work_limit):
    work_limit(100)
    # Closing a 21-cycle takes 21 units.
    cycle = build_digraph(21, [(i, (i + 1) % 21) for i in range(21)])
    assert hamiltonian_cycle(cycle).vertices == tuple(range(21))
    # Two triangles and a 17-cycle through vertex 0: the length bound cuts
    # every first step, so absence is proved with one unit.
    arcs = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    arcs += [(0, 5)] + [(i, i + 1) for i in range(5, 20)] + [(20, 0)]
    assert hamiltonian_cycle(build_digraph(21, arcs)) is None
    # Two complete 10-vertex digraphs joined in both directions through
    # vertex 0: the search tries the orders of one clique, and the limit
    # cuts it short.
    arcs = [a for x in range(1, 21) for a in ((0, x), (x, 0))]
    for part in (range(1, 11), range(11, 21)):
        arcs += [(x, y) for x in part for y in part if x != y]
    with pytest.raises(CapExceeded, match="ran out of its work limit"):
        hamiltonian_cycle(build_digraph(21, arcs))
