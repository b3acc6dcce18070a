"""Certificates found on derived digraphs and lifted back to the input.

A certificate can only come from a contracted or shortcut level after a
capped miss on the input: in strict mode the exhaustive proof on level 0
rules out certificates on every later level.  With the heuristic given no
tries, every detection above the cap is such a miss, so these families
reach both lift paths.  The digests were recorded before the lift paths
were rewritten to one splice rule each; errors count as ``None`` there.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from twoblock import detection, hamiltonian, pipeline
from twoblock.detection import TwoBlockCertificate, verify_certificate
from twoblock.digraph import Digraph, DiCycle
from twoblock.errors import CapExceeded, StructuralViolation, TwoBlockError

PAIRS = [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]


@pytest.fixture(autouse=True)
def capped_misses(monkeypatch):
    monkeypatch.setattr(detection, "_HEURISTIC_TRIES", 0)


def _counting(monkeypatch, module, name) -> list[int]:
    """Wrap ``module.name``; the returned one-element list counts the calls
    that changed their first argument."""
    inner = getattr(module, name)
    count = [0]

    def wrapper(*args):
        out = inner(*args)
        count[0] += out != args[0]
        return out

    monkeypatch.setattr(module, name, wrapper)
    return count


def glued_cycles(seed: int) -> tuple[Digraph, int, int, int]:
    """Cycles of length 2-5 glued at single vertices plus 1-4 random arcs,
    with a pair (k, ell) and a detection cap below the vertex count."""
    rng = random.Random(seed)
    target = rng.randint(9, 14)
    n = rng.randint(2, 5)
    arcs = {(i, (i + 1) % n) for i in range(n)}
    while n < target:
        length = rng.randint(2, 5)
        ring = [rng.randrange(n)] + list(range(n, n + length - 1))
        n += length - 1
        arcs |= {(ring[i], ring[(i + 1) % length]) for i in range(length)}
    for _ in range(rng.randint(1, 4)):
        t, h = rng.sample(range(n), 2)
        arcs.add((t, h))
    k, ell = rng.choice(PAIRS)
    return Digraph(n, frozenset(arcs)), k, ell, n - rng.randint(1, 4)


def fanned_cycles(seed: int) -> tuple[Digraph, int, int, int]:
    """A 5-7 cycle on vertices 0.. with cycles of length 2-4 glued on, 2-3
    of its vertices fanned into one or two later vertices, and 0-2 random
    arcs; a pair (k, ell) and a detection cap below the vertex count.  The
    fans give contraction lifts a choice of exit member."""
    rng = random.Random(seed)
    target = rng.randint(10, 14)
    base = rng.randint(5, 7)
    n = base
    arcs = {(i, (i + 1) % n) for i in range(n)}
    while n < target:
        length = rng.randint(2, 4)
        ring = [rng.randrange(n)] + list(range(n, n + length - 1))
        n += length - 1
        arcs |= {(ring[i], ring[(i + 1) % length]) for i in range(length)}
    for _ in range(rng.randint(1, 2)):
        hub = rng.randrange(base, n)
        for x in rng.sample(range(base), rng.randint(2, 3)):
            arcs.add((x, hub))
    for _ in range(rng.randint(0, 2)):
        t, h = rng.sample(range(n), 2)
        arcs.add((t, h))
    k, ell = rng.choice(PAIRS)
    return Digraph(n, frozenset(arcs)), k, ell, n - rng.randint(1, 4)


def hamiltonian_case(seed: int) -> tuple[Digraph, DiCycle, int, int, int]:
    """A shuffled Hamiltonian cycle plus n to 3n random arcs, with a pair
    (k, ell) and a detection cap below the vertex count."""
    rng = random.Random(seed)
    n = rng.randint(8, 13)
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    for _ in range(rng.randint(n, 3 * n)):
        t, h = rng.sample(range(n), 2)
        arcs.add((t, h))
    k, ell = rng.choice(PAIRS[:4])
    cap = n - rng.randint(1, 4)
    return Digraph(n, frozenset(arcs)), DiCycle(tuple(perm)), k, ell, cap


def _digest(outcomes: list) -> str:
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def _trace_outcome(d: Digraph, k: int, ell: int, cap: int):
    """One heuristic contraction run as a JSON value; errors give None."""
    try:
        result = pipeline.build_contraction_trace(
            d, k, ell, detect_cap=cap, strict=False
        )
    except TwoBlockError:
        return None
    if isinstance(result, TwoBlockCertificate):
        assert verify_certificate(d, result, k, ell)
        return result.to_json_dict()
    return [list(result.lengths()), list(result.final_coloring.colors)]


def test_contraction_lift(monkeypatch):
    lifts = _counting(monkeypatch, pipeline, "_uncontract_certificate")
    outcomes: list = []
    lifted = 0
    for seed in range(600):
        lifts[0] = 0
        outcomes.append(_trace_outcome(*glued_cycles(seed)))
        lifted += isinstance(outcomes[-1], dict) and lifts[0] > 0
    assert lifted >= 1
    assert _digest(outcomes) == (
        "2c3838d95cbe733406d214f5f729f167332fda7d6c446f275c5289872130fb19"
    )


def test_contraction_lift_exit_tie_break(monkeypatch):
    # Count, for every lifted path that leaves the contracted vertex, the
    # cycle members with an arc to its successor: the exit candidates.
    inner = pipeline._uncontract_certificate
    exits: list[int] = []

    def wrapper(cert, step, k, ell):
        v_s, members = step.new_vertex, step.pmap.of(step.new_vertex)
        for vs in (cert.path_a.vertices, cert.path_b.vertices):
            if v_s in vs[:-1]:
                (succ,) = step.pmap.of(vs[vs.index(v_s) + 1])
                exits.append(sum(step.digraph.has_arc(w, succ) for w in members))
        return inner(cert, step, k, ell)

    monkeypatch.setattr(pipeline, "_uncontract_certificate", wrapper)
    outcomes = [_trace_outcome(*fanned_cycles(seed)) for seed in range(300)]
    assert sum(count >= 2 for count in exits) >= 10
    assert _digest(outcomes) == (
        "76210268352dd5ec80be44261e0871143cb05c0542e62613545eee7f8b6c0e7c"
    )


def test_shortcut_replay(monkeypatch):
    expansions = _counting(monkeypatch, hamiltonian, "_expand_arc")
    outcomes: list = []
    replayed = 0
    for seed in range(400):
        d, ham, k, ell, cap = hamiltonian_case(seed)
        expansions[0] = 0
        try:
            result = hamiltonian.ham_degeneracy_order(
                d, ham, k, ell, cap=cap, strict=False
            )
        except TwoBlockError:
            outcomes.append(None)
            continue
        if isinstance(result, TwoBlockCertificate):
            assert verify_certificate(d, result, k, ell)
            replayed += expansions[0] > 0
            outcomes.append(result.to_json_dict())
        else:
            outcomes.append(list(result.order))
    assert replayed >= 1
    assert _digest(outcomes) == (
        "e890fe7b0fa4de8ee8bfd1677a609cffc99760fae6702c5b270461555770d35a"
    )


def bidirected_complete(n: int) -> Digraph:
    return Digraph(n, frozenset((i, j) for i in range(n) for j in range(n) if i != j))


@pytest.mark.parametrize(
    "route", [hamiltonian.low_degree_or_certificate, hamiltonian.ham_degeneracy_order]
)
def test_capped_miss_above_min_degree_is_cap_exceeded(route):
    # Every degree is 8 >= k + ell, so only the cap stands in the way.
    d = bidirected_complete(9)
    with pytest.raises(CapExceeded, match="on 9 vertices, above the detection cap 6"):
        route(d, DiCycle(tuple(range(9))), 2, 1, cap=6, strict=False)


@pytest.mark.parametrize(
    "route", [hamiltonian.low_degree_or_certificate, hamiltonian.ham_degeneracy_order]
)
def test_exhaustive_miss_above_min_degree_is_violation(route, monkeypatch):
    def blind(d, k, ell, **_):
        return detection.AbsenceReport(k, ell, "exhaustive", 0)

    monkeypatch.setattr(hamiltonian, "find_two_block_cycle", blind)
    with pytest.raises(StructuralViolation, match="exhaustive detection found no"):
        route(bidirected_complete(5), DiCycle(tuple(range(5))), 2, 1)
