"""Outputs pinned to the values of the code before the harness helpers,
the derived pipeline caps and the iterative colorability search were
introduced.  A change to any of them is a change to the published files or
to the benchmark corpora, not a refactoring."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from twoblock.coloring import Coloring, chromatic_number, k_colorable
from twoblock.detection import find_two_block_cycle
from twoblock.digraph import Digraph, UGraph, underlying_graph
from twoblock.harness import (
    audit_bw_claim,
    encode_arcs_hex,
    random_cycle_tree_free,
    random_strong_ckl_free,
    search_problem1,
    tournament_classes,
    write_records,
)

from oracles import random_digraph


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_search_problem1_jsonl(tmp_path):
    out = tmp_path / "search5.jsonl"
    write_records(search_problem1(5), str(out))
    assert _sha256(out.read_bytes()) == (
        "b8f7d00fff6f38628a0a192330cf273e46efae797c2d79e784bc55b835ec886b"
    )


def test_audit_bw_claim_csv():
    assert _sha256(audit_bw_claim(5).to_csv().encode()) == (
        "95fc46603823cbd7b91c85c9b61a015523f44ef7dc455da20cca24b8d6a59b73"
    )


def test_audit_bw_claim_csv_n6():
    assert _sha256(audit_bw_claim(6).to_csv().encode()) == (
        "5c2e526d1d29e7379f838825ea3a4ccef34bedea54a806cd735d77220a34e939"
    )


def test_tournament_classes_n7():
    # The class labels are canonical forms, so this pins the form's values
    # on the 456 classes, not only the partition into classes.
    hexes = "\n".join(encode_arcs_hex(d) for d in tournament_classes(7))
    assert _sha256(hexes.encode()) == (
        "ed067c58c1b2a79729846fc734c8e25271138e20bb07f58de79b592ba97e11aa"
    )


# (n, k, ell, seed) from the criterion-5 schedule, with the encoded output
# of random_strong_ckl_free and random_cycle_tree_free at cap=14.
GENERATOR_PINS = [
    ((6, 2, 1, 3001), "060408102", "102428142"),
    ((7, 3, 1, 3002), "00e0602020602", "0224206620602"),
    ((8, 4, 1, 3003), "0580402070080406", "160c48106"),
    ((13, 3, 3, 3008),
     "0801a00e00cb0c60018002901b802001803a0c08c02",
     "00da00c000c81480800580e0837e0800c00a"),
    ((11, 4, 1, 3015),
     "000600a00600a00200200600a002006", "000600601200600008200620200214e"),
    ((6, 2, 2, 3028), "060c8a32a", "628d49146"),
    ((11, 4, 2, 3042),
     "004630240280e01206270280600a012", "080a61280604a080482e0200257a802"),
    ((9, 2, 1, 3103), "001802008020080200802", "080820400460082200a02"),
]


@pytest.mark.parametrize("point,strong_hex,tree_hex", GENERATOR_PINS)
def test_generator_outputs(point, strong_hex, tree_hex):
    strong = random_strong_ckl_free(*point, cap=14)
    tree = random_cycle_tree_free(*point, cap=14)
    assert (encode_arcs_hex(strong), encode_arcs_hex(tree)) == (strong_hex, tree_hex)


def _ugraph(n: int, edges: list[tuple[int, int]]) -> UGraph:
    return underlying_graph(Digraph(n, frozenset(edges)))


def _wheel(rim: int) -> UGraph:
    return _ugraph(
        rim + 1,
        [(i, (i + 1) % rim) for i in range(rim)] + [(rim, i) for i in range(rim)],
    )


PETERSEN = _ugraph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)

# 3-colorable, but DSATUR needs 4 colors and the backtracking search undoes
# five assignments before it finds this coloring.
BACKTRACKS = _ugraph(
    9,
    [(0, 3), (0, 4), (0, 6), (0, 8), (1, 3), (1, 5), (1, 7), (2, 3), (2, 6),
     (3, 7), (3, 8), (4, 5), (5, 6), (5, 7), (6, 7)],
)


@pytest.mark.parametrize(
    "g,c,colors",
    [
        (PETERSEN, 2, None),
        (PETERSEN, 3, (0, 1, 0, 1, 2, 1, 0, 2, 2, 1)),
        (_wheel(5), 3, None),
        (_wheel(5), 4, (1, 2, 1, 2, 3, 0)),
        (_wheel(7), 3, None),
        (_wheel(7), 4, (1, 2, 1, 2, 1, 2, 3, 0)),
        (BACKTRACKS, 3, (1, 2, 1, 0, 2, 0, 2, 1, 2)),
    ],
)
def test_k_colorable_colorings(g, c, colors):
    expected = None if colors is None else Coloring(colors, max(colors) + 1)
    assert k_colorable(g, c) == expected


def test_chromatic_number_colorings(fig1):
    assert chromatic_number(PETERSEN) == (
        3, Coloring((0, 1, 0, 1, 2, 1, 0, 2, 2, 1), 3)
    )
    assert chromatic_number(_wheel(5)) == (4, Coloring((1, 2, 1, 2, 3, 0), 4))
    assert chromatic_number(_wheel(7)) == (
        4, Coloring((1, 2, 1, 2, 1, 2, 3, 0), 4)
    )
    assert chromatic_number(underlying_graph(fig1)) == (
        5, Coloring((0, 1, 2, 3, 4), 5)
    )
    assert k_colorable(underlying_graph(fig1), 4) is None


# (k, ell) points of the detection digest: both role orders, and the
# balanced points (3, 3) and (4, 4).
DETECTION_POINTS = [
    (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (3, 3), (4, 2), (4, 4)
]


def detection_digest_cases():
    """The 2,000 seeded random digraphs with 1 to 9 vertices of the digest."""
    for seed in range(2000):
        rng = random.Random(seed)
        yield random_digraph(rng, rng.randint(1, 9), rng.choice((0.2, 0.35, 0.5, 0.7)))


def test_detection_results_digest():
    digest = hashlib.sha256()
    for d in detection_digest_cases():
        for k, ell in DETECTION_POINTS:
            result = find_two_block_cycle(d, k, ell)
            line = json.dumps(result.to_json_dict(), sort_keys=True)
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == (
        "ab6d63098fbddc268fa5e0644f01255d206be412268712ebb1e4510c21032fc6"
    )


def test_capped_detection_equals_exhaustive():
    # Heuristic mode with a cap one below n runs the exhaustive pair loop
    # under a budget; at the default budget and pair limit these small
    # digraphs never exhaust either, so every answer is the exhaustive one,
    # mode included.
    for d in detection_digest_cases():
        for k, ell in DETECTION_POINTS:
            exact = find_two_block_cycle(d, k, ell).to_json_dict()
            capped = find_two_block_cycle(d, k, ell, cap=d.n - 1, strict=False)
            assert capped.to_json_dict() == exact


# (k, ell) points of the corpus digest: from the easiest to the balanced
# (4, 4), whose negatives are the slowest exhaustive proofs of the corpus.
CORPUS_POINTS = [(2, 1), (3, 2), (3, 3), (4, 3), (4, 4)]


def test_corpus_detection_digest():
    # Exhaustive results on the 64 criterion-5 corpus digraphs at cap 14, the
    # inputs of the benchmark's pipeline workload before their relabeling.
    digest = hashlib.sha256()
    count, i = 0, 0
    while count < 64:
        k = 2 + (i % 3)
        ell = 1 + ((i // 3) % k)
        n = 6 + (i % 9)
        i += 1
        if n < max(2 * k - 2, k + ell + 1):
            continue
        maker = random_cycle_tree_free if i % 2 else random_strong_ckl_free
        d = maker(n, k, ell, seed=3000 + i, cap=14)
        count += 1
        for kp, ellp in CORPUS_POINTS:
            result = find_two_block_cycle(d, kp, ellp, cap=14)
            line = json.dumps(result.to_json_dict(), sort_keys=True)
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == (
        "587122a068417626c3758a83ea3057585db00710f2f27605a6b598183cad398a"
    )
