"""Every certificate leaves the library through ``detection.certify``.

Each exit that hands out a certificate (the three detection searches, the
contraction lift, the shortcut replay, the crossing-chord lemma and the
CLI's chord check) succeeds with the real verifier and raises
:class:`StructuralViolation` once the verifier rejects everything.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import twoblock
from twoblock import detection, hamiltonian, pipeline
from twoblock.cli import EXIT_INTERNAL, EXIT_OK, main
from twoblock.detection import TwoBlockCertificate
from twoblock.digraph import DiCycle, build_digraph, contract
from twoblock.errors import StructuralViolation

SRC = Path(twoblock.__file__).parent


def chorded_cycle(n: int, *chords: tuple[int, int]):
    return build_digraph(n, [(i, (i + 1) % n) for i in range(n)] + list(chords))


def exhaustive():
    return detection.find_two_block_cycle(chorded_cycle(5, (0, 2)), 2, 1)


def heuristic():
    d = chorded_cycle(13, (0, 2))
    return detection.find_two_block_cycle(d, 2, 1, cap=12, strict=False)


def arc_anchored():
    d = chorded_cycle(5, (0, 2))
    return detection.find_two_block_cycle_through_arc(d, 2, 1, (0, 2))


def crossing_chord():
    return detection.crossing_chord_case(DiCycle(tuple(range(8))), (0, 4), (2, 6), 3, 3)


# The triangle 0 -> 1 -> 2 -> 0 with a detour 0 -> 3 -> 4 -> 1 and the arc
# 2 -> 4; contracting the triangle leaves a c(2, 1) to lift.
_LIFT_INPUT = build_digraph(
    5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 1), (2, 4)]
)
_LIFT_CYCLE = DiCycle((0, 1, 2))
_LIFT_LEVEL, _LIFT_PMAP = contract(_LIFT_INPUT, _LIFT_CYCLE.vertices)
_LIFT_FOUND = detection.find_two_block_cycle(_LIFT_LEVEL, 2, 1)

# The 5-cycle with the chord 0 -> 3; deleting vertex 1 adds the shortcut
# 0 -> 2, and the shortcut level holds the c(2, 1) 0 -> 2 -> 3, 0 -> 3.
_REPLAY_INPUT = chorded_cycle(5, (0, 3))
_REPLAY_LEVEL = build_digraph(5, [(0, 2), (2, 3), (3, 4), (4, 0), (0, 3)])
_REPLAY_FOUND = detection.find_two_block_cycle(_REPLAY_LEVEL, 2, 1)


def contraction_lift():
    step = pipeline.TraceStep(_LIFT_INPUT, _LIFT_CYCLE, _LIFT_PMAP, _LIFT_LEVEL.n - 1)
    return pipeline._uncontract_certificate(_LIFT_FOUND, step, 2, 1)


def shortcut_replay():
    rounds = [(_REPLAY_INPUT, 1, (0, 2))]
    corr = tuple(range(5))
    return hamiltonian._replay_certificate(
        _REPLAY_FOUND, corr, _REPLAY_LEVEL, rounds, 2, 1
    )


def replay_before_any_round():
    corr = tuple(range(5))
    return hamiltonian._replay_certificate(
        _REPLAY_FOUND, corr, _REPLAY_LEVEL, [], 2, 1
    )


EXITS = [
    exhaustive,
    heuristic,
    arc_anchored,
    contraction_lift,
    shortcut_replay,
    replay_before_any_round,
    crossing_chord,
]


@pytest.mark.parametrize("exit_", EXITS, ids=lambda f: f.__name__)
def test_every_exit_raises_when_verification_fails(exit_, monkeypatch):
    assert isinstance(exit_(), TwoBlockCertificate)
    monkeypatch.setattr(detection, "verify_certificate", lambda *args: False)
    with pytest.raises(StructuralViolation):
        exit_()


def test_chord_check_exits_internal_when_verification_fails(
    tmp_path, monkeypatch, capsys
):
    path = tmp_path / "c6c.edges"
    path.write_text("6\n" + "".join(f"{i} {(i + 1) % 6}\n" for i in range(6)) + "0 3\n")
    argv = ["ham-color", "--k", "1", "--ell", "1", str(path)]
    assert main(argv) == EXIT_OK
    monkeypatch.setattr(detection, "verify_certificate", lambda *args: False)
    assert main(argv) == EXIT_INTERNAL
    assert "failed verification" in capsys.readouterr().err


@pytest.mark.parametrize(
    "p, q",
    [
        ((), (0, 3)),
        ((0, 3), ()),
        ((0, 1, 0, 1, 2, 3), (0, 3)),
        ((0, 1, 2, 3), (0, 9, 3)),
        ((0, -1, 3), (0, 1, 2, 3)),
    ],
    ids=["empty p", "empty q", "repeated vertex", "beyond n", "negative vertex"],
)
def test_certify_rejects_malformed_tuples_with_structural_violation(p, q):
    # Only the verifier judges the tuples, so a malformed pair raises
    # StructuralViolation; any other exception type escapes and fails here.
    d = chorded_cycle(4, (0, 3), (1, 3), (0, 2))
    good = detection.certify(d, (0, 1, 2, 3), (0, 3), 1, 1)
    assert isinstance(good, TwoBlockCertificate)
    with pytest.raises(StructuralViolation, match="failed verification"):
        detection.certify(d, p, q, 1, 1)


def test_certificates_are_built_only_in_certify():
    # Every call of ``TwoBlockCertificate`` (by name or attribute) in the
    # library, with the innermost function around it.
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        stack: list[tuple[ast.AST, str | None]] = [(tree, None)]
        while stack:
            node, func = stack.pop()
            if isinstance(node, ast.Call) and "TwoBlockCertificate" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                calls.append(f"{path.name}:{func}:{node.lineno}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            stack.extend((child, func) for child in ast.iter_child_nodes(node))
    assert [call.rsplit(":", 1)[0] for call in calls] == ["detection.py:certify"], calls


def test_only_detection_names_the_proof_record():
    # The generators' proof of absence is kept on the digraph under
    # ``detection._PROOFS``; no other module may read or write it, by the
    # attribute's name or by the constant's.
    names = {detection._PROOFS, "_PROOFS"}
    uses = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            named = {
                getattr(node, "id", None),
                getattr(node, "attr", None),
                getattr(node, "name", None),
                node.value if isinstance(node, ast.Constant) else None,
            }
            if named & names:
                uses.append(f"{path.name}:{node.lineno}")
    assert {use.split(":")[0] for use in uses} == {"detection.py"}, uses
