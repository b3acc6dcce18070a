"""The class-level ``bw-audit`` truth table: equal to the labeled sweep, and
every check on the labeled members fires when its premise is broken."""

from __future__ import annotations

import dataclasses

import pytest

from twoblock import harness
from twoblock.cli import main
from twoblock.detection import AbsenceReport, TwoBlockCertificate
from twoblock.errors import StructuralViolation

from oracles import audit_bw_labeled


@pytest.mark.parametrize("n", [4, 5])
def test_rows_equal_labeled_sweep(n):
    report = harness.audit_bw_claim(n)
    rows = [(r.tournament_bits, r.k, r.ell, r.contains) for r in report.rows]
    assert rows == audit_bw_labeled(n)


@pytest.fixture
def classes(monkeypatch):
    """The 4-vertex classes, returned by every later ``tournament_classes``
    call as the list the test leaves in ``classes``."""
    found = harness.tournament_classes(4)
    monkeypatch.setattr(harness, "tournament_classes", lambda n: found)
    return found


def _on_classes(monkeypatch, classes, alter):
    """Make the audit's searches on the class tournaments return
    ``alter(result)`` for each certificate; member searches run unchanged."""
    search = harness.find_two_block_cycle

    def fake(d, k, ell, **kwargs):
        result = search(d, k, ell, **kwargs)
        if isinstance(result, TwoBlockCertificate) and any(d is c for c in classes):
            return alter(result)
        return result

    monkeypatch.setattr(harness, "find_two_block_cycle", fake)


def test_pattern_in_no_class_exits_5(classes, capsys):
    del classes[0]
    assert main(["bw-audit", "--n", "4"]) == 5
    assert "is in no class" in capsys.readouterr().err


def test_pattern_in_two_classes(classes):
    classes.append(classes[0])
    with pytest.raises(StructuralViolation, match="is in two classes"):
        harness.audit_bw_claim(4)


def test_corrupted_class_certificate(monkeypatch, classes):
    _on_classes(
        monkeypatch,
        classes,
        lambda cert: dataclasses.replace(cert, path_a=cert.path_a[::-1]),
    )
    with pytest.raises(StructuralViolation, match="failed verification"):
        harness.audit_bw_claim(4)


def test_class_negative_with_positive_member(monkeypatch, classes):
    _on_classes(
        monkeypatch,
        classes,
        lambda cert: AbsenceReport(cert.k_req, cert.ell_req, "exhaustive", 0),
    )
    with pytest.raises(StructuralViolation, match="but its class does not"):
        harness.audit_bw_claim(4)
