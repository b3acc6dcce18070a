"""The class-level ``bw-audit`` truth table: equal to the labeled sweep, and
every check on the labeled members fires when its premise is broken."""

from __future__ import annotations

import dataclasses
import gc
import random
import tracemalloc

import pytest

from twoblock import harness
from twoblock.cli import main
from twoblock.detection import AbsenceReport, TwoBlockCertificate
from twoblock.errors import StructuralViolation

from oracles import audit_bw_labeled


@pytest.fixture(scope="module", params=[4, 5])
def audit(request):
    """The report at n = 4 and 5 with the labeled sweep's rows."""
    return harness.audit_bw_claim(request.param), audit_bw_labeled(request.param)


def _row(r):
    return (r.tournament_bits, r.k, r.ell, r.contains)


def test_rows_equal_labeled_sweep(audit):
    report, oracle = audit
    assert [_row(r) for r in report.rows] == oracle


def test_rows_index_like_the_labeled_sweep(audit):
    report, oracle = audit
    rows = report.rows
    assert len(rows) == len(oracle)
    picks = random.Random(0).sample(range(-len(oracle), len(oracle)), 50)
    for i in [0, -1, *picks]:
        assert _row(rows[i]) == oracle[i]
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            rows[i]


def test_violations_are_the_missing_rows(audit):
    report, oracle = audit
    assert [_row(r) for r in report.violations()] == [r for r in oracle if not r[3]]


def test_summary_counts_rows_and_violations():
    assert harness.audit_bw_claim(5).summary() == (
        "two-block containment audit at n=5: 4096 rows, "
        "80 violating (tournament, pair) rows"
    )


def test_rows_slice_like_the_labeled_sweep(audit):
    report, oracle = audit
    rows = report.rows
    for part in (slice(3, 10), slice(-5, None), slice(None, None, -1)):
        sliced = rows[part]
        assert isinstance(sliced, list)
        assert [_row(r) for r in sliced] == oracle[part]


def test_rows_compare_like_the_list(audit):
    report, oracle = audit
    rows = report.rows
    listed = [harness.BwRow(*r) for r in oracle]
    assert rows == rows and rows == listed and listed == rows
    assert rows == harness.audit_bw_claim(report.n).rows
    assert rows != listed[:-1] and rows != listed[::-1] and rows != tuple(listed)
    with pytest.raises(TypeError):
        hash(rows)


@pytest.fixture
def made(monkeypatch):
    """The arguments of each ``BwRow`` built while the test runs."""
    made = []

    class Counting(harness.BwRow):
        __slots__ = ()

        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(harness, "BwRow", Counting)
    return made


def test_audit_length_and_csv_build_no_row(made):
    report = harness.audit_bw_claim(5)
    assert len(report.rows) == 4096
    report.to_csv()
    assert made == []
    assert type(report.rows[-1]) is harness.BwRow and len(made) == 1


def test_row_slice_builds_only_its_rows(made):
    rows = harness.audit_bw_claim(5).rows
    for part, m in ((slice(3, 10), 7), (slice(-5, None), 5), (slice(10, 3), 0)):
        del made[:]
        assert len(rows[part]) == m and len(made) == m


def test_report_holds_the_shared_verdict_lists():
    # One verdict list per class (12 at n = 5) and a pointer per labeled
    # tournament take about 12 KB; a row object per (tournament, pair)
    # would take about 310 KB.
    harness.audit_bw_claim(5)
    tracemalloc.start()
    try:
        report = harness.audit_bw_claim(5)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len({id(verdicts) for verdicts in report.table}) == 12
    assert held < 64 * 1024


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
