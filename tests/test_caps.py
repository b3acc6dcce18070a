"""One cap rule: the detection cap raises every other exact-search cap but
never lowers one below its default, in the CLI and in the pipeline alike."""

from __future__ import annotations

from twoblock.coloring import DEFAULT_COLOR_CAP
from twoblock.detection import DEFAULT_CYCLE_CAP, raised_cap
from twoblock.digraph import build_digraph
from twoblock.pipeline import run_pipeline, validate_trace


def test_raised_cap():
    assert raised_cap(None, DEFAULT_CYCLE_CAP) == 20
    assert raised_cap(None, DEFAULT_COLOR_CAP) == 16
    for detect_cap in (0, 6, 13, 14, 16):
        assert raised_cap(detect_cap, DEFAULT_CYCLE_CAP) == 20
        assert raised_cap(detect_cap, DEFAULT_COLOR_CAP) == 16
    assert raised_cap(22, DEFAULT_CYCLE_CAP) == 22
    assert raised_cap(22, DEFAULT_COLOR_CAP) == 22


def test_detection_cap_raises_the_cycle_cap():
    # A 22-cycle is past the default longest-cycle cap of 20.
    d = build_digraph(22, [(i, (i + 1) % 22) for i in range(22)])
    run = run_pipeline(d, 2, 1, detect_cap=22)
    assert run.trace.lengths() == (22,)
    validate_trace(run.trace, deep=True, detect_cap=22)
