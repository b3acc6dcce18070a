"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from twoblock import detection, hamiltonian, harness, pipeline  # noqa: E402
from workloads import (  # noqa: E402
    Item,
    Tournaments,
    refined_canonical_form,
    tournament,
)


def test_self_times_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping, union 5)
    # and c [9, 12] (sticks out of its parent: only [9, 10] counts);
    # a has one child [2, 3].
    spans = [
        [0, -1, "root", 0.0, 10.0, ""],
        [1, 0, "a", 1.0, 4.0, ""],
        [2, 1, "a.child", 2.0, 3.0, ""],
        [3, 0, "b", 3.0, 6.0, ""],
        [4, 0, "c", 9.0, 12.0, ""],
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 3.0})


def test_tail_percentile_follows_sample_count():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([float(i) for i in range(200)]) == (189.0, 95.0)
    value, pct = run.tail([float(i) for i in range(54)])
    assert value == 43.0 and pct == pytest.approx(100 * 44 / 54)
    # exactly 10 samples lie beyond the tail value
    values = [float(i) for i in range(11)]
    value, _ = run.tail(values)
    assert sum(v > value for v in values) == 10
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_wrappers_install_record_and_restore():
    original = detection.find_two_block_cycle
    assert tracer.installed_wrappers() == []
    t = tracer.Tracer()
    with t:
        # installed under the name in every module that imports it
        for module in (detection, harness, pipeline, hamiltonian):
            assert module.find_two_block_cycle is not original
        assert "twoblock.harness.find_two_block_cycle" in tracer.installed_wrappers()
        report = harness.audit_bw_claim(4)
        t.paused = True
        harness.audit_bw_claim(4)
        t.paused = False
    assert tracer.installed_wrappers() == []
    for module in (detection, harness, pipeline, hamiltonian):
        assert module.find_two_block_cycle is original
    names = [s[2] for s in t.spans]
    assert names[0] == "harness.audit_bw_claim"
    # 64 tournaments x 2 distinct (min(k, ell), max(k, ell)) pairs; the
    # paused second call recorded nothing
    assert names.count("detection.find_two_block_cycle") == 64 * 2
    assert all(s[1] == 0 for s in t.spans[1:])
    # one negative call per (tournament, pair) the truth table marks missing
    negatives = {(r.tournament_bits, min(r.k, r.ell)) for r in report.violations()}
    assert sum(s[5] == "neg" for s in t.spans) == len(negatives) > 0


def test_traced_call_counts_repeat_exactly():
    def traced_calls() -> list[tuple[str, str]]:
        with tracer.Tracer() as t:
            d = harness.random_strong_ckl_free(8, 3, 2, seed=5)
            pipeline.run_pipeline(d, 3, 2)
        return [(s[2], s[5]) for s in t.spans]

    first = traced_calls()
    assert first == traced_calls()
    assert ("detection.find_two_block_cycle", "neg") in first


def test_install_refuses_a_second_wrapper():
    t = tracer.Tracer()
    with t:
        with pytest.raises(RuntimeError):
            tracer.Tracer().install()
    assert tracer.installed_wrappers() == []


def _runs(*times: float) -> list[tuple[float, float, float]]:
    return [(0.0, 0.0, t) for t in times]


def _benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    names = [w["name"] for w in spec["workloads"]]
    assert names == ["pipeline", "hamiltonian", "tournaments"]


def test_printed_metrics_are_the_named_ones():
    spans = [
        [0, -1, "pipeline.build_contraction_trace", 0.0, 2.0, "levels=3"],
        [1, 0, "detection.find_two_block_cycle", 0.5, 1.0, "neg"],
        [2, -1, "coloring.k_colorable", 2.0, 3.0, "hit"],
        [3, -1, "digraph.induced", 3.0, 3.5, ""],
    ]
    layer = run.per_layer(spans, traced_wall=4.0, overhead=-0.1)
    assert set(layer) == {name for name, _ in run.PER_LAYER}
    assert layer["pipeline.levels"] == 3
    assert layer["pipeline.build_contraction_trace.self_s"] == pytest.approx(1.5)
    assert layer["detection.find_two_block_cycle.neg.calls"] == 1
    assert layer["coloring.k_colorable.colorable_ratio"] == 1.0
    assert layer["digraph.self_s"] == pytest.approx(0.5)
    assert layer["trace.coverage"] == pytest.approx(3.5 / 4.0)

    # 20 operations, each listed twice (two runs of one operation per pass)
    ops = [Item(f"x{i}", None, units=0) for i in range(20)]
    sweep = Item("sweep", None, latency=False, units=1000)
    m = run.Measured(attempted=41)
    m.runs = {f"x{i}": _runs(0.001 * (i + 1), 0.5, 0.0) for i in range(20)}
    m.runs["sweep"] = _runs(1.0, 2.0, 3.0)
    e2e, extra = run.end_to_end(Tournaments(), ops + [sweep] + ops, m, setup_s=0.5)
    assert list(e2e) == [name for name, _ in run.END_TO_END]
    assert e2e["op_tail_ms"] == pytest.approx(10.0)
    assert e2e["ops_per_s"] == pytest.approx(500.0)
    assert extra["op_tail_percentile"] == 50.0 and extra["op_latency_samples"] == 20


def test_times_are_reported_at_the_reference_speed():
    ops = [Item(f"x{i}", None, units=0) for i in range(20)]
    sweep = Item("sweep", None, latency=False, units=1000)
    m = run.Measured(attempted=21)
    # the operations ran at t = 0..1, while the reference task took twice
    # its nominal time (half speed); the sweep ran at t = 100..110, while
    # it took 4 times as long
    m.runs = {f"x{i}": [(0.0, 1.0, 0.001 * (i + 1))] for i in range(20)}
    m.runs["sweep"] = [(100.0, 110.0, 4.0)]
    ref = reference.REFERENCE_S
    m.reference = [(0.0, 2 * ref), (0.5, 2 * ref), (104.0, 4 * ref), (108.0, 4 * ref)]
    e2e, extra = run.end_to_end(Tournaments(), ops + [sweep], m, setup_s=0.5)
    assert extra["speed_scale"] == pytest.approx(1 / 3)  # median of all four
    assert e2e["setup_s"] == pytest.approx(0.5 / 3)
    assert e2e["op_tail_ms"] == pytest.approx(5.0)
    assert e2e["ops_per_s"] == pytest.approx(1000.0)
    assert extra["measured_op_tail_ms"] == pytest.approx(10.0)
    assert extra["measured_ops_per_s"] == pytest.approx(250.0)
    assert e2e["peak_rss_mb"] == extra["measured_peak_rss_mb"]
    assert reference.reference_task() == reference.ANSWER


def test_gauge_time_is_taken_off_the_interrupted_operation():
    g = reference.Gauge()
    g.samples = [(1.0, 0.1), (2.0, 0.2), (3.0, 0.4)]
    assert g.spent() == pytest.approx(0.7)
    assert g.spent(1.5, 3.0) == pytest.approx(0.2)  # starts in [t0, t1)
    assert g.spent(3.0, 3.5) == pytest.approx(0.4)


class _Spin:
    """A workload of two operations that each spin for 0.15 s."""

    min_passes = 2

    def run(self, item):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.15:
            pass
        return item.label

    def keep(self, item, out):
        return out

    def check(self, item, out):
        assert out == item.label

    def finish(self, items, outs):
        pass


def test_gauge_samples_through_operations_and_is_removed():
    items = [Item("a", None), Item("b", None)]
    gauge = reference.Gauge(every=0.05)
    m = run.measure(_Spin(), items, 0.0, 2, gauge=gauge)
    assert m.failed == 0 and m.passes == 2
    assert len(m.reference) >= 4 and m.reference == gauge.samples
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the spin runs on the wall clock, so the gauge's samples are taken off
    # times that were already 0.15 s long
    assert all(t < 0.15 for runs in m.runs.values() for _t0, _t1, t in runs)


def test_refined_canonical_form_gives_the_library_classes():
    # all 1024 labeled 5-tournaments fall into 12 isomorphism classes
    pairs = {}
    for bits in range(1 << 10):
        d = tournament(5, bits)
        pairs[bits] = (harness.canonical_form(d), refined_canonical_form(d))
    library = {a for a, _ in pairs.values()}
    refined = {b for _, b in pairs.values()}
    assert len(library) == len(refined) == len(set(pairs.values())) == 12
