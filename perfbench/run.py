#!/usr/bin/env python3
"""Benchmark of the twoblock library, end to end and layer by layer.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Runs one workload (``pipeline``, ``hamiltonian`` or ``tournaments``, see
``perfbench/README.md``) in this process as a closed loop with one client:
each operation starts when the previous one returns.  The library is
imported from ``src/`` of the checkout this file sits in.

With ``--trace 0`` the operations run in passes until ``--seconds`` have
gone by and the workload's minimum number of passes is done; each
operation's latency is the median of its runs.  Set-up rounds (a
fresh-interpreter import plus building the inputs) run before and between
the passes.  A fixed reference task, timed every 0.5 s, gauges the
machine's speed, and the time metrics are reported at the reference speed
(``reference.py``); the figures as measured are printed as ``#`` lines.
Every output is checked, and the end-to-end metrics are printed.
With ``--trace 1`` the inputs are built once and one untraced and one traced
pass run; the per-layer metrics come from the traced spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every output passed its check, 1 when one did not, 2 on a usage error
or when the library's sources are missing.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from reference import Gauge, speed_scale  # noqa: E402
from tracer import Tracer, installed_wrappers, self_times  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("detection.find_two_block_cycle.neg.calls", "count"),
    ("detection.find_two_block_cycle.neg.self_s", "s"),
    ("detection.find_two_block_cycle.pos.calls", "count"),
    ("detection.find_two_block_cycle.pos.self_s", "s"),
    ("detection.find_two_block_cycle_through_arc.calls", "count"),
    ("detection.find_two_block_cycle_through_arc.self_s", "s"),
    ("detection.find_two_block_cycle_through_arc.hit_ratio", "ratio"),
    ("detection.longest_cycle.calls", "count"),
    ("detection.longest_cycle.self_s", "s"),
    ("detection.hamiltonian_cycle.calls", "count"),
    ("detection.hamiltonian_cycle.self_s", "s"),
    ("coloring.k_colorable.calls", "count"),
    ("coloring.k_colorable.self_s", "s"),
    ("coloring.k_colorable.colorable_ratio", "ratio"),
    ("coloring.degeneracy.self_s", "s"),
    ("pipeline.build_contraction_trace.self_s", "s"),
    ("pipeline.extract_cycle_tree.self_s", "s"),
    ("pipeline.validate_cycle_tree.self_s", "s"),
    ("pipeline.color_F.self_s", "s"),
    ("pipeline.validate_trace.self_s", "s"),
    ("pipeline.run_pipeline.self_s", "s"),
    ("pipeline.levels", "count"),
    ("hamiltonian.ham_degeneracy_order.self_s", "s"),
    ("hamiltonian.color_hamiltonian.self_s", "s"),
    ("harness.random_strong_ckl_free.self_s", "s"),
    ("harness.random_cycle_tree_free.self_s", "s"),
    ("harness.audit_bw_claim.self_s", "s"),
    ("harness.canonical_form.calls", "count"),
    ("harness.canonical_form.self_s", "s"),
    ("digraph.self_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

SETUPS = 3  # set-up rounds per run, spread over it; setup_s is their median
IMPORTS = 5  # fresh-interpreter imports per set-up round; their median counts


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile)``: the 11th largest sample, which exactly
    10 samples exceed, at percentile ``100 * (n - 10) / n``.
    """
    n = len(values)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


@dataclass
class Measured:
    """Each operation's runs and first output, keyed by item label (items
    sharing a label are repeated measurements of one operation)."""

    # (start, end, time) of every run; the time leaves out gauge samples
    runs: dict[str, list[tuple[float, float, float]]] = field(default_factory=dict)
    outs: dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    busy_s: float = 0.0  # time spent in operations, every run counted
    wall_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    reference: list[tuple[float, float]] = field(default_factory=list)  # gauge

    def latency(self, scaled: bool = False) -> dict[str, float]:
        """Each operation's median run time, as measured or, with
        ``scaled``, each run taken to the reference speed of its stretch
        first (when the run was gauged)."""
        out = {}
        for label, runs in self.runs.items():
            if scaled and self.reference:
                times = [t * speed_scale(self.reference, t0, t1) for t0, t1, t in runs]
            else:
                times = [t for _t0, _t1, t in runs]
            out[label] = statistics.median(times)
        return out


def _fail(m: Measured, label: str, exc: BaseException) -> None:
    m.failed += 1
    m.errors.append(f"{label}: {type(exc).__name__}: {exc}")
    traceback.print_exception(exc, file=sys.stderr)


def measure(
    workload,
    items,
    seconds: float,
    min_passes: int,
    tracer=None,
    after_pass=None,
    gauge: Gauge | None = None,
) -> Measured:
    """Closed loop over ``items`` in passes until ``seconds`` of passes have
    gone by and ``min_passes`` passes are done.  ``after_pass`` runs after
    each pass, outside the timing and outside the ``seconds``.  A ``gauge``
    samples once before the first operation and then runs through the
    passes; its samples are outside the ``seconds`` and taken off the
    operation they interrupted.

    Only the operation itself is timed.  Its check runs after it, untimed and
    untraced: an operation's first output gets the workload's full check,
    and what the workload keeps of every later output must equal what it
    kept of the first.
    """
    from workloads import CheckFailed  # imports the library; main() puts it on the path

    m = Measured()
    clock = time.perf_counter
    start = clock()
    outside = 0.0  # in after_pass or in the gauge

    def gauged(t0: float = float("-inf"), t1: float = float("inf")) -> float:
        return gauge.spent(t0, t1) if gauge is not None else 0.0

    if gauge is not None:
        gauge.sample()
    try:
        while m.passes < min_passes or clock() - start - outside - gauged() < seconds:
            if gauge is not None:
                gauge.start()
            for item in items:
                m.attempted += 1
                t0 = clock()
                try:
                    out = workload.run(item)
                except Exception as exc:  # a failed operation is counted, not fatal
                    _fail(m, item.label, exc)
                    continue
                t1 = clock()
                elapsed = t1 - t0 - gauged(t0, t1)
                m.busy_s += elapsed
                if tracer is not None:
                    tracer.paused = True
                try:
                    kept = workload.keep(item, out)
                    if item.label not in m.outs:
                        workload.check(item, out)
                    elif kept != m.outs[item.label]:
                        raise CheckFailed("output differs from an earlier run")
                except CheckFailed as exc:
                    _fail(m, item.label, exc)
                    continue
                finally:
                    if tracer is not None:
                        tracer.paused = False
                m.runs.setdefault(item.label, []).append((t0, t1, elapsed))
                m.outs.setdefault(item.label, kept)
            m.passes += 1
            if gauge is not None:
                gauge.stop()
            if after_pass is not None:
                t0 = clock()
                after_pass()
                outside += clock() - t0
    finally:
        if gauge is not None:
            gauge.stop()
    if gauge is not None:
        m.reference = gauge.samples
        if gauge.wrong:
            m.attempted += 1
            _fail(m, "reference", CheckFailed("the reference task gave a wrong answer"))
    if tracer is not None:
        tracer.paused = True
    try:
        workload.finish(items, m.outs)
    except CheckFailed as exc:
        m.attempted += 1
        _fail(m, "finish", exc)
    finally:
        if tracer is not None:
            tracer.paused = False
    m.wall_s = clock() - start - outside - gauged()
    return m


def _distinct(items) -> list:
    return list({it.label: it for it in items}.values())


def throughput(items, latency: dict[str, float]) -> float:
    """Work units per second of operation time, each operation at its
    median run time."""
    done = [it for it in _distinct(items) if it.units and it.label in latency]
    busy = sum(latency[it.label] for it in done)
    return sum(it.units for it in done) / busy if busy > 0 else 0.0


def _op_metrics(items, latency: dict[str, float]) -> tuple[dict, float, int]:
    lat = [
        latency[it.label]
        for it in _distinct(items)
        if it.latency and it.label in latency
    ]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "op_tail_ms": 1000.0 * tail_s,
        "ops_per_s": throughput(items, latency),
    }
    return metrics, tail_pct, len(lat)


def end_to_end(workload, items, m: Measured, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and extra figures.  When the run was gauged
    (see ``reference.py``), the metric times are at the reference speed, and
    the extra figures hold them as measured."""
    scale = speed_scale(m.reference) if m.reference else 1.0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops, tail_pct, samples = _op_metrics(items, m.latency(scaled=True))
    metrics = {"setup_s": setup_s * scale, **ops, "peak_rss_mb": rss_mb}
    ops, _pct, _n = _op_metrics(items, m.latency())
    measured = {"setup_s": setup_s, **ops, "peak_rss_mb": rss_mb}
    extra = {
        "speed_scale": scale,
        "reference_runs": len(m.reference),
        **{f"measured_{name}": value for name, value in measured.items()},
        "op_tail_percentile": tail_pct,
        "op_latency_samples": samples,
        "failed_ratio": m.failed / m.attempted,
        "passes": m.passes,
        "loop_wall_s": m.wall_s,
    }
    if hasattr(workload, "colors"):
        extra["colors_total"] = sum(workload.colors(o) for o in m.outs.values())
    return metrics, extra


def per_layer(spans: list, traced_wall: float, overhead: float) -> dict:
    own = self_times(spans)
    calls: dict[tuple[str, str], int] = {}
    busy: dict[tuple[str, str], float] = {}
    levels = 0
    for span in spans:
        name, tag = span[2], span[5]
        if name == "pipeline.build_contraction_trace" and tag.startswith("levels="):
            levels += int(tag.split("=", 1)[1])
        key = (name, tag)
        calls[key] = calls.get(key, 0) + 1
        busy[key] = busy.get(key, 0.0) + own[span[0]]

    def n(name: str, tag: str | None = None) -> int:
        return sum(c for (nm, t), c in calls.items() if nm == name and tag in (None, t))

    def s(name: str, tag: str | None = None) -> float:
        picked = (b for (nm, t), b in busy.items() if nm == name and tag in (None, t))
        return sum(picked, 0.0)

    def ratio(a: int, b: int) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    fb = "detection.find_two_block_cycle"
    for tag in ("neg", "pos"):
        out[f"{fb}.{tag}.calls"] = n(fb, tag)
        out[f"{fb}.{tag}.self_s"] = s(fb, tag)
    arc = "detection.find_two_block_cycle_through_arc"
    out[f"{arc}.calls"] = n(arc)
    out[f"{arc}.self_s"] = s(arc)
    out[f"{arc}.hit_ratio"] = ratio(n(arc, "hit"), n(arc))
    for name in ("detection.longest_cycle", "detection.hamiltonian_cycle"):
        out[f"{name}.calls"] = n(name)
        out[f"{name}.self_s"] = s(name)
    kc = "coloring.k_colorable"
    out[f"{kc}.calls"] = n(kc)
    out[f"{kc}.self_s"] = s(kc)
    out[f"{kc}.colorable_ratio"] = ratio(n(kc, "hit"), n(kc))
    for name in (
        "coloring.degeneracy",
        "pipeline.build_contraction_trace",
        "pipeline.extract_cycle_tree",
        "pipeline.validate_cycle_tree",
        "pipeline.color_F",
        "pipeline.validate_trace",
        "pipeline.run_pipeline",
        "hamiltonian.ham_degeneracy_order",
        "hamiltonian.color_hamiltonian",
        "harness.random_strong_ckl_free",
        "harness.random_cycle_tree_free",
        "harness.audit_bw_claim",
    ):
        out[f"{name}.self_s"] = s(name)
    out["pipeline.levels"] = levels
    out["harness.canonical_form.calls"] = n("harness.canonical_form")
    out["harness.canonical_form.self_s"] = s("harness.canonical_form")
    out["digraph.self_s"] = sum(
        (b for (nm, _t), b in busy.items() if nm.startswith("digraph.")), 0.0
    )
    out["trace.coverage"] = sum(own.values()) / traced_wall if traced_wall > 0 else 0.0
    out["trace.overhead_ratio"] = overhead
    return out


def import_seconds() -> float:
    """Time to import the library in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import twoblock, twoblock.harness; "
        "print(repr(time.perf_counter() - t))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def git_revision() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload", required=True, choices=("pipeline", "hamiltonian", "tournaments")
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "twoblock" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    record: dict[str, Any] = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "loadavg_start": loadavg(),
    }

    sys.path.insert(0, str(SRC))
    import twoblock  # noqa: F401
    from twoblock import detection, harness

    if not Path(twoblock.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: twoblock imported from {twoblock.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS[args.workload]
    unwrapped = harness.find_two_block_cycle is detection.find_two_block_cycle
    if installed_wrappers() or not unwrapped:
        print("error: tracer wrappers installed before the run", file=sys.stderr)
        return 2

    if not args.trace:
        # Set-up rounds run before the first pass and after the passes, so
        # their median does not hang on one slow phase of the machine.
        # Every round must build the same inputs as the first.
        rounds: list[dict[str, float]] = []
        first: list = []

        def setup_round() -> None:
            if len(rounds) >= SETUPS:
                return
            import_s = statistics.median(import_seconds() for _ in range(IMPORTS))
            t0 = time.perf_counter()
            built = workload.build(args.seed)
            build_s = time.perf_counter() - t0
            same = built == (first or built)
            rounds.append({"import_s": import_s, "build_s": build_s, "same": same})
            if not first:
                first.extend(built)

        setup_round()
        items = first
        m = measure(
            workload,
            items,
            args.seconds,
            workload.min_passes,
            after_pass=setup_round,
            gauge=Gauge(),
        )
        while len(rounds) < SETUPS:
            setup_round()
        for r in rounds[1:]:
            m.attempted += 1
            if not r["same"]:
                _fail(m, "set-up", CheckFailed("set-up is not deterministic"))
        setup_s = statistics.median(r["import_s"] + r["build_s"] for r in rounds)
        metrics, extra = end_to_end(workload, items, m, setup_s)
        extra["setup_rounds"] = rounds
        units = dict(END_TO_END)
    else:
        tracer = Tracer()
        with tracer:
            t0 = time.perf_counter()
            items = workload.build(args.seed)
            build_wall = time.perf_counter() - t0
        if installed_wrappers():
            print("error: tracer wrappers left installed", file=sys.stderr)
            return 2
        untraced = measure(workload, items, 0, 1)
        with tracer:
            m = measure(workload, items, 0, 1, tracer=tracer)
        # Both passes ran the same operations, so the ratio of their busy
        # times is the ratio of their throughputs.
        traced_wall = build_wall + m.busy_s
        overhead = untraced.busy_s / m.busy_s - 1.0
        metrics = per_layer(tracer.spans, traced_wall, overhead)
        m.attempted += untraced.attempted
        m.failed += untraced.failed
        m.errors += untraced.errors
        extra = {"spans": len(tracer.spans), "traced_wall_s": traced_wall}
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans-{args.workload}.jsonl.gz"))
        units = dict(PER_LAYER)

    metrics = {name: metrics[name] for name in units}
    record.update(
        inputs=workload.inputs,
        attempted=m.attempted,
        failed=m.failed,
        errors=m.errors[:20],
        metrics=metrics,
        extra=extra,
        latencies_ms={label: 1000.0 * t for label, t in m.latency().items()},
        loadavg_end=loadavg(),
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    for key in (
        "workload", "seed", "python", "cpu_count", "git_revision", "inputs",
        "loadavg_start", "loadavg_end",
    ):
        print(f"# {key}: {record[key]}")
    for key, value in extra.items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(
        json.dumps(
            {
                "correct": m.failed == 0,
                "attempted": m.attempted,
                "failed": m.failed,
                "metrics": {
                    k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                },
            }
        )
    )
    return 0 if m.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
