"""Span tracing of the library's layers, installed from outside ``src/``.

A :class:`Tracer` replaces selected public functions of ``twoblock`` modules
with wrappers that record one span per call: name, parent span, start, end
and a short result tag.  Because modules bind imported names in their own
namespace (``harness``, ``pipeline`` and ``hamiltonian`` each hold their own
reference to ``find_two_block_cycle``), a wrapper is installed under the
function's name in every loaded ``twoblock`` module that holds it.
:meth:`Tracer.restore` puts every original back.

Spans are kept in memory and summarized at the end; a layer's self time is
its span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from typing import Any, Callable, Iterable

_MARK = "__perfbench_original__"

# The wrapped functions, per layer (a module of ``twoblock``).  Small helpers
# called millions of times per run (``reach_mask``, ``iter_bits``,
# ``path_in``) are left unwrapped: a span per call would cost more than the
# work they do, and their time lands in the self time of the caller.
LAYERS: dict[str, tuple[str, ...]] = {
    "detection": (
        "find_two_block_cycle",
        "find_two_block_cycle_through_arc",
        "longest_cycle",
        "hamiltonian_cycle",
    ),
    "coloring": ("k_colorable", "degeneracy"),
    "pipeline": (
        "run_pipeline",
        "build_contraction_trace",
        "extract_cycle_tree",
        "validate_cycle_tree",
        "color_F",
        "validate_trace",
    ),
    "hamiltonian": ("ham_degeneracy_order", "color_hamiltonian"),
    "harness": (
        "random_strong_ckl_free",
        "random_cycle_tree_free",
        "audit_bw_claim",
        "canonical_form",
    ),
    "digraph": ("contract", "induced", "underlying_graph", "is_strong"),
}


def _tag(name: str, result: Any) -> str:
    """A short, deterministic description of one call's outcome."""
    if name == "detection.find_two_block_cycle":
        return "pos" if type(result).__name__ == "TwoBlockCertificate" else "neg"
    if name in ("detection.find_two_block_cycle_through_arc", "coloring.k_colorable"):
        return "hit" if result is not None else "miss"
    if name == "pipeline.build_contraction_trace":
        steps = getattr(result, "steps", None)
        return f"levels={len(steps)}" if steps is not None else "cert"
    return ""


class Tracer:
    """Collects spans from wrapped library functions while installed and
    not ``paused``."""

    def __init__(self) -> None:
        # Each span: [span_id, parent_id or -1, name, start, end, tag].
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Callable]] = []
        self.paused = False

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.paused:
                return fn(*args, **kwargs)
            span_id = len(spans)
            span = [span_id, stack[-1] if stack else -1, name, clock(), 0.0, ""]
            spans.append(span)
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            span[5] = _tag(name, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def install(self) -> None:
        """Wrap every function in :data:`LAYERS` under its name in every
        ``twoblock`` module that holds it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "twoblock" or key.startswith("twoblock."))
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"twoblock.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                if hasattr(original, _MARK):
                    raise RuntimeError(f"{layer}.{fname} is already wrapped")
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if module.__dict__.get(fname) is original:
                        self._installed.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def restore(self) -> None:
        """Put every original function back where a wrapper was installed."""
        while self._installed:
            module, fname, original = self._installed.pop()
            setattr(module, fname, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def installed_wrappers() -> list[str]:
    """``module.name`` of every tracer wrapper found in loaded ``twoblock``
    modules; empty when no tracer is installed."""
    found = []
    for key, module in sorted(sys.modules.items()):
        if module is None or not (key == "twoblock" or key.startswith("twoblock.")):
            continue
        for name, value in list(module.__dict__.items()):
            if callable(value) and hasattr(value, _MARK):
                found.append(f"{key}.{name}")
    return found


def self_times(spans: Iterable[list[Any]]) -> dict[int, float]:
    """Self time of each span: its duration minus the union of the parts of
    its interval that its direct children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, parent, _name, start, end, _tag in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[int, float] = {}
    for span_id, _parent, _name, start, end, _tag in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out
