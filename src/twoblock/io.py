"""Edge-list parsing, DOT export, and JSON serialization helpers."""

from __future__ import annotations

from typing import IO, TYPE_CHECKING

from .digraph import Digraph, add_arc
from .errors import ParseError, TwoBlockError

if TYPE_CHECKING:
    from .coloring import Coloring
    from .pipeline import ContractionTrace


def read_edge_list(source: str | IO[str]) -> Digraph:
    """Parse the text format: first line ``n``, then one ``tail head`` per line.

    Blank lines are skipped and ``#`` starts a comment (whole-line or
    trailing).  Vertex ids are 0-based.  A loop, duplicate or out-of-range
    arc is reported at its own line.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = source.readlines()
    n: int | None = None
    arcs: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if n is None:
            if len(fields) != 1:
                raise ParseError("expected a single vertex count", lineno)
            try:
                n = int(fields[0])
            except ValueError:
                raise ParseError(f"bad vertex count {fields[0]!r}", lineno) from None
            if n < 0:
                raise ParseError("vertex count must be nonnegative", lineno)
            continue
        if len(fields) != 2:
            raise ParseError(f"expected 'tail head', got {text!r}", lineno)
        try:
            tail, head = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {text!r}", lineno) from None
        try:
            add_arc(arcs, n, tail, head)
        except TwoBlockError as exc:
            raise ParseError(str(exc), lineno) from exc
    if n is None:
        raise ParseError("missing vertex count line", len(lines) + 1)
    return Digraph(n, frozenset(arcs))


def _dot_color(index: int, palette: int) -> str:
    hue = index / max(palette, 1)
    return f"{hue:.3f} 0.45 1.000"


def write_dot(d: Digraph, coloring: Coloring | None = None) -> str:
    """DOT text with arc directions; vertices get fill colors per color class."""
    lines = ["digraph twoblock {"]
    for v in range(d.n):
        if coloring is not None:
            col = _dot_color(coloring.colors[v], coloring.palette_size)
            lines.append(
                f'  {v} [style=filled, fillcolor="{col}", '
                f'label="{v} (c{coloring.colors[v]})"];'
            )
        else:
            lines.append(f"  {v};")
    for t, h in sorted(d.arcs):
        lines.append(f"  {t} -> {h};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def digraph_to_dict(d: Digraph) -> dict:
    return {"n": d.n, "arcs": sorted(list(a) for a in d.arcs)}


def coloring_to_dict(c: Coloring) -> dict:
    return {"palette_size": c.palette_size, "colors": list(c.colors)}


def trace_to_dict(trace: ContractionTrace) -> dict:
    return {
        "k": trace.k,
        "ell": trace.ell,
        "strict": trace.strict,
        "steps": [
            {
                "digraph": digraph_to_dict(step.digraph),
                "cycle": list(step.cycle.vertices),
                "new_vertex": step.new_vertex,
                "preimage": {
                    str(v): sorted(members)
                    for v, members in step.pmap.mapping.items()
                },
            }
            for step in trace.steps
        ],
        "final": digraph_to_dict(trace.final),
        "final_coloring": coloring_to_dict(trace.final_coloring),
    }


def to_json(payload: dict) -> str:
    import json
    return json.dumps(payload, sort_keys=True, indent=2)
