"""Command-line surface binding the library into a usable tool.

Exit codes: 0 success/found, 1 verified negative, 2 usage or I/O error,
3 precondition violated, 4 cap exceeded in strict mode, 5 a failed internal
invariant (a result that did not pass its own verification).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness, io
from .coloring import DEFAULT_COLOR_CAP, chromatic_number, is_proper
from .detection import (
    DEFAULT_CYCLE_CAP,
    AbsenceReport,
    TwoBlockCertificate,
    find_two_block_cycle,
    hamiltonian_cycle,
    longest_cycle,
    raised_cap,
    verify_certificate,
)
from .digraph import (
    Digraph,
    DiCycle,
    DiPath,
    build_digraph,
    cycle_segment,
    is_strong,
    underlying_graph,
)
from .errors import (
    Acyclic,
    AttachMismatch,
    CapExceeded,
    NotHamiltonian,
    NotStrong,
    ParseError,
    PreconditionViolated,
    StructuralViolation,
    TwoBlockError,
    UsageError,
)
from .hamiltonian import color_hamiltonian
from .pipeline import pipeline_report, run_pipeline

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5

# The five-vertex strong tournament with chi = 5 and no c(4, 1); ships both
# here and as fixtures/figure1.edges.
FIGURE1_ARCS = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (3, 1), (0, 2), (0, 3), (1, 4), (2, 4),
)


def figure1_tournament() -> Digraph:
    return build_digraph(5, FIGURE1_ARCS)


def _resolve_cap(args: argparse.Namespace) -> int | None:
    if getattr(args, "cap", None) is not None:
        return args.cap
    raw = os.environ.get("TWOBLOCK_CAP")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"TWOBLOCK_CAP must be an integer, got {raw!r}") from None


def _emit_coloring(
    args, d: Digraph, coloring, extra: dict | None = None, text: str | None = None
) -> None:
    """Check ``coloring``, then print it as JSON (with ``extra``) or as
    ``text`` and write the DOT file if asked."""
    if not is_proper(underlying_graph(d), coloring):
        raise StructuralViolation("emitted coloring is not proper")
    if args.json:
        print(io.to_json({"coloring": io.coloring_to_dict(coloring), **(extra or {})}))
    else:
        print(text or f"proper coloring with {coloring.palette_size} colors")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(io.write_dot(d, coloring))


def _cmd_detect(args) -> int:
    d = io.read_edge_list(args.file)
    cap = _resolve_cap(args)
    result = find_two_block_cycle(
        d, args.k, args.ell, cap=cap, strict=args.strict
    )
    print(io.to_json(result.to_json_dict()))
    return EXIT_OK if isinstance(result, TwoBlockCertificate) else EXIT_NEGATIVE


def _cmd_color(args) -> int:
    d = io.read_edge_list(args.file)
    result = run_pipeline(
        d, args.k, args.ell, detect_cap=_resolve_cap(args), strict=args.strict
    )
    if isinstance(result, TwoBlockCertificate):
        print("input contains a two-block cycle; certificate follows")
        print(io.to_json(result.to_json_dict()))
        return EXIT_OK
    if not args.json:
        print(pipeline_report(result))
    _emit_coloring(
        args,
        d,
        result.coloring,
        extra={"bound": result.bound, "trace": io.trace_to_dict(result.trace)},
    )
    return EXIT_OK


def _cmd_ham_color(args) -> int:
    d = io.read_edge_list(args.file)
    cap = _resolve_cap(args)
    ham = hamiltonian_cycle(d, cap=raised_cap(cap, DEFAULT_CYCLE_CAP))
    if ham is None:
        raise NotHamiltonian("input has no Hamiltonian cycle")
    if args.k + args.ell == 2:
        return _induced_cycle_check(args, d, ham)
    result = color_hamiltonian(d, ham, args.k, args.ell, cap=cap, strict=args.strict)
    if isinstance(result, TwoBlockCertificate):
        print("input contains a two-block cycle; certificate follows")
        print(io.to_json(result.to_json_dict()))
        return EXIT_OK
    _emit_coloring(args, d, result)
    return EXIT_OK


def _induced_cycle_check(args, d: Digraph, ham: DiCycle) -> int:
    # k = ell = 1: a Hamiltonian digraph free of c(1,1) is an induced cycle.
    chord = next((a for a in sorted(d.arcs) if a not in set(ham.arcs())), None)
    if chord is None:
        print("input is an induced directed cycle")
        _, coloring = chromatic_number(underlying_graph(d))
        _emit_coloring(args, d, coloring)
        return EXIT_OK
    u, v = chord
    cert = TwoBlockCertificate(u, v, DiPath(chord), cycle_segment(ham, u, v), 1, 1)
    if not verify_certificate(d, cert, 1, 1):
        raise StructuralViolation("chord certificate failed verification")
    print("input contains a two-block cycle; certificate follows")
    print(io.to_json(cert.to_json_dict()))
    return EXIT_OK


def _cmd_chromatic(args) -> int:
    d = io.read_edge_list(args.file)
    cap = _resolve_cap(args)
    chi, coloring = chromatic_number(
        underlying_graph(d), cap=raised_cap(cap, DEFAULT_COLOR_CAP)
    )
    _emit_coloring(
        args, d, coloring, extra={"chi": chi}, text=f"chromatic number: {chi}"
    )
    return EXIT_OK


def _cmd_longest_cycle(args) -> int:
    d = io.read_edge_list(args.file)
    cap = _resolve_cap(args)
    try:
        cycle = longest_cycle(
            d, cap=raised_cap(cap, DEFAULT_CYCLE_CAP), strict=args.strict
        )
    except Acyclic:
        print("acyclic: the digraph contains no directed cycle")
        return EXIT_NEGATIVE
    if args.json:
        print(io.to_json({"length": cycle.length, "cycle": list(cycle.vertices)}))
    else:
        print(f"longest cycle length {cycle.length}: {list(cycle.vertices)}")
    return EXIT_OK


def _cmd_verify_figure1(args) -> int:
    d = figure1_tournament()
    checks: list[tuple[str, bool]] = []
    checks.append(("strong", is_strong(d)))
    g = underlying_graph(d)
    checks.append(
        ("tournament", g.edge_count == d.n * (d.n - 1) // 2 and d.arc_count == g.edge_count)
    )
    chi, coloring = chromatic_number(g)
    checks.append(("chi = 5", chi == 5 and is_proper(g, coloring)))
    result = find_two_block_cycle(d, 4, 1)
    checks.append(
        (
            "no c(4,1), exhaustive",
            isinstance(result, AbsenceReport) and result.mode == "exhaustive",
        )
    )
    ok = all(passed for _, passed in checks)
    for name, passed in checks:
        print(f"{name}: {'ok' if passed else 'FAILED'}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_search(args) -> int:
    records = harness.search_problem1(args.n, workers=args.workers)
    count = harness.write_records(records, args.out)
    print(f"{count} strong tournaments on {args.n} vertices miss some pair; "
          f"records written to {args.out}")
    return EXIT_OK


def _cmd_bondy_check(args) -> int:
    instances = []
    for i in range(args.count):
        n = 3 + (i % (args.max_n - 2))
        instances.append(harness.random_strong_digraph(n, args.seed + i))
    report = harness.audit_bondy(instances, workers=args.workers)
    print(report.summary())
    return EXIT_OK if not report.violations else EXIT_NEGATIVE


def _cmd_bw_audit(args) -> int:
    report = harness.audit_bw_claim(args.n)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    print(report.summary())
    for row in report.violations()[:20]:
        print(
            f"violation: tournament bits={row.tournament_bits} "
            f"pair=({row.k},{row.ell})"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoblock",
        description="Detection, degeneracy and coloring tools for strong "
        "digraphs without a two-block cycle c(k, ell).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, kell: bool, json: bool, dot: bool, mode: bool):
        # Each subcommand takes only the flags it reads.
        if kell:
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--ell", type=int, required=True,
                           help="second block length (spelled out to avoid -l)")
        p.add_argument("--cap", type=int, default=None,
                       help="exact-search size cap (TWOBLOCK_CAP overrides default)")
        if json:
            p.add_argument("--json", action="store_true")
        if dot:
            p.add_argument("--dot", metavar="OUT.dot", default=None)
        if mode:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--strict", dest="strict", action="store_true",
                               default=True)
            group.add_argument("--heuristic", dest="strict", action="store_false")
        p.add_argument("file", help="edge-list file (first line n, then 'tail head')")

    p = sub.add_parser("detect", help="search for c(k, ell)")
    add_common(p, kell=True, json=False, dot=False, mode=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("color", help="pipeline coloring of a strong digraph")
    add_common(p, kell=True, json=True, dot=True, mode=True)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("ham-color", help="degeneracy coloring of a Hamiltonian digraph")
    add_common(p, kell=True, json=True, dot=True, mode=True)
    p.set_defaults(func=_cmd_ham_color)

    p = sub.add_parser("chromatic", help="exact chromatic number")
    add_common(p, kell=False, json=True, dot=True, mode=False)
    p.set_defaults(func=_cmd_chromatic)

    p = sub.add_parser("longest-cycle", help="exact longest directed cycle")
    add_common(p, kell=False, json=True, dot=False, mode=True)
    p.set_defaults(func=_cmd_longest_cycle)

    p = sub.add_parser("verify-figure1", help="check the 5-vertex tight example")
    p.set_defaults(func=_cmd_verify_figure1)

    p = sub.add_parser("search", help="strong small tournaments missing a pair")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default="results.jsonl")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("bondy-check", help="longest cycle vs chromatic number audit")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_bondy_check)

    p = sub.add_parser("bw-audit", help="all-tournament two-block truth table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bw_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (PreconditionViolated, NotStrong, NotHamiltonian, Acyclic) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (StructuralViolation, AttachMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except TwoBlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
