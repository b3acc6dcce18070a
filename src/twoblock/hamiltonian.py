"""Degeneracy orders for Hamiltonian digraphs without a two-block cycle.

The constructive dichotomy: a Hamiltonian digraph whose underlying graph has
minimum degree at least ``k + ell`` contains a ``c(k, ell)``, so a digraph
free of them always offers a vertex of degree at most ``k + ell - 1``.
Deleting that vertex and shortcutting the Hamiltonian cycle around it keeps
the digraph Hamiltonian and free, which peels off a ``(k + ell - 1)``-bounded
elimination order; greedy coloring along it then needs at most ``k + ell``
colors.

Any certificate discovered on a shortcut digraph is replayed back through the
added arcs (each replaced by the two-arc detour through its deleted vertex)
and certified level by level.
"""

from __future__ import annotations

from .coloring import Coloring, EliminationOrder, greedy_color_by_order, is_proper
from .detection import (
    DEFAULT_DETECT_CAP,
    AbsenceReport,
    TwoBlockCertificate,
    certify,
    find_two_block_cycle,
)
from .digraph import Digraph, DiCycle, cycle_in, induced, underlying_graph
from .errors import (
    CapExceeded,
    NotHamiltonian,
    PreconditionViolated,
    StructuralViolation,
)


def _check_hamiltonian(d: Digraph, ham: DiCycle) -> None:
    if len(ham.vertices) != d.n or set(ham.vertices) != set(range(d.n)):
        raise NotHamiltonian("cycle does not span the vertex set")
    if not cycle_in(d, ham):
        raise NotHamiltonian("cycle uses an arc missing from the digraph")


def _no_certificate(report: AbsenceReport, n: int, cap: int | None) -> Exception:
    """The error for a detection miss on a level whose degrees are all at
    least ``k + ell``: a contradiction of the dichotomy if the search was
    exhaustive, else a level too large for the cap."""
    if report.mode == "exhaustive":
        return StructuralViolation(
            "min degree >= k + ell yet exhaustive detection found no c(k, ell)"
        )
    cap = DEFAULT_DETECT_CAP if cap is None else cap
    return CapExceeded(
        f"min degree >= k + ell on {n} vertices, above the detection cap "
        f"{cap}, and the capped search found no c(k, ell)"
    )


def low_degree_or_certificate(
    d: Digraph,
    ham: DiCycle,
    k: int,
    ell: int,
    *,
    cap: int | None = None,
    strict: bool = True,
) -> int | TwoBlockCertificate:
    """A vertex of underlying degree <= k + ell - 1, else a verified certificate.

    When every degree is at least ``k + ell`` the certificate branch cannot
    fail: exhaustive detection reporting absence would contradict the
    minimum-degree dichotomy and raises :class:`StructuralViolation`.  A
    capped search that finds nothing raises :class:`CapExceeded`.
    """
    if k < 1 or ell < 1 or k + ell < 3:
        raise PreconditionViolated("need k, ell >= 1 and k + ell >= 3")
    _check_hamiltonian(d, ham)
    for v in range(d.n):
        if d.underlying_degree(v) <= k + ell - 1:
            return v
    result = find_two_block_cycle(d, k, ell, cap=cap, strict=strict)
    if isinstance(result, AbsenceReport):
        raise _no_certificate(result, d.n, cap)
    return result


def ham_degeneracy_order(
    d: Digraph,
    ham: DiCycle,
    k: int,
    ell: int,
    *,
    cap: int | None = None,
    strict: bool = True,
) -> EliminationOrder | TwoBlockCertificate:
    """Peel a ``(k + ell - 1)``-bounded deletion order, or surface a certificate.

    The input promise (no ``c(k, ell)``) is checked first and a violation is
    returned as the certificate; on a generator's output within the cap, the
    generator's proof on that object answers the check without a second
    search (see ``detection.prove_free``).  Each round then deletes the
    lowest-id vertex of underlying degree at most ``k + ell - 1`` and adds
    the shortcut arc between its cycle neighbors (set semantics: re-adding
    an existing arc changes nothing, and only genuinely new arcs participate
    in certificate replay).  Every level keeps the input's vertex ids, with
    the deleted vertices isolated.  Recursion stops once at most ``k + ell``
    vertices remain; any order works there.  A round with no low-degree
    vertex can only happen after a capped (heuristic) negative; detection
    then runs on that level and the certificate is replayed back.
    """
    if k < 1 or ell < 1 or k + ell < 3:
        raise PreconditionViolated("need k, ell >= 1 and k + ell >= 3")
    _check_hamiltonian(d, ham)
    upfront = find_two_block_cycle(d, k, ell, cap=cap, strict=strict)
    if isinstance(upfront, TwoBlockCertificate):
        return upfront
    level = d
    cycle = list(ham.vertices)
    order: list[int] = []
    # One entry per round: the level before it, the deleted vertex, and the
    # shortcut arc if the round added it (None if it was already there).
    rounds: list[tuple[Digraph, int, tuple[int, int] | None]] = []

    while len(cycle) > k + ell:
        low = [w for w in cycle if level.underlying_degree(w) <= k + ell - 1]
        if not low:
            sub, corr = induced(level, cycle)
            found = find_two_block_cycle(sub, k, ell, cap=cap, strict=strict)
            if isinstance(found, AbsenceReport):
                raise _no_certificate(found, sub.n, cap)
            return _replay_certificate(found, corr, level, rounds, k, ell)
        w = min(low)
        i = cycle.index(w)
        shortcut = (cycle[i - 1], cycle[(i + 1) % len(cycle)])
        new = None if level.has_arc(*shortcut) else shortcut
        rounds.append((level, w, new))
        keep = ~(1 << w)
        out = [mask & keep for mask in level.out_mask]
        inn = [mask & keep for mask in level.in_mask]
        out[w] = inn[w] = 0
        out[shortcut[0]] |= 1 << shortcut[1]
        inn[shortcut[1]] |= 1 << shortcut[0]
        level = Digraph.from_masks(d.n, tuple(out), tuple(inn))
        order.append(w)
        cycle.pop(i)

    order.extend(sorted(cycle))
    return EliminationOrder(tuple(order), k + ell - 1)


def _replay_certificate(
    found: TwoBlockCertificate,
    corr: tuple[int, ...],
    level: Digraph,
    rounds: list[tuple[Digraph, int, tuple[int, int] | None]],
    k: int,
    ell: int,
) -> TwoBlockCertificate:
    """Map a certificate found on a relabeled copy of ``level`` back to the
    input's ids and certify it on ``level``, then lift it through the
    shortcut rounds, certifying it at every stored level; the first round
    stored the input digraph itself."""
    a = tuple(corr[x] for x in found.path_a)
    b = tuple(corr[x] for x in found.path_b)
    cert = certify(level, a, b, k, ell)
    for level, deleted, shortcut in reversed(rounds):
        if shortcut is not None:
            a, b = _expand_arc(a, shortcut, deleted), _expand_arc(b, shortcut, deleted)
        cert = certify(level, a, b, k, ell)
    return cert


def _expand_arc(
    vs: tuple[int, ...], arc: tuple[int, int], mid: int
) -> tuple[int, ...]:
    for i in range(len(vs) - 1):
        if (vs[i], vs[i + 1]) == arc:
            return vs[: i + 1] + (mid,) + vs[i + 1 :]
    return vs


def color_hamiltonian(
    d: Digraph,
    ham: DiCycle,
    k: int,
    ell: int,
    *,
    cap: int | None = None,
    strict: bool = True,
) -> Coloring | TwoBlockCertificate:
    """Color a two-block-free Hamiltonian digraph with at most k + ell colors."""
    result = ham_degeneracy_order(d, ham, k, ell, cap=cap, strict=strict)
    if isinstance(result, TwoBlockCertificate):
        return result
    g = underlying_graph(d)
    coloring = greedy_color_by_order(g, result)
    if coloring.palette_size > k + ell or not is_proper(g, coloring):
        raise StructuralViolation(
            f"greedy coloring used {coloring.palette_size} > {k + ell} colors"
        )
    return coloring
