"""Exact desk-scale solvers for colorability, chromatic number and degeneracy.

The contraction pipeline asks "is this digraph (2k-3)-colorable?" at every
step, and the test harness uses the same solvers as oracles.  One DSATUR
search answers colorability: its greedy first descent settles every c <= 2,
clique bounds refuse next, and only then does the search run with c colors.
Everything here is exact; above the cap the exact searches run under the
work limit of ``detection``, and a search it cuts short raises
:class:`CapExceeded` instead of silently approximating.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import detection
from .digraph import UGraph, iter_bits
from .errors import CapExceeded, PreconditionViolated

DEFAULT_COLOR_CAP = 16


@dataclass(frozen=True)
class Coloring:
    """A vertex coloring; ``colors[v]`` is in ``[0, palette_size)``."""

    colors: tuple[int, ...]
    palette_size: int


@dataclass(frozen=True)
class EliminationOrder:
    """A deletion sequence certifying degeneracy.

    Scanning ``order`` left to right as deletions, every deleted vertex has at
    most ``bound`` neighbors still present at its deletion time.
    """

    order: tuple[int, ...]
    bound: int


def is_proper(g: UGraph, coloring: Coloring) -> bool:
    """Independent coloring checker: no monochromatic edge, all colors in range."""
    cols = coloring.colors
    if len(cols) != g.n:
        return False
    if any(not (0 <= c < coloring.palette_size) for c in cols):
        return False
    return all(cols[a] != cols[b] for a, b in g.edges)


def elimination_back_degree(g: UGraph, order: tuple[int, ...]) -> int:
    """Independent order checker: replay the deletions, return the worst degree.

    Raises :class:`PreconditionViolated` when ``order`` is not a permutation
    of the vertices.
    """
    if sorted(order) != list(range(g.n)):
        raise PreconditionViolated("order is not a permutation of the vertices")
    remaining = (1 << g.n) - 1
    worst = 0
    for v in order:
        remaining &= ~(1 << v)
        worst = max(worst, (g.adj_mask[v] & remaining).bit_count())
    return worst


def _greedy_clique(g: UGraph) -> list[int]:
    # Deterministic greedy clique, used only as a lower bound seed.
    by_degree = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    clique: list[int] = []
    cmask = 0
    for v in by_degree:
        if g.adj_mask[v] & cmask == cmask:
            clique.append(v)
            cmask |= 1 << v
    return clique


def _clique_of_size(
    g: UGraph, size: int, budget: int | None = None
) -> list[int] | None:
    """A clique of ``size`` vertices, or ``None`` when ``g`` has none.

    Branch and bound over (clique, candidates) bitmasks: the lowest candidate
    is either added, which keeps only its neighbours as candidates, or
    dropped.  A branch ends once its candidates cannot fill the clique, and
    the search ends at the first clique of ``size`` vertices.  With a
    ``budget`` it gives up with ``None`` after that many branches.
    """
    adj = g.adj_mask
    stack = [(0, (1 << g.n) - 1)]
    while stack:
        if budget is not None:
            budget -= 1
            if budget < 0:
                return None
        clique, cand = stack.pop()
        need = size - clique.bit_count()
        if need <= 0:
            return list(iter_bits(clique))
        if cand.bit_count() < need:
            continue
        low = cand & -cand
        stack.append((clique, cand ^ low))
        stack.append((clique | low, cand & adj[low.bit_length() - 1]))
    return None


def k_colorable(g: UGraph, c: int, *, cap: int | None = None) -> Coloring | None:
    """Exact test: a proper coloring with at most ``c`` colors, or ``None``.

    The routes, in order: no edges or ``c >= n`` color at once; the greedy
    descent, the first descent of :func:`_color_backtrack` with ``n``
    colors, settles every ``c <= 2``, since it two-colors every bipartite
    graph; a greedy clique and then an exact search for a clique of ``c + 1``
    vertices refuse; only then does the search run with ``c`` colors.
    Above the cap each search may take ``detection._HEURISTIC_BUDGET``
    steps: a clique search cut short refuses nothing, and a cut search
    raises :class:`CapExceeded`, so ``None`` is always exact.
    """
    if c < 0:
        raise PreconditionViolated("palette size must be nonnegative")
    n = g.n
    if n == 0:
        return Coloring((), 0)
    if c == 0:
        return None
    if not g.edges:
        return Coloring((0,) * n, 1)
    if c >= n:
        return Coloring(tuple(range(n)), n)
    if c == 1:
        return None
    greedy = _color_backtrack(g, n, [])
    if greedy.palette_size <= c:
        return greedy
    if c == 2:
        return None
    clique = _greedy_clique(g)
    if len(clique) > c:
        return None
    cap = DEFAULT_COLOR_CAP if cap is None else cap
    budget = None if n <= cap else detection._HEURISTIC_BUDGET
    if _clique_of_size(g, c + 1, budget) is not None:
        return None
    return _color_backtrack(g, c, clique, budget)


def _color_backtrack(
    g: UGraph, c: int, clique: list[int], budget: int | None = None
) -> Coloring | None:
    # With a ``budget``, the search raises before its ``budget + 1``-th color.
    # With ``c >= n`` its first descent never backtracks: the least free
    # color is at most ``max_used + 1``, below ``n``.
    n = g.n
    adj = g.adj_mask
    degree = [mask.bit_count() for mask in adj]
    colors = [-1] * n
    neighbor_used = [0] * n
    uncolored = set(range(n)).difference(clique)
    # Pre-color the seed clique; distinct colors there lose no generality.
    for i, v in enumerate(clique):
        colors[v] = i
        for w in iter_bits(adj[v]):
            neighbor_used[w] |= 1 << i
    # Depth-first search: the most saturated uncolored vertex ``v`` tries the
    # colors from ``col`` up, never opening more than one new color.
    # ``stack`` holds (vertex, its color, ``max_used`` before it) for every
    # vertex colored by the search, so a dead end undoes the latest one and
    # retries it with its next color.
    stack: list[tuple[int, int, int]] = []
    max_used = len(clique) - 1
    v: int | None = None
    col = 0
    while uncolored:
        if v is None:
            v = max(
                uncolored,
                key=lambda w: (neighbor_used[w].bit_count(), degree[w], -w),
            )
            col = 0
        limit = min(max_used + 2, c)
        while col < limit and (neighbor_used[v] >> col) & 1:
            col += 1
        if col < limit:
            if budget is not None:
                budget -= 1
                if budget < 0:
                    raise CapExceeded(f"{c}-colorability ran out of its work limit")
            colors[v] = col
            uncolored.remove(v)
            for w in iter_bits(adj[v]):
                neighbor_used[w] |= 1 << col
            stack.append((v, col, max_used))
            max_used = max(max_used, col)
            v = None
        elif stack:
            v, col, max_used = stack.pop()
            colors[v] = -1
            uncolored.add(v)
            for w in iter_bits(adj[v]):
                if all(colors[x] != col for x in iter_bits(adj[w])):
                    neighbor_used[w] &= ~(1 << col)
            col += 1
        else:
            return None
    return Coloring(tuple(colors), max(colors) + 1)


def chromatic_number(g: UGraph, *, cap: int | None = None) -> tuple[int, Coloring]:
    """Exact chromatic number: the least ``c`` that :func:`k_colorable`
    accepts, sought from the greedy clique's size up, with its coloring."""
    c = len(_greedy_clique(g))
    while (coloring := k_colorable(g, c, cap=cap)) is None:
        c += 1
    return c, coloring


def degeneracy(g: UGraph) -> EliminationOrder:
    """Minimum-degree peeling; the achieved bound is the exact degeneracy."""
    remaining = (1 << g.n) - 1
    order: list[int] = []
    bound = 0
    for _ in range(g.n):
        v = min(
            iter_bits(remaining),
            key=lambda w: ((g.adj_mask[w] & remaining).bit_count(), w),
        )
        bound = max(bound, (g.adj_mask[v] & remaining).bit_count())
        order.append(v)
        remaining &= ~(1 << v)
    return EliminationOrder(tuple(order), bound)


def greedy_color_by_order(g: UGraph, order: EliminationOrder) -> Coloring:
    """Greedy coloring along the reversed deletion sequence.

    A valid order with bound ``d`` yields at most ``d + 1`` colors.
    """
    if sorted(order.order) != list(range(g.n)):
        raise PreconditionViolated("order does not cover the vertex set")
    colors = [-1] * g.n
    for v in reversed(order.order):
        used = 0
        for w in iter_bits(g.adj_mask[v]):
            if colors[w] != -1:
                used |= 1 << colors[w]
        c = 0
        while (used >> c) & 1:
            c += 1
        colors[v] = c
    palette = max(colors) + 1 if g.n else 0
    return Coloring(tuple(colors), palette)
