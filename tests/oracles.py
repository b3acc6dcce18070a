"""Naive reference implementations used as independent test oracles.

Everything here is deliberately written with plain dicts, sets and
unpruned recursion, sharing no code path with the optimized library.  The
one exception is ``order_f1_by_cycles``, the cycle-by-cycle construction of
the F1 lemma, which is built from the library's Hamiltonian peeling.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from twoblock.detection import TwoBlockCertificate
from twoblock.digraph import DiCycle, Digraph, UGraph, induced, iter_bits
from twoblock.hamiltonian import ham_degeneracy_order
from twoblock.pipeline import CycleTree


def out_adjacency(d: Digraph) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in range(d.n)}
    for t, h in sorted(d.arcs):
        adj[t].append(h)
    return adj


def all_simple_paths(d: Digraph, u: int, v: int) -> list[tuple[int, ...]]:
    """Every simple directed path from u to v, by exhaustive DFS."""
    adj = out_adjacency(d)
    found: list[tuple[int, ...]] = []

    def walk(path: list[int]) -> None:
        w = path[-1]
        if w == v and len(path) > 1:
            found.append(tuple(path))
            return
        if w == v:
            return
        for x in adj[w]:
            if x not in path:
                path.append(x)
                walk(path)
                path.pop()

    if u == v:
        return []
    walk([u])
    return found


def two_block_pairs(d: Digraph, u: int, v: int) -> list[tuple[int, int]]:
    """All achievable (shorter, longer) length pairs of internally disjoint
    path pairs from u to v."""
    paths = all_simple_paths(d, u, v)
    pairs: list[tuple[int, int]] = []
    for p, q in combinations(paths, 2):
        if set(p[1:-1]) & set(q[1:-1]):
            continue
        lp, lq = len(p) - 1, len(q) - 1
        pairs.append((min(lp, lq), max(lp, lq)))
    return pairs


def first_pair_search(
    d: Digraph, u: int, v: int, kk: int, ll: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The first u->v path in lexicographic order with at least ``ll`` arcs
    that has a second path, and its first second path in the same order.

    A second path is another u->v path, internally disjoint from the first,
    such that the longer of the two has at least ``kk`` arcs and the shorter
    at least ``ll`` (kk >= ll).
    """
    paths = sorted(all_simple_paths(d, u, v))
    for p in paths:
        if len(p) - 1 < ll:
            continue
        for q in paths:
            lp, lq = len(p) - 1, len(q) - 1
            if (
                q != p
                and not set(p[1:-1]) & set(q[1:-1])
                and max(lp, lq) >= kk
                and min(lp, lq) >= ll
            ):
                return p, q
    return None


def oracle_two_block(d: Digraph, k: int, ell: int) -> bool:
    lo, hi = min(k, ell), max(k, ell)
    for u in range(d.n):
        for v in range(d.n):
            if u == v:
                continue
            for short, long_ in two_block_pairs(d, u, v):
                if short >= lo and long_ >= hi:
                    return True
    return False


def oracle_verify_certificate(d: Digraph, cert, k: int, ell: int) -> bool:
    """The set-based certificate check: vertex sets, path interiors and arcs
    looked up in ``d.arcs``, with every vertex range-checked first."""
    a, b = cert.path_a, cert.path_b
    if not set(a) | set(b) <= set(range(d.n)):
        return False
    if not a or not b or cert.u == cert.v:
        return False
    if a[0] != cert.u or b[0] != cert.u:
        return False
    if a[-1] != cert.v or b[-1] != cert.v:
        return False
    if a == b:
        return False
    if len(set(a)) != len(a) or len(set(b)) != len(b):
        return False
    if set(a[1:-1]) & set(b[1:-1]):
        return False
    if len(a) - 1 < k or len(b) - 1 < ell:
        return False
    return set(zip(a, a[1:])) | set(zip(b, b[1:])) <= d.arcs


def reaches(adj: dict[int, list[int]], u: int, v: int, allowed: set[int]) -> bool:
    """Whether v is reachable from u by a path inside ``allowed``, along the
    out-adjacency lists ``adj``."""
    if u not in allowed:
        return False
    seen, stack = {u}, [u]
    while stack:
        for h in adj[stack.pop()]:
            if h in allowed and h not in seen:
                seen.add(h)
                stack.append(h)
    return v in seen


def oracle_dominators(d: Digraph, u: int, allowed: int) -> list[int]:
    """Per vertex v reached from u inside ``allowed``, the bitmask of the x
    in ``allowed`` such that v is not reachable from u inside
    ``allowed - {x}``; 0 for every other vertex."""
    adj = out_adjacency(d)
    inside = {x for x in range(d.n) if (allowed >> x) & 1}
    dom = [0] * d.n
    for v in range(d.n):
        if reaches(adj, u, v, inside):
            for x in inside:
                if not reaches(adj, u, v, inside - {x}):
                    dom[v] |= 1 << x
    return dom


def oracle_two_disjoint_paths(d: Digraph, u: int, v: int, region: int) -> bool:
    """The cut-vertex Menger gate that exhaustive detection ran per pair
    before its dominator gate, on its own bitmask reachability.

    With the arc u->v present, the arc is one path and the other needs an
    interior vertex.  Otherwise a separating vertex lies on every u->v
    path, so only the interior of one shortest path, traced back through
    the breadth-first layers from u, is tested.
    """
    out_mask = [0] * d.n
    in_mask = [0] * d.n
    for t, h in d.arcs:
        out_mask[t] |= 1 << h
        in_mask[h] |= 1 << t

    def reach(start: int, allowed: int) -> int:
        seen = frontier = (1 << start) & allowed
        while frontier:
            nxt = 0
            for x in range(d.n):
                if (frontier >> x) & 1:
                    nxt |= out_mask[x]
            frontier = nxt & allowed & ~seen
            seen |= frontier
        return seen

    ubit, vbit = 1 << u, 1 << v
    if (out_mask[u] >> v) & 1:
        others = in_mask[v] & ~ubit
        return bool(reach(u, region & ~vbit) & others)
    layers = []
    seen = frontier = ubit
    while not frontier & vbit:
        if not frontier:
            return False
        layers.append(frontier)
        nxt = 0
        for x in range(d.n):
            if (frontier >> x) & 1:
                nxt |= out_mask[x]
        frontier = nxt & region & ~seen
        seen |= frontier
    x = v
    for layer in reversed(layers[1:]):
        back = in_mask[x] & layer
        wbit = back & -back
        if not reach(u, region & ~wbit) & vbit:
            return False
        x = wbit.bit_length() - 1
    return True


def all_cycles(d: Digraph) -> list[tuple[int, ...]]:
    """Every simple directed cycle, rotated so the minimum vertex comes first."""
    adj = out_adjacency(d)
    found: list[tuple[int, ...]] = []

    def walk(start: int, path: list[int]) -> None:
        w = path[-1]
        for x in adj[w]:
            if x == start and len(path) >= 2:
                found.append(tuple(path))
            elif x > start and x not in path:
                path.append(x)
                walk(start, path)
                path.pop()

    for s in range(d.n):
        walk(s, [s])
    return found


def cycles_through(d: Digraph, u: int) -> list[tuple[int, ...]]:
    """Every simple directed cycle through u, as a closed walk from u to u."""
    found = []
    for c in all_cycles(d):
        if u in c:
            i = c.index(u)
            found.append(c[i:] + c[:i] + (u,))
    return found


def oracle_longest_cycle_length(d: Digraph) -> int | None:
    cycles = all_cycles(d)
    if not cycles:
        return None
    return max(len(c) for c in cycles)


def oracle_chromatic(g: UGraph) -> int:
    """Smallest c admitting a proper coloring, by plain backtracking."""
    if g.n == 0:
        return 0
    edges = [(a, b) for a, b in g.edges]

    def colorable(c: int) -> bool:
        colors = [-1] * g.n

        def assign(v: int) -> bool:
            if v == g.n:
                return True
            for col in range(c):
                if all(
                    colors[w] != col
                    for a, b in edges
                    for w in ((b,) if a == v else (a,) if b == v else ())
                ):
                    colors[v] = col
                    if assign(v + 1):
                        return True
                    colors[v] = -1
            return False

        return assign(0)

    c = 1
    while not colorable(c):
        c += 1
    return c


def oracle_back_degree(g: UGraph, order: tuple[int, ...]) -> int:
    """Replay a deletion order with plain sets, return the worst degree."""
    neighbors = {v: set() for v in range(g.n)}
    for a, b in g.edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    remaining = set(range(g.n))
    worst = 0
    for v in order:
        remaining.discard(v)
        worst = max(worst, len(neighbors[v] & remaining))
    return worst


def order_f1_by_cycles(
    f1: Digraph, tree: CycleTree, k: int, ell: int
) -> tuple[int, ...]:
    """The F1 lemma's deletion order, cycle by cycle: each cycle's vertices
    (minus its parent vertex) are placed by the Hamiltonian peeling of the
    cycle's induced subdigraph."""
    build: list[int] = []
    for i, cyc in enumerate(tree.cycles):
        sub, corr = induced(f1, cyc.vertices)
        relabel = {v: j for j, v in enumerate(corr)}
        ham = DiCycle(tuple(relabel[v] for v in cyc.vertices))
        result = ham_degeneracy_order(sub, ham, k, ell)
        assert not isinstance(result, TwoBlockCertificate), i
        block = [corr[x] for x in reversed(result.order)]
        if i > 0:
            block = [v for v in block if v != tree.parent_vertex[i]]
        build.extend(block)
    return tuple(reversed(build))


def random_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    arcs = frozenset(
        (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p
    )
    return Digraph(n, arcs)


def canonical_form_brute(d: Digraph) -> int:
    """Least adjacency bitmask (bit ``t * n + h``) over all n! relabelings."""
    n = d.n
    best: int | None = None
    for perm in permutations(range(n)):
        bits = 0
        for t, h in d.arcs:
            bits |= 1 << (perm[t] * n + perm[h])
        if best is None or bits < best:
            best = bits
    return best if best is not None else 0


def canonical_form_reference(d: Digraph) -> int:
    """``harness.canonical_form`` as it was before its refinement keys were
    packed into integers: the same individualization-refinement search, with
    tuple keys, vertex-list cells, a confirming round after a discrete
    partition and one bit per arc for a leaf.  Its values, not only its
    classes, are those of the library's form."""
    return _reference_masks(d.n, d.out_mask, d.in_mask)


def _reference_masks(n: int, out: tuple[int, ...], inn: tuple[int, ...]) -> int:
    best: int | None = None
    stack = [_reference_refine(out, inn, [list(range(n))] if n else [])]
    while stack:
        cells = stack.pop()
        split = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if split is None:
            label = [0] * n
            for pos, (v,) in enumerate(cells):
                label[v] = pos
            bits = 0
            for pos, (v,) in enumerate(cells):
                for h in iter_bits(out[v]):
                    bits |= 1 << (pos * n + label[h])
            if best is None or bits < best:
                best = bits
            continue
        cell = cells[split]
        for v in cell:
            rest = [w for w in cell if w != v]
            stack.append(
                _reference_refine(
                    out, inn, cells[:split] + [[v], rest] + cells[split + 1 :]
                )
            )
    return best if best is not None else 0


def _reference_refine(
    out: tuple[int, ...], inn: tuple[int, ...], cells: list[list[int]]
) -> list[list[int]]:
    """Split every cell by each vertex's (out-count, in-count) into every
    cell, until no cell splits (the partition is equitable).

    The parts of a split cell replace it in increasing order of their key,
    which depends only on the ordered partition, never on vertex numbers.
    """
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        refined: list[list[int]] = []
        for c in cells:
            if len(c) == 1:
                refined.append(c)
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for v in c:
                key = tuple(
                    count
                    for m in masks
                    for count in ((out[v] & m).bit_count(), (inn[v] & m).bit_count())
                )
                parts.setdefault(key, []).append(v)
            refined.extend(parts[key] for key in sorted(parts))
        if len(refined) == len(cells):
            return refined
        cells = refined


def audit_bw_labeled(n: int) -> list[tuple[int, int, int, bool]]:
    """The ``bw-audit`` truth table by a sweep over every labeled tournament:
    ``(bits, k, ell, contains c(k, ell))`` for each bit pattern ascending
    and k = 1, ..., n-1, ell = n - k.  Pattern bit ``idx`` orients the
    ``idx``-th pair ``i < j`` (row-major) as ``i -> j`` when set, else
    ``j -> i``; each unordered pair is decided once, by ``oracle_two_block``.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rows = []
    for bits in range(1 << len(pairs)):
        d = Digraph(
            n,
            frozenset(
                (i, j) if (bits >> idx) & 1 else (j, i)
                for idx, (i, j) in enumerate(pairs)
            ),
        )
        found = {k: oracle_two_block(d, k, n - k) for k in range(1, n // 2 + 1)}
        rows.extend((bits, k, n - k, found[min(k, n - k)]) for k in range(1, n))
    return rows
