"""Contraction traces, cycle-trees, and the product coloring of strong digraphs.

Given a strong digraph free of two-block cycles ``c(k, ell)`` (k >= ell >= 1,
k >= 2), repeatedly contracting a longest cycle while the digraph is not
``(2k-3)``-colorable terminates in a small digraph whose coloring lifts back:
the preimage class of each final vertex spans a cycle-tree whose cycles all
have length at least ``2k - 2``.  Splitting each class ``F`` into a
``(k+2l-2)``-degenerate part and a 2-colorable part of label-crossing
external arcs colors the class with at most ``2(k+2l-1)`` colors, for a total
palette of at most ``2(2k-3)(k+2l-1)``.

Every structural guarantee used along the way (attach uniqueness during
un-contraction, short backward paths, comparability, per-prefix external
degrees, the degeneracy bound) is asserted by independent validators rather
than assumed, and any certificate discovered on a contracted level is lifted
back to the input digraph and re-verified level by level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .coloring import (
    DEFAULT_COLOR_CAP,
    Coloring,
    EliminationOrder,
    degeneracy,
    elimination_back_degree,
    greedy_color_by_order,
    is_proper,
    k_colorable,
)
from .detection import (
    DEFAULT_CYCLE_CAP,
    TwoBlockCertificate,
    _paths,
    find_two_block_cycle,
    longest_cycle,
    raised_cap,
    verify_certificate,
)
from .digraph import (
    Digraph,
    DiCycle,
    DiPath,
    PreimageMap,
    contract,
    cycle_in,
    cycle_segment,
    induced,
    is_strong,
    underlying_graph,
)
from .errors import (
    AttachMismatch,
    NotStrong,
    PreconditionViolated,
    StructuralViolation,
    VertexOutOfRange,
)
from .hamiltonian import ham_degeneracy_order


def class_palette_bound(k: int, ell: int) -> int:
    """Palette budget for one preimage class."""
    return 2 * (k + 2 * ell - 1)


def palette_bound(k: int, ell: int) -> int:
    """Total palette budget for a strong ``c(k, ell)``-free digraph."""
    return (2 * k - 3) * class_palette_bound(k, ell)


@dataclass(frozen=True)
class TraceStep:
    """One contraction: ``digraph`` with its contracted cycle and inverse map."""

    digraph: Digraph
    cycle: DiCycle
    pmap: PreimageMap
    new_vertex: int


@dataclass(frozen=True)
class ContractionTrace:
    """The contraction sequence, its final digraph and the stop coloring."""

    k: int
    ell: int
    steps: tuple[TraceStep, ...]
    final: Digraph
    final_coloring: Coloring
    strict: bool

    def lengths(self) -> tuple[int, ...]:
        return tuple(step.cycle.length for step in self.steps)

    def preimage_class(self, s: int) -> frozenset[int]:
        """All input vertices that end up inside final vertex ``s``."""
        if not (0 <= s < self.final.n):
            raise VertexOutOfRange(f"vertex {s} outside [0,{self.final.n})")
        cur: frozenset[int] = frozenset({s})
        for step in reversed(self.steps):
            cur = step.pmap.expand(cur)
        return cur


def build_contraction_trace(
    d: Digraph,
    k: int,
    ell: int,
    *,
    detect_cap: int | None = None,
    strict: bool = True,
    seed: int = 0,
) -> ContractionTrace | TwoBlockCertificate:
    """Contract longest cycles until the digraph is ``(2k-3)``-colorable.

    Every level is checked for ``c(k, ell)``; a hit aborts the trace and is
    lifted back to the input digraph, re-verified at each level on the way.
    ``detect_cap`` also raises the longest-cycle and coloring caps, never
    lowering them below their defaults (see :func:`raised_cap`).
    """
    if k < 2 or ell < 1 or ell > k:
        raise PreconditionViolated("need k >= 2 and k >= ell >= 1")
    if not is_strong(d):
        raise NotStrong("the pipeline needs a strongly connected digraph")
    cycle_cap = raised_cap(detect_cap, DEFAULT_CYCLE_CAP)
    color_cap = raised_cap(detect_cap, DEFAULT_COLOR_CAP)
    steps: list[TraceStep] = []
    cur = d
    prev_len: int | None = None
    while True:
        found = find_two_block_cycle(cur, k, ell, cap=detect_cap, strict=strict, seed=seed)
        if isinstance(found, TwoBlockCertificate):
            for step in reversed(steps):
                found = _uncontract_certificate(found, step, k, ell)
            return found
        coloring = k_colorable(underlying_graph(cur), 2 * k - 3, cap=color_cap)
        if coloring is not None:
            return ContractionTrace(k, ell, tuple(steps), cur, coloring, strict)
        cyc = longest_cycle(cur, cap=cycle_cap, strict=strict)
        if cyc.length < 2 * k - 2:
            raise StructuralViolation(
                f"longest cycle has length {cyc.length} < {2 * k - 2} although "
                f"the digraph is not ({2 * k - 3})-colorable"
            )
        if prev_len is not None and cyc.length > prev_len:
            raise StructuralViolation("contracted cycle lengths increased")
        prev_len = cyc.length
        nxt, pmap = contract(cur, cyc.vertices)
        steps.append(TraceStep(cur, cyc, pmap, nxt.n - 1))
        cur = nxt


def _uncontract_certificate(
    cert: TwoBlockCertificate, step: TraceStep, k: int, ell: int
) -> TwoBlockCertificate:
    """Replace the contracted vertex by a detour along the contracted cycle.

    A path through the contracted vertex enters the cycle at the lowest
    member its predecessor has an arc into, leaves at the lowest member with
    an arc to its successor, and follows the cycle in between; a path that
    starts (ends) there leaves where it enters.  If the two spliced paths
    then start or end at different members, ``path_a`` takes the cycle
    segment that joins them.
    """
    pm, v_s, cyc, d_i = step.pmap, step.new_vertex, step.cycle, step.digraph
    members = pm.of(v_s)
    pre = {x: min(image) for x, image in pm.mapping.items()}

    def splice(vs: tuple[int, ...]) -> tuple[int, ...]:
        if v_s not in vs:
            return tuple(pre[x] for x in vs)
        i = vs.index(v_s)
        before = tuple(pre[x] for x in vs[:i])
        after = tuple(pre[x] for x in vs[i + 1 :])
        enter = [w for w in members if before and d_i.has_arc(before[-1], w)]
        leave = [w for w in members if after and d_i.has_arc(w, after[0])]
        detour = cycle_segment(cyc, min(enter or leave), min(leave or enter))
        return before + detour.vertices + after

    a, b = splice(cert.path_a.vertices), splice(cert.path_b.vertices)
    if a[0] != b[0]:
        a = cycle_segment(cyc, b[0], a[0]).vertices + a[1:]
    if a[-1] != b[-1]:
        a = a[:-1] + cycle_segment(cyc, a[-1], b[-1]).vertices
    lifted = TwoBlockCertificate(a[0], a[-1], DiPath(a), DiPath(b), k, ell)
    if not verify_certificate(d_i, lifted, k, ell):
        raise StructuralViolation(
            "certificate lift failed verification at a contraction level"
        )
    return lifted


@dataclass(frozen=True)
class CycleTree:
    """A spanning cycle-tree of a preimage class, with its ordering and parents.

    ``cycles[0]`` is the root; ``parent_cycle[i]`` / ``parent_vertex[i]`` give,
    for every other cycle, the next cycle toward the root and the single
    vertex shared with it.
    """

    n: int
    cycles: tuple[DiCycle, ...]
    parent_cycle: tuple[int | None, ...]
    parent_vertex: tuple[int | None, ...]

    @cached_property
    def vertex_cycles(self) -> tuple[tuple[int, ...], ...]:
        found: list[list[int]] = [[] for _ in range(self.n)]
        for i, cyc in enumerate(self.cycles):
            for v in cyc.vertices:
                found[v].append(i)
        return tuple(tuple(c) for c in found)

    @cached_property
    def arc_set(self) -> frozenset[tuple[int, int]]:
        arcs: set[tuple[int, int]] = set()
        for cyc in self.cycles:
            arcs.update(cyc.arcs())
        return frozenset(arcs)

    @cached_property
    def depth(self) -> tuple[int, ...]:
        """Cycle-path length from every cycle to the root cycle."""
        return tuple(len(cycle_path(self, 0, i)) - 1 for i in range(len(self.cycles)))

    def shares_cycle(self, x: int, y: int) -> bool:
        return bool(set(self.vertex_cycles[x]) & set(self.vertex_cycles[y]))


def cycle_path(tree: CycleTree, i: int, j: int) -> tuple[int, ...]:
    """The unique cycle-path between two cycles, as ordering indices."""
    if i == j:
        return (i,)
    m = len(tree.cycles)
    vsets = [set(c.vertices) for c in tree.cycles]
    prev: dict[int, int] = {i: -1}
    queue = [i]
    while queue:
        nxt: list[int] = []
        for a in queue:
            for b in range(m):
                if b in prev or b == a:
                    continue
                if vsets[a] & vsets[b]:
                    prev[b] = a
                    nxt.append(b)
        if j in prev:
            break
        queue = nxt
        if not queue:
            raise StructuralViolation("cycle-tree is not connected")
    path = [j]
    while path[-1] != i:
        path.append(prev[path[-1]])
    path.reverse()
    return tuple(path)


def tree_path(tree: CycleTree, u: int, v: int) -> DiPath:
    """The directed path from ``u`` to ``v`` inside the cycle-tree.

    Uniqueness is part of the cycle-tree promise and is checked here rather
    than assumed: the path kernel of :mod:`detection` enumerates up to two
    u->v paths over the tree's arcs, and anything but exactly one raises
    :class:`StructuralViolation`.
    """
    if u == v:
        return DiPath((u,))
    t = Digraph(tree.n, tree.arc_set)
    full = (1 << tree.n) - 1
    found = [
        (*path, v) for path in islice(_paths(t.out_mask, t.in_mask, u, v, full, 0), 2)
    ]
    if len(found) != 1:
        raise StructuralViolation(
            f"expected a unique tree path {u}->{v}, found "
            + ("two or more" if found else "none")
        )
    return DiPath(found[0])


def _build_cycle_tree(n: int, ordered: list[list[int]]) -> CycleTree:
    cycles = tuple(DiCycle(tuple(c)) for c in ordered)
    bare = CycleTree(n, cycles, (None,) * len(cycles), (None,) * len(cycles))
    parent_cycle: list[int | None] = [None]
    parent_vertex: list[int | None] = [None]
    for i in range(1, len(cycles)):
        lam = cycle_path(bare, 0, i)
        p = lam[-2]
        shared = set(cycles[p].vertices) & set(cycles[i].vertices)
        if len(shared) != 1:
            raise StructuralViolation(
                f"cycles {p} and {i} share {len(shared)} vertices, expected 1"
            )
        parent_cycle.append(p)
        parent_vertex.append(shared.pop())
    return CycleTree(n, cycles, tuple(parent_cycle), tuple(parent_vertex))


def extract_cycle_tree(trace: ContractionTrace, s: int) -> CycleTree | None:
    """Rebuild the spanning cycle-tree of final vertex ``s``'s preimage class.

    The trace is replayed in reverse: whenever the contracted vertex sits on
    tree cycles, each such cycle must re-attach to the un-contracted cycle at
    one single vertex; two distinct attach endpoints mean an upstream
    violation and raise :class:`AttachMismatch`.  Returns ``None`` when the
    class is the singleton ``{s}``.

    Vertex ids in the result are dense over the sorted preimage class, the
    same correspondence :func:`induced` records.
    """
    if not (0 <= s < trace.final.n):
        raise VertexOutOfRange(f"vertex {s} outside [0,{trace.final.n})")
    cur: set[int] = {s}
    ordering: list[list[int]] = []

    def single(pm: PreimageMap, x: int) -> int:
        image = pm.of(x)
        if len(image) != 1:
            raise StructuralViolation("non-singleton preimage for a kept vertex")
        return next(iter(image))

    for step in reversed(trace.steps):
        pm, v_s = step.pmap, step.new_vertex
        if v_s not in cur:
            cur = {single(pm, x) for x in cur}
            ordering = [[single(pm, x) for x in cyc] for cyc in ordering]
            continue
        s_set = pm.of(v_s)
        if not ordering:
            if cur != {v_s}:
                raise StructuralViolation(
                    "empty cycle-tree for a class of more than one vertex"
                )
            cur = set(s_set)
            ordering = [list(step.cycle.vertices)]
            continue
        d_i = step.digraph
        new_ordering: list[list[int]] = []
        first_touch: int | None = None
        for pos, cyc in enumerate(ordering):
            if v_s not in cyc:
                new_ordering.append([single(pm, x) for x in cyc])
                continue
            if first_touch is None:
                first_touch = pos
            j = cyc.index(v_s)
            px = single(pm, cyc[j - 1])
            py = single(pm, cyc[(j + 1) % len(cyc)])
            w_in = {w for w in s_set if d_i.has_arc(px, w)}
            w_out = {w for w in s_set if d_i.has_arc(w, py)}
            if len(w_in | w_out) != 1:
                raise AttachMismatch(
                    f"re-attachment of a tree cycle is not unique: "
                    f"in={sorted(w_in)}, out={sorted(w_out)}"
                )
            attach = (w_in | w_out).pop()
            new_ordering.append(
                [attach if q == v_s else single(pm, q) for q in cyc]
            )
        if first_touch is None:
            raise StructuralViolation(
                "no tree cycle passes through the contracted vertex"
            )
        new_ordering.insert(first_touch + 1, list(step.cycle.vertices))
        ordering = new_ordering
        cur = set().union(*(pm.of(x) for x in cur))

    if not ordering:
        return None
    covered = set().union(*(set(c) for c in ordering))
    if covered != cur:
        raise StructuralViolation("cycle-tree does not span the preimage class")
    klass = sorted(cur)
    relabel = {v: i for i, v in enumerate(klass)}
    return _build_cycle_tree(
        len(klass), [[relabel[v] for v in cyc] for cyc in ordering]
    )


def validate_cycle_tree(
    f: Digraph, tree: CycleTree, lengths: tuple[int, ...], k: int
) -> None:
    """Independent check of every cycle-tree invariant; raises on violation."""
    if tree.n != f.n:
        raise StructuralViolation("cycle-tree host size mismatch")
    covered: set[int] = set()
    for cyc in tree.cycles:
        covered.update(cyc.vertices)
        if not cycle_in(f, cyc):
            raise StructuralViolation("tree cycle uses an arc missing from F")
        if cyc.length not in lengths:
            raise StructuralViolation(
                f"tree cycle length {cyc.length} not among contracted lengths"
            )
        if cyc.length < 2 * k - 2:
            raise StructuralViolation(f"tree cycle shorter than {2 * k - 2}")
    if covered != set(range(f.n)):
        raise StructuralViolation("cycle-tree is not spanning")
    union: set[int] = set(tree.cycles[0].vertices)
    for i in range(1, len(tree.cycles)):
        meet = set(tree.cycles[i].vertices) & union
        if len(meet) != 1:
            raise StructuralViolation(
                f"cycle {i} meets the earlier union in {len(meet)} vertices"
            )
        if meet != {tree.parent_vertex[i]}:
            raise StructuralViolation("ordering attach vertex differs from parent")
        union |= set(tree.cycles[i].vertices)
    for i in range(len(tree.cycles)):
        for j in range(i + 1, len(tree.cycles)):
            if len(set(tree.cycles[i].vertices) & set(tree.cycles[j].vertices)) > 1:
                raise StructuralViolation("two tree cycles share more than one vertex")
    shared = [v for v in range(tree.n) if len(tree.vertex_cycles[v]) >= 2]
    nodes = len(tree.cycles) + len(shared)
    edges = sum(len(tree.vertex_cycles[v]) for v in shared)
    if edges != nodes - 1:
        raise StructuralViolation("cycle/shared-vertex incidence is not a tree")
    if not is_strong(Digraph(f.n, tree.arc_set)):
        raise StructuralViolation("cycle-tree is not strong")
    for i in range(1, len(tree.cycles)):
        lam = cycle_path(tree, i, 0)
        if any(idx > i for idx in lam):
            raise StructuralViolation(
                "cycle-path to the root leaves the ordering prefix"
            )


@dataclass(frozen=True)
class PhiLabels:
    """The 0/1 labels used to 2-color label-crossing external arcs."""

    labels: tuple[int, ...]
    home_cycle: tuple[int, ...]


def _home_cycles(tree: CycleTree) -> tuple[int, ...]:
    homes: list[int] = []
    for v in range(tree.n):
        candidates = tree.vertex_cycles[v]
        best = min(candidates, key=lambda i: tree.depth[i])
        if sum(1 for i in candidates if tree.depth[i] == tree.depth[best]) != 1:
            raise StructuralViolation(
                f"vertex {v} has two home cycles at equal depth"
            )
        homes.append(best)
    return tuple(homes)


def phi_labeling(f: Digraph, tree: CycleTree, ell: int) -> PhiLabels:
    """Label 1 iff the home cycle is not the root and the segment from the
    vertex to that cycle's parent vertex has length at most ``ell - 2``."""
    if tree.n != f.n:
        raise StructuralViolation("cycle-tree host size mismatch")
    homes = _home_cycles(tree)
    labels: list[int] = []
    for v in range(f.n):
        home = homes[v]
        if home == 0:
            labels.append(0)
            continue
        p = tree.parent_vertex[home]
        if p is None:
            raise StructuralViolation("non-root tree cycle without a parent vertex")
        if p == v:
            raise StructuralViolation(
                "home cycle's parent vertex coincides with the vertex itself"
            )
        dist = cycle_segment(tree.cycles[home], v, p).length
        labels.append(1 if dist <= ell - 2 else 0)
    return PhiLabels(tuple(labels), homes)


@dataclass(frozen=True)
class ArcSplit:
    """Partition of a class's arcs: F2 = label-crossing external arcs."""

    f1_arcs: frozenset[tuple[int, int]]
    f2_arcs: frozenset[tuple[int, int]]


def split_arcs(f: Digraph, tree: CycleTree, labels: PhiLabels) -> ArcSplit:
    """Send every external arc whose endpoints get different labels to F2."""
    f1: set[tuple[int, int]] = set()
    f2: set[tuple[int, int]] = set()
    for t, h in f.arcs:
        external = not tree.shares_cycle(t, h)
        if external and labels.labels[t] != labels.labels[h]:
            f2.add((t, h))
        else:
            f1.add((t, h))
    for t, h in f2:
        if labels.labels[t] == labels.labels[h]:
            raise StructuralViolation(f"F2 arc ({t},{h}) joins equal labels")
    return ArcSplit(frozenset(f1), frozenset(f2))


def validate_structure(
    f: Digraph, tree: CycleTree, split: ArcSplit, k: int, ell: int
) -> dict[str, int]:
    """Assert the structural facts the class coloring relies on.

    For every external arc, both backward tree distances around its
    cycle-path are at most ``ell - 2``; every external arc left in F1 is
    comparable (one endpoint's home cycle lies on the other's cycle-path to
    the root); and inside every ordering prefix, a non-parent vertex of the
    newest cycle has at most ``max(0, ell - 2)`` external F1 neighbors.
    """
    homes = _home_cycles(tree)
    external = [
        (t, h) for t, h in sorted(f.arcs) if not tree.shares_cycle(t, h)
    ]
    if external and ell < 2:
        raise StructuralViolation("external arc present although ell < 2")
    for x, y in external:
        cx, cy, lam = _closest_cycle_pair(tree, x, y)
        u = _shared_vertex(tree, lam[0], lam[1])
        v = _shared_vertex(tree, lam[-2], lam[-1])
        back1 = tree_path(tree, v, x).length
        back2 = tree_path(tree, y, u).length
        if back1 > ell - 2 or back2 > ell - 2:
            raise StructuralViolation(
                f"external arc ({x},{y}): backward paths {back1},{back2} "
                f"exceed {ell - 2}"
            )
    f1_external = [
        (t, h) for t, h in sorted(split.f1_arcs) if not tree.shares_cycle(t, h)
    ]
    for x, y in f1_external:
        lam_x = cycle_path(tree, homes[x], 0)
        lam_y = cycle_path(tree, homes[y], 0)
        if homes[x] not in lam_y and homes[y] not in lam_x:
            raise StructuralViolation(
                f"F1 external arc ({x},{y}) is not comparable"
            )
    # Per-prefix external degree bound.
    prefix: set[int] = set(tree.cycles[0].vertices)
    checked = 0
    for i in range(1, len(tree.cycles)):
        prefix |= set(tree.cycles[i].vertices)
        p_i = tree.parent_vertex[i]
        for v in tree.cycles[i].vertices:
            if v == p_i:
                continue
            neighbors = {
                (h if t == v else t)
                for t, h in f1_external
                if v in (t, h) and (h if t == v else t) in prefix
            }
            if len(neighbors) > max(0, ell - 2):
                raise StructuralViolation(
                    f"vertex {v} has {len(neighbors)} external neighbors in "
                    f"prefix {i}, allowed {max(0, ell - 2)}"
                )
            checked += 1
    return {
        "external_arcs": len(external),
        "f1_external_arcs": len(f1_external),
        "prefix_vertices_checked": checked,
    }


def _shared_vertex(tree: CycleTree, i: int, j: int) -> int:
    shared = set(tree.cycles[i].vertices) & set(tree.cycles[j].vertices)
    if len(shared) != 1:
        raise StructuralViolation(
            f"cycles {i},{j} share {len(shared)} vertices, expected 1"
        )
    return shared.pop()


def _closest_cycle_pair(
    tree: CycleTree, x: int, y: int
) -> tuple[int, int, tuple[int, ...]]:
    best: tuple[int, int, tuple[int, ...]] | None = None
    ties = 0
    for cx in tree.vertex_cycles[x]:
        for cy in tree.vertex_cycles[y]:
            lam = cycle_path(tree, cx, cy)
            if best is None or len(lam) < len(best[2]):
                best = (cx, cy, lam)
                ties = 1
            elif len(lam) == len(best[2]):
                ties += 1
    if best is None:
        raise StructuralViolation(f"no tree cycle pair for external arc ({x},{y})")
    if ties != 1:
        raise StructuralViolation(
            f"closest cycle pair for external arc ({x},{y}) is ambiguous"
        )
    if len(best[2]) < 2:
        raise StructuralViolation(
            f"vertices {x},{y} share a cycle but the arc was deemed external"
        )
    return best


def order_F1(f1: Digraph, k: int, ell: int) -> EliminationOrder:
    """A deletion order of F1 with back-degree at most ``k + 2*ell - 2``.

    Minimum-degree peeling computes the exact degeneracy (Matula & Beck
    1983), so when it misses the bound no order meets it and the lemma
    behind the bound has failed: that raises :class:`StructuralViolation`.
    :func:`order_f1_by_cycles` is the lemma's own construction.
    """
    bound = k + 2 * ell - 2
    order = degeneracy(underlying_graph(f1))
    if order.bound <= bound:
        return order
    raise StructuralViolation(
        f"F1 degeneracy {order.bound} exceeds the bound {bound}"
    )


def order_f1_by_cycles(
    f1: Digraph, tree: CycleTree, k: int, ell: int
) -> EliminationOrder:
    """Cycle-by-cycle order: each cycle's vertices (minus its parent vertex)
    are placed by the Hamiltonian peeling of the cycle's induced subdigraph."""
    build: list[int] = []
    for i, cyc in enumerate(tree.cycles):
        sub, corr = induced(f1, cyc.vertices)
        relabel = {v: j for j, v in enumerate(corr)}
        ham = DiCycle(tuple(relabel[v] for v in cyc.vertices))
        result = ham_degeneracy_order(sub, ham, k, ell)
        if isinstance(result, TwoBlockCertificate):
            raise StructuralViolation(
                f"tree cycle {i} induces a digraph containing c({k},{ell})"
            )
        block = [corr[x] for x in reversed(result.order)]
        if i > 0:
            block = [v for v in block if v != tree.parent_vertex[i]]
        build.extend(block)
    deletion = tuple(reversed(build))
    g = underlying_graph(f1)
    achieved = elimination_back_degree(g, deletion)
    return EliminationOrder(deletion, achieved)


def color_F(f: Digraph, tree: CycleTree, k: int, ell: int) -> Coloring:
    """Color one preimage class with at most ``2(k + 2*ell - 1)`` colors.

    Product of a greedy coloring along the F1 deletion order with the 0/1
    labeling of F2; verified proper before returning.
    """
    if f.n == 1:
        return Coloring((0,), 1)
    labels = phi_labeling(f, tree, ell)
    split = split_arcs(f, tree, labels)
    validate_structure(f, tree, split, k, ell)
    f1 = Digraph(f.n, split.f1_arcs)
    order = order_F1(f1, k, ell)
    rho1 = greedy_color_by_order(underlying_graph(f1), order)
    if rho1.palette_size > k + 2 * ell - 1:
        raise StructuralViolation(
            f"F1 coloring used {rho1.palette_size} > {k + 2 * ell - 1} colors"
        )
    pairs = [(rho1.colors[v], labels.labels[v]) for v in range(f.n)]
    palette = sorted(set(pairs))
    index = {p: i for i, p in enumerate(palette)}
    coloring = Coloring(tuple(index[p] for p in pairs), len(palette))
    if not is_proper(underlying_graph(f), coloring):
        raise StructuralViolation("class coloring is not proper")
    if coloring.palette_size > class_palette_bound(k, ell):
        raise StructuralViolation("class coloring exceeds its palette bound")
    return coloring


@dataclass(frozen=True)
class PipelineRun:
    """Everything one end-to-end coloring run produced, for reports and audit."""

    k: int
    ell: int
    trace: ContractionTrace
    class_members: tuple[tuple[int, ...], ...]
    class_palettes: tuple[int, ...]
    coloring: Coloring

    @property
    def bound(self) -> int:
        return palette_bound(self.k, self.ell)


def run_pipeline(
    d: Digraph,
    k: int,
    ell: int,
    *,
    detect_cap: int | None = None,
    strict: bool = True,
    seed: int = 0,
) -> PipelineRun | TwoBlockCertificate:
    """Full pipeline: trace, per-class cycle-trees, product colorings, merge."""
    result = build_contraction_trace(
        d, k, ell, detect_cap=detect_cap, strict=strict, seed=seed
    )
    if isinstance(result, TwoBlockCertificate):
        return result
    trace = result
    base = trace.final_coloring
    combined: list[tuple[int, int] | None] = [None] * d.n
    members: list[tuple[int, ...]] = []
    palettes: list[int] = []
    for s in range(trace.final.n):
        klass = sorted(trace.preimage_class(s))
        members.append(tuple(klass))
        f, orig = induced(d, klass)
        if len(klass) == 1:
            col_f = Coloring((0,), 1)
        else:
            tree = extract_cycle_tree(trace, s)
            if tree is None:
                raise StructuralViolation(
                    "multi-vertex class without a spanning cycle-tree"
                )
            validate_cycle_tree(f, tree, trace.lengths(), k)
            col_f = color_F(f, tree, k, ell)
        palettes.append(col_f.palette_size)
        for i, orig_v in enumerate(orig):
            combined[orig_v] = (base.colors[s], col_f.colors[i])
    if any(c is None for c in combined):
        raise StructuralViolation("a vertex of the input received no color")
    palette = sorted(set(combined))  # type: ignore[arg-type]
    index = {p: i for i, p in enumerate(palette)}
    coloring = Coloring(tuple(index[c] for c in combined), len(palette))
    if not is_proper(underlying_graph(d), coloring):
        raise StructuralViolation("final coloring is not proper")
    if coloring.palette_size > palette_bound(k, ell):
        raise StructuralViolation("final coloring exceeds the palette bound")
    return PipelineRun(k, ell, trace, tuple(members), tuple(palettes), coloring)


def color_strong_digraph(
    d: Digraph,
    k: int,
    ell: int,
    *,
    detect_cap: int | None = None,
    strict: bool = True,
    seed: int = 0,
) -> Coloring | TwoBlockCertificate:
    """Verified proper coloring within ``2(2k-3)(k+2l-1)`` colors, or the
    certificate showing the input was not ``c(k, ell)``-free."""
    result = run_pipeline(d, k, ell, detect_cap=detect_cap, strict=strict, seed=seed)
    if isinstance(result, TwoBlockCertificate):
        return result
    return result.coloring


def pipeline_report(run: PipelineRun) -> str:
    """Human-readable run summary: steps, lengths, palettes against the bound."""
    trace = run.trace
    lines = [
        f"contraction steps (m): {len(trace.steps)}",
        f"contracted cycle lengths: {list(trace.lengths())}",
        f"final digraph: {trace.final.n} vertices, "
        f"{trace.final.arc_count} arcs, "
        f"{trace.final_coloring.palette_size} base classes "
        f"(budget {2 * run.k - 3})",
        f"preimage classes: {len(run.class_members)} "
        f"(sizes {sorted((len(m) for m in run.class_members), reverse=True)})",
        f"class palettes: {sorted(run.class_palettes, reverse=True)} "
        f"(budget {class_palette_bound(run.k, run.ell)})",
        f"final palette: {run.coloring.palette_size} "
        f"(palette bound {run.bound})",
        f"construction mode: {'strict' if trace.strict else 'heuristic'}",
    ]
    return "\n".join(lines)


def validate_trace(
    trace: ContractionTrace,
    *,
    deep: bool = False,
    detect_cap: int | None = None,
) -> None:
    """Independent trace validator; ``deep`` recomputes longest cycles and
    re-runs detection on every level, with the caps of
    :func:`build_contraction_trace`."""
    k = trace.k
    cycle_cap = raised_cap(detect_cap, DEFAULT_CYCLE_CAP)
    prev_len: int | None = None
    levels = [step.digraph for step in trace.steps] + [trace.final]
    for i, step in enumerate(trace.steps):
        if not is_strong(step.digraph):
            raise StructuralViolation(f"level {i} digraph is not strong")
        if not cycle_in(step.digraph, step.cycle):
            raise StructuralViolation(f"level {i} cycle is not a cycle")
        if step.cycle.length < 2 * k - 2:
            raise StructuralViolation(f"level {i} cycle shorter than {2 * k - 2}")
        if prev_len is not None and step.cycle.length > prev_len:
            raise StructuralViolation("cycle lengths are not non-increasing")
        prev_len = step.cycle.length
        redone, pmap = contract(step.digraph, step.cycle.vertices)
        if redone != levels[i + 1] or pmap != step.pmap:
            raise StructuralViolation(f"level {i} contraction does not replay")
        if deep:
            exact = longest_cycle(step.digraph, cap=cycle_cap)
            if exact.length != step.cycle.length:
                raise StructuralViolation(
                    f"level {i} contracted cycle is not longest"
                )
    if not is_strong(trace.final):
        raise StructuralViolation("final digraph is not strong")
    g = underlying_graph(trace.final)
    if not is_proper(g, trace.final_coloring):
        raise StructuralViolation("final-level coloring is not proper")
    if trace.final_coloring.palette_size > max(2 * k - 3, 0):
        raise StructuralViolation("final-level coloring exceeds 2k-3 colors")
    if deep:
        for i, level in enumerate(levels):
            found = find_two_block_cycle(level, k, trace.ell, cap=detect_cap)
            if isinstance(found, TwoBlockCertificate):
                raise StructuralViolation(f"level {i} contains c(k, ell)")
