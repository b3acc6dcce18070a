"""Immutable digraph values and the primitive constructions everything else uses.

Vertices are dense integers ``0 .. n-1``.  A digraph is simple: no loops, no
duplicate arcs, but a pair of opposite arcs (a digon) is allowed.  All values
here are immutable after construction and safe to share across workers.

Adjacency is kept as one arbitrary-precision bitmask per vertex, which gives
the same fast set algebra for any ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    DuplicateArc,
    EmptySet,
    LoopArc,
    NotOnCycle,
    VertexOutOfRange,
)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reach_mask(adj: tuple[int, ...], start: int, allowed: int) -> int:
    """Vertices reachable from ``start`` inside ``allowed``, including ``start``.

    ``adj[v]`` is the neighbor bitmask of ``v``; pass out-masks for forward
    reachability and in-masks for backward (co-)reachability.
    """
    seen = (1 << start) & allowed
    frontier = seen
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        nxt &= allowed & ~seen
        seen |= nxt
        frontier = nxt
    return seen


@dataclass(frozen=True)
class Digraph:
    """A simple directed graph on vertices ``0 .. n-1``."""

    n: int
    arcs: frozenset[tuple[int, int]]

    @cached_property
    def out_mask(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for tail, head in self.arcs:
            masks[tail] |= 1 << head
        return tuple(masks)

    @cached_property
    def in_mask(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for tail, head in self.arcs:
            masks[head] |= 1 << tail
        return tuple(masks)

    @cached_property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(iter_bits(m)) for m in self.out_mask)

    def has_arc(self, tail: int, head: int) -> bool:
        return bool((self.out_mask[tail] >> head) & 1)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def underlying_degree(self, v: int) -> int:
        return (self.out_mask[v] | self.in_mask[v]).bit_count()


@dataclass(frozen=True)
class UGraph:
    """A simple undirected graph; edges are stored as sorted pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    @cached_property
    def adj_mask(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return tuple(masks)

    def degree(self, v: int) -> int:
        return self.adj_mask[v].bit_count()

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class DiPath:
    """A directed path given by its vertex sequence (length = number of arcs)."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise EmptySet("a path has at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise DuplicateArc(f"path visits a vertex twice: {self.vertices}")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def interior(self) -> frozenset[int]:
        return frozenset(self.vertices[1:-1])

    def arcs(self) -> tuple[tuple[int, int], ...]:
        vs = self.vertices
        return tuple((vs[i], vs[i + 1]) for i in range(len(vs) - 1))


@dataclass(frozen=True)
class DiCycle:
    """A directed cycle as a cyclically ordered vertex sequence.

    Two vertices suffice (a digon); the length equals the number of vertices.
    """

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 2:
            raise EmptySet("a cycle has at least two vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise DuplicateArc(f"cycle visits a vertex twice: {self.vertices}")

    @property
    def length(self) -> int:
        return len(self.vertices)

    def arcs(self) -> tuple[tuple[int, int], ...]:
        vs = self.vertices
        return tuple(
            (vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))
        )

    def index(self, v: int) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise NotOnCycle(f"vertex {v} is not on the cycle") from None

    def successor(self, v: int) -> int:
        return self.vertices[(self.index(v) + 1) % len(self.vertices)]

    def canonical(self) -> DiCycle:
        """Rotate so the minimum vertex id comes first."""
        i = self.vertices.index(min(self.vertices))
        return DiCycle(self.vertices[i:] + self.vertices[:i])


@dataclass(frozen=True)
class PreimageMap:
    """Inverse of one contraction step: new vertex id -> set of old vertex ids."""

    mapping: dict[int, frozenset[int]]

    def of(self, v: int) -> frozenset[int]:
        return self.mapping[v]

    def expand(self, vertices: Iterable[int]) -> frozenset[int]:
        out: set[int] = set()
        for v in vertices:
            out |= self.mapping[v]
        return frozenset(out)


def add_arc(
    arcs: set[tuple[int, int]], vertex_count: int, tail: int, head: int
) -> None:
    """Add one arc to ``arcs`` after checking it is no loop, lies inside
    ``[0, vertex_count)`` and is not in ``arcs`` already."""
    if tail == head:
        raise LoopArc(f"loop arc ({tail},{head})")
    if not (0 <= tail < vertex_count and 0 <= head < vertex_count):
        raise VertexOutOfRange(f"arc ({tail},{head}) outside [0,{vertex_count})")
    if (tail, head) in arcs:
        raise DuplicateArc(f"duplicate arc ({tail},{head})")
    arcs.add((tail, head))


def build_digraph(vertex_count: int, arc_list: Iterable[tuple[int, int]]) -> Digraph:
    """Validate an arc list and build a :class:`Digraph`."""
    if vertex_count < 0:
        raise VertexOutOfRange("vertex_count must be nonnegative")
    arcs: set[tuple[int, int]] = set()
    for tail, head in arc_list:
        add_arc(arcs, vertex_count, tail, head)
    return Digraph(vertex_count, frozenset(arcs))


def underlying_graph(d: Digraph) -> UGraph:
    """Erase directions; an opposite pair collapses to one edge."""
    edges = frozenset(
        (tail, head) if tail < head else (head, tail) for tail, head in d.arcs
    )
    return UGraph(d.n, edges)


def strong_components(d: Digraph) -> tuple[frozenset[int], ...]:
    """Strongly connected components, sorted by minimum vertex id.

    Iterative Tarjan so deep digraphs cannot hit the recursion limit.
    """
    n = d.n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[frozenset[int]] = []
    counter = 0
    adj = d.out_adj
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, i = work[-1]
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while i < len(adj[v]):
                w = adj[v][i]
                i += 1
                if index[w] == -1:
                    work[-1] = (v, i)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.add(w)
                    if w == v:
                        break
                comps.append(frozenset(comp))
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    comps.sort(key=min)
    return tuple(comps)


def is_strong(d: Digraph) -> bool:
    """True iff ``d`` is nonempty and vertex 0 reaches and is reached by all."""
    full = (1 << d.n) - 1
    return (
        d.n >= 1
        and reach_mask(d.out_mask, 0, full) == full
        and reach_mask(d.in_mask, 0, full) == full
    )


def contract(d: Digraph, s: Iterable[int]) -> tuple[Digraph, PreimageMap]:
    """Contract the vertex set ``s`` into one fresh vertex.

    Arcs inside ``s`` vanish; boundary arcs collapse onto the new vertex with
    duplicates merged, so the result stays simple.  Kept vertices are
    relabeled densely in ascending order and the new vertex takes the last id.
    The returned :class:`PreimageMap` inverts the relabeling.
    """
    sset = frozenset(s)
    if not sset:
        raise EmptySet("cannot contract the empty set")
    for v in sset:
        if not (0 <= v < d.n):
            raise VertexOutOfRange(f"vertex {v} outside [0,{d.n})")
    keep = [v for v in range(d.n) if v not in sset]
    relabel = {v: i for i, v in enumerate(keep)}
    v_s = len(keep)
    new_arcs: set[tuple[int, int]] = set()
    for tail, head in d.arcs:
        t_in, h_in = tail in sset, head in sset
        if t_in and h_in:
            continue
        new_arcs.add(
            (v_s if t_in else relabel[tail], v_s if h_in else relabel[head])
        )
    mapping = {relabel[v]: frozenset({v}) for v in keep}
    mapping[v_s] = sset
    return Digraph(v_s + 1, frozenset(new_arcs)), PreimageMap(mapping)


def induced(d: Digraph, s: Iterable[int]) -> tuple[Digraph, tuple[int, ...]]:
    """Induced subdigraph on ``s``, relabeled densely.

    Returns the subdigraph together with the vertex correspondence: position
    ``i`` of the returned tuple is the original id of new vertex ``i``.
    """
    sset = set(s)
    for v in sset:
        if not (0 <= v < d.n):
            raise VertexOutOfRange(f"vertex {v} outside [0,{d.n})")
    keep = sorted(sset)
    relabel = {v: i for i, v in enumerate(keep)}
    arcs = frozenset(
        (relabel[t], relabel[h]) for t, h in d.arcs if t in sset and h in sset
    )
    return Digraph(len(keep), arcs), tuple(keep)


def cycle_segment(c: DiCycle, u: int, v: int) -> DiPath:
    """The subpath of ``c`` from ``u`` to ``v`` along the cycle.

    ``u == v`` gives the zero-length path at ``u``.
    """
    i = c.index(u)
    j = c.index(v)
    vs = c.vertices
    if i == j:
        return DiPath((u,))
    if j > i:
        return DiPath(vs[i : j + 1])
    return DiPath(vs[i:] + vs[: j + 1])


def path_in(d: Digraph, p: DiPath) -> bool:
    """True iff every consecutive pair of ``p`` is an arc of ``d``."""
    return all(d.has_arc(t, h) for t, h in p.arcs()) and all(
        0 <= v < d.n for v in p.vertices
    )


def cycle_in(d: Digraph, c: DiCycle) -> bool:
    """True iff ``c`` is a directed cycle of ``d``."""
    return all(0 <= v < d.n for v in c.vertices) and all(
        d.has_arc(t, h) for t, h in c.arcs()
    )
