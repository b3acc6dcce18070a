"""Immutable digraph values and the primitive constructions everything else uses.

Vertices are dense integers ``0 .. n-1``.  A digraph is simple: no loops, no
duplicate arcs, but a pair of opposite arcs (a digon) is allowed.  All values
here are immutable after construction and safe to share across workers.

A digraph is stored as its adjacency masks, arbitrary-precision bitmasks of
each vertex's out- and in-neighbours, which give the same fast set algebra for
any ``n``; its arc set is derived from them only when it is first read.
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


def reach_mask(
    adj: tuple[int, ...], start: int, allowed: int, stop: int = 0
) -> int:
    """Vertices reachable from ``start`` inside ``allowed``, including ``start``.

    ``adj[v]`` is the neighbor bitmask of ``v``; pass out-masks for forward
    reachability and in-masks for backward (co-)reachability.  With ``stop``
    the search ends at the first breadth-first layer that meets ``stop``, so
    the result is then only part of the reachable set, but it meets ``stop``
    exactly when the whole set does.
    """
    seen = (1 << start) & allowed
    frontier = seen
    while frontier and not frontier & stop:
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


class Digraph:
    """A simple directed graph on vertices ``0 .. n-1``, stored as its adjacency
    masks: the arc ``t -> h`` is bit ``h`` of ``out_mask[t]`` and bit ``t`` of
    ``in_mask[h]``.  ``arcs`` is the given arc set, or else derived on first
    read and kept.  Equality and hash are by value; assignment raises."""

    def __init__(self, n: int, arcs: frozenset[tuple[int, int]]) -> None:
        out, inn = [0] * n, [0] * n
        for tail, head in arcs:
            out[tail] |= 1 << head
            inn[head] |= 1 << tail
        self.__dict__.update(n=n, arcs=arcs, out_mask=tuple(out), in_mask=tuple(inn))

    @classmethod
    def from_masks(
        cls, n: int, out_mask: tuple[int, ...], in_mask: tuple[int, ...]
    ) -> Digraph:
        """The digraph with these adjacency masks, whose arc set is built
        only when it is read.  The caller vouches that ``in_mask`` is the
        transpose of ``out_mask`` and that no mask has bit ``v`` at ``v``."""
        d = cls.__new__(cls)
        d.__dict__.update(n=n, out_mask=out_mask, in_mask=in_mask)
        return d

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (t, h) for t, mask in enumerate(self.out_mask) for h in iter_bits(mask)
        )

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (self.n, self.out_mask) == (other.n, other.out_mask)

    def __hash__(self) -> int:
        return hash((self.n, self.out_mask))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arcs!r})"

    def has_arc(self, tail: int, head: int) -> bool:
        return bool((self.out_mask[tail] >> head) & 1)

    def with_arc(self, tail: int, head: int) -> Digraph:
        """This digraph plus the arc tail->head, which must be a new arc.

        Its adjacency masks are this digraph's with one bit set each, and
        its arc set is built only when it is read.
        """
        _check_arc(self.n, tail, head)
        if self.has_arc(tail, head):
            raise DuplicateArc(f"duplicate arc ({tail},{head})")
        out_mask, in_mask = list(self.out_mask), list(self.in_mask)
        out_mask[tail] |= 1 << head
        in_mask[head] |= 1 << tail
        return Digraph.from_masks(self.n, tuple(out_mask), tuple(in_mask))

    @property
    def arc_count(self) -> int:
        return sum(mask.bit_count() for mask in self.out_mask)

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
    _check_arc(vertex_count, tail, head)
    if (tail, head) in arcs:
        raise DuplicateArc(f"duplicate arc ({tail},{head})")
    arcs.add((tail, head))


def _check_arc(vertex_count: int, tail: int, head: int) -> None:
    """Raise unless tail->head is no loop and lies inside ``[0, vertex_count)``."""
    if tail == head:
        raise LoopArc(f"loop arc ({tail},{head})")
    if not (0 <= tail < vertex_count and 0 <= head < vertex_count):
        raise VertexOutOfRange(f"arc ({tail},{head}) outside [0,{vertex_count})")


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


def reverse(d: Digraph) -> Digraph:
    """The digraph with every arc turned around: its two masks swapped."""
    return Digraph.from_masks(d.n, d.in_mask, d.out_mask)


def cycle_segment(c: DiCycle, u: int, v: int) -> tuple[int, ...]:
    """The vertex tuple of the subpath of ``c`` from ``u`` to ``v``.

    ``u == v`` gives the zero-length path ``(u,)``.
    """
    i = c.index(u)
    j = c.index(v)
    vs = c.vertices
    if j >= i:
        return vs[i : j + 1]
    return vs[i:] + vs[: j + 1]


def cycle_in(d: Digraph, c: DiCycle) -> bool:
    """True iff ``c`` is a directed cycle of ``d``."""
    return all(0 <= v < d.n for v in c.vertices) and all(
        d.has_arc(t, h) for t, h in c.arcs()
    )
