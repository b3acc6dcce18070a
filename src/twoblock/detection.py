"""Certificate-producing detection of two-block cycles and exact cycle search.

A two-block cycle ``c(k, ell)`` consists of two internally vertex-disjoint
directed paths from some vertex ``u`` to some other vertex ``v``, of lengths
at least ``k`` and at least ``ell``.  A digon is not a two-block cycle: its
two arcs run in opposite directions, not from ``u`` to ``v`` twice.

Exhaustive and heuristic detection, the longest cycle and the Hamiltonian
cycle all run on one iterative path kernel, ``_paths``, which yields the
simple u->v paths (or the cycles through u) of a given minimum length in
depth-first order and prunes with bitmask reachability.  Arc-anchored
detection enumerates its first paths with ``_walks``, a plain preorder path
enumerator, and finds each second path with ``_paths``.  Neither recurses,
so path length is not bounded by the interpreter's recursion limit.  The
searches are exponential, but the pruning keeps exhaustive proofs
comfortable at desk scale.  Beyond the cap, strict mode refuses; heuristic
mode runs the same search under an expansion budget (detection also in a
random order over a sample of pairs), so its negatives are tagged as
unverified and its longest cycle is not certified longest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .digraph import (
    Digraph,
    DiCycle,
    DiPath,
    cycle_segment,
    is_strong,
    iter_bits,
    path_in,
    reach_mask,
)
from .errors import (
    Acyclic,
    CapExceeded,
    NotAChord,
    NotOnCycle,
    PreconditionViolated,
    StructuralViolation,
)

DEFAULT_DETECT_CAP = 12
DEFAULT_CYCLE_CAP = 20

_HEURISTIC_TRIES = 400
_HEURISTIC_BUDGET = 20000


def raised_cap(detect_cap: int | None, default: int) -> int:
    """The cap of another exact search when detection runs with ``detect_cap``.

    The detection cap applies as given; every other cap is raised by it but
    never lowered below its own ``default``.
    """
    return default if detect_cap is None else max(detect_cap, default)


@dataclass(frozen=True)
class TwoBlockCertificate:
    """Positive witness of ``c(k_req, ell_req)``: two disjoint u->v paths."""

    u: int
    v: int
    path_a: DiPath
    path_b: DiPath
    k_req: int
    ell_req: int

    def to_json_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "path_a": list(self.path_a.vertices),
            "path_b": list(self.path_b.vertices),
            "k": self.k_req,
            "ell": self.ell_req,
        }


@dataclass(frozen=True)
class AbsenceReport:
    """Negative detection result; only ``mode == "exhaustive"`` is a proof."""

    k: int
    ell: int
    mode: str
    pairs_checked: int

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "ell": self.ell,
            "mode": self.mode,
            "pairs_checked": self.pairs_checked,
        }


@dataclass(frozen=True)
class CrossingException:
    """A crossing-chord configuration where no certificate is forced.

    ``case`` is ``"a"`` (first path segment has length exactly ``k - 1`` with
    chord orientations front-forward, back-backward) or ``"b"`` (second
    segment exactly ``ell - 1`` with the opposite pattern).
    """

    case: str


def verify_certificate(
    d: Digraph, cert: TwoBlockCertificate, k: int, ell: int
) -> bool:
    """True iff ``cert`` really witnesses ``c(k, ell)`` inside ``d``."""
    a, b = cert.path_a, cert.path_b
    if cert.u == cert.v:
        return False
    if a.start != cert.u or b.start != cert.u:
        return False
    if a.end != cert.v or b.end != cert.v:
        return False
    if a.vertices == b.vertices:
        return False
    if a.interior() & b.interior():
        return False
    if a.length < k or b.length < ell:
        return False
    return path_in(d, a) and path_in(d, b)


def _certificate(
    u: int, v: int, p: tuple[int, ...], q: tuple[int, ...], k: int, ell: int
) -> TwoBlockCertificate:
    # Assign the two found paths to the (k, ell) roles.
    lp, lq = len(p) - 1, len(q) - 1
    if lp >= k and lq >= ell:
        return TwoBlockCertificate(u, v, DiPath(p), DiPath(q), k, ell)
    if lq >= k and lp >= ell:
        return TwoBlockCertificate(u, v, DiPath(q), DiPath(p), k, ell)
    raise StructuralViolation("internal: path pair does not fit the requested roles")


def _checked(
    d: Digraph, cert: TwoBlockCertificate, k: int, ell: int
) -> TwoBlockCertificate:
    # Every certificate is re-verified before it leaves this module.
    if not verify_certificate(d, cert, k, ell):
        raise StructuralViolation(
            f"internal: certificate for c({k}, {ell}) failed verification"
        )
    return cert


def _order(mask: int, rng: random.Random | None) -> Iterator[int]:
    # The set bits of ``mask`` ascending, or in an order shuffled by ``rng``.
    # Built as a list because iterating one is cheaper in the search loop
    # than resuming the ``iter_bits`` generator.
    order = []
    while mask:
        low = mask & -mask
        order.append(low.bit_length() - 1)
        mask ^= low
    if rng is not None:
        rng.shuffle(order)
    return iter(order)


def _paths(
    out_mask: tuple[int, ...],
    in_mask: tuple[int, ...],
    u: int,
    v: int,
    allowed: int,
    min_len: int,
    rng: random.Random | None = None,
    budget: list[int] | None = None,
) -> Iterator[list[int]]:
    """Every simple u->v path inside ``allowed`` with at least ``min_len`` arcs.

    Paths come in depth-first order with out-neighbours ascending (shuffled
    by ``rng`` when given), each as the live vertex list without ``v``; with
    ``u == v`` they are the cycles through ``u``.  A branch is cut once ``v``
    becomes unreachable or too few vertices remain to reach ``min_len``.
    Every expanded vertex costs one unit of ``budget``; once it is spent no
    further vertex is expanded.
    """
    co = reach_mask(in_mask, v, allowed)
    if not (co >> u) & 1:
        return
    if budget is not None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
    vbit = 1 << v
    path = [u]
    used = 1 << u
    # ``todo`` holds the unexplored out-neighbours of the last path vertex and
    # ``used`` the path's vertices; ``stack`` saves both for every earlier
    # vertex.  ``v`` stays a candidate even when used, which closes the
    # cycles through ``u == v``.
    todo = _order(out_mask[u] & allowed & (~used | vbit), rng)
    stack = []
    while True:
        for x in todo:
            if x == v:
                if len(path) >= min_len:
                    yield path
                continue
            if not (co >> x) & 1:
                continue
            low = 1 << x
            new_used = used | low
            rx = reach_mask(out_mask, x, (allowed & ~new_used) | low | vbit)
            if not rx & vbit:
                continue
            if len(path) + (rx & co & ~low).bit_count() < min_len:
                continue
            if budget is not None:
                if budget[0] <= 0:
                    continue
                budget[0] -= 1
            stack.append((todo, used))
            path.append(x)
            used = new_used
            todo = _order(out_mask[x] & allowed & (~used | vbit), rng)
            break
        else:
            if not stack:
                return
            todo, used = stack.pop()
            path.pop()


def _walks(
    adj: tuple[int, ...], start: int, allowed: int
) -> Iterator[tuple[list[int], int]]:
    """Every simple path from ``start`` along ``adj`` inside ``allowed``.

    Paths come in preorder with neighbours ascending, each as the live vertex
    list with the bitmask of its vertices; the first is ``[start]`` alone.
    """
    path = [start]
    used = 1 << start
    stack = [iter_bits(adj[start] & allowed & ~used)]
    yield path, used
    while stack:
        for x in stack[-1]:
            path.append(x)
            used |= 1 << x
            yield path, used
            stack.append(iter_bits(adj[x] & allowed & ~used))
            break
        else:
            stack.pop()
            used &= ~(1 << path.pop())


def _second_path(
    out_mask: tuple[int, ...],
    in_mask: tuple[int, ...],
    u: int,
    v: int,
    allowed: int,
    first_len: int,
    kk: int,
    ll: int,
    budget: list[int] | None = None,
) -> tuple[int, ...] | None:
    """A u->v path inside ``allowed`` to pair with a first path, or None.

    ``allowed`` excludes the interior of the first path, which has
    ``first_len`` arcs; the second path is long enough for the two to cover
    the (kk, ll) roles, kk >= ll.  A first path of one arc needs a second
    path of two.
    """
    if first_len < ll:
        return None
    target = kk if first_len < kk else ll
    if first_len == 1:
        target = max(target, 2)
    q = next(_paths(out_mask, in_mask, u, v, allowed, target, budget=budget), None)
    return None if q is None else (*q, v)


def _pair_search(
    d: Digraph,
    u: int,
    v: int,
    region: int,
    kk: int,
    ll: int,
    rng: random.Random | None = None,
    budget: list[int] | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two disjoint u->v paths with lengths covering (kk, ll), kk >= ll."""
    out_mask, in_mask = d.out_mask, d.in_mask
    for path in _paths(out_mask, in_mask, u, v, region, ll, rng, budget):
        allowed = region
        for x in path[1:]:
            allowed &= ~(1 << x)
        q = _second_path(out_mask, in_mask, u, v, allowed, len(path), kk, ll, budget)
        if q is not None:
            return (*path, v), q
    return None


def _two_disjoint_paths(
    out_mask: tuple[int, ...], in_mask: tuple[int, ...], u: int, v: int, region: int
) -> bool:
    """Whether ``region`` holds two internally disjoint u->v paths.

    By Menger's theorem this holds iff v is reachable from u and no single
    vertex of ``region`` other than u and v separates them.  With the arc
    u->v present, the arc is one path and the other needs an interior vertex.
    """
    ubit, vbit = 1 << u, 1 << v
    if (out_mask[u] >> v) & 1:
        return bool(reach_mask(out_mask, u, region & ~vbit) & ~ubit & in_mask[v])
    if not reach_mask(out_mask, u, region) & vbit:
        return False
    for w in iter_bits(region & ~ubit & ~vbit):
        if not reach_mask(out_mask, u, region & ~(1 << w)) & vbit:
            return False
    return True


def find_two_block_cycle(
    d: Digraph,
    k: int,
    ell: int,
    *,
    cap: int | None = None,
    strict: bool = True,
    seed: int = 0,
) -> TwoBlockCertificate | AbsenceReport:
    """Search for ``c(k, ell)``; a verified certificate or an absence report.

    Within the cap the search is exhaustive, so a negative is a proof.  Above
    the cap, strict mode raises :class:`CapExceeded`; heuristic mode runs a
    randomized search and returns a ``capped`` report when it finds nothing.

    A pair (u, v) is searched only if v is reachable from u, enough vertices
    lie between them, and they are joined by two internally disjoint paths;
    no other pair can carry a certificate.  An exhaustive report's
    ``pairs_checked`` is the number of pairs searched.
    """
    if k < 1 or ell < 1:
        raise PreconditionViolated("k and ell must be positive")
    cap = DEFAULT_DETECT_CAP if cap is None else cap
    if d.n > cap:
        if strict:
            raise CapExceeded(
                f"exhaustive detection needs n <= {cap}, got {d.n}"
            )
        return _heuristic_find(d, k, ell, seed)
    kk, ll = max(k, ell), min(k, ell)
    n = d.n
    full = (1 << n) - 1
    need_interior = (kk - 1) + (ll - 1)
    out_mask, in_mask = d.out_mask, d.in_mask
    searched = 0
    for u in range(n):
        reach_u = reach_mask(out_mask, u, full)
        for v in range(n):
            if v == u or not (reach_u >> v) & 1:
                continue
            region = reach_u & reach_mask(in_mask, v, full)
            if region.bit_count() - 2 < need_interior:
                continue
            if not _two_disjoint_paths(out_mask, in_mask, u, v, region):
                continue
            searched += 1
            pair = _pair_search(d, u, v, region, kk, ll)
            if pair is not None:
                cert = _certificate(u, v, pair[0], pair[1], k, ell)
                return _checked(d, cert, k, ell)
    return AbsenceReport(k, ell, "exhaustive", searched)


def _heuristic_find(
    d: Digraph, k: int, ell: int, seed: int
) -> TwoBlockCertificate | AbsenceReport:
    rng = random.Random(seed)
    kk, ll = max(k, ell), min(k, ell)
    n = d.n
    full = (1 << n) - 1
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    rng.shuffle(pairs)
    tries = min(len(pairs), _HEURISTIC_TRIES)
    for u, v in pairs[:tries]:
        reach_u = reach_mask(d.out_mask, u, full)
        if not (reach_u >> v) & 1:
            continue
        region = reach_u & reach_mask(d.in_mask, v, full)
        if region.bit_count() - 2 < (kk - 1) + (ll - 1):
            continue
        budget = [_HEURISTIC_BUDGET]
        pair = _pair_search(d, u, v, region, kk, ll, rng=rng, budget=budget)
        if pair is not None:
            cert = _certificate(u, v, pair[0], pair[1], k, ell)
            return _checked(d, cert, k, ell)
    return AbsenceReport(k, ell, "capped", tries)


def find_two_block_cycle_through_arc(
    d: Digraph, k: int, ell: int, arc: tuple[int, int]
) -> TwoBlockCertificate | None:
    """Exhaustive search restricted to certificates that use ``arc``.

    This is complete for the incremental question "did adding ``arc`` create
    a two-block cycle?" when the digraph without ``arc`` is known to be free:
    any new certificate must traverse the new arc.
    """
    a, b = arc
    if not d.has_arc(a, b):
        raise PreconditionViolated(f"arc {arc} not present")
    kk, ll = max(k, ell), min(k, ell)
    out_mask, in_mask = d.out_mask, d.in_mask
    full = (1 << d.n) - 1
    # Suffix paths b -> v avoiding a, then prefix paths u -> a (walked
    # backwards from a) avoiding the suffix; together they are the first path.
    for suffix, sused in _walks(out_mask, b, full & ~(1 << a)):
        v = suffix[-1]
        for prefix, pused in _walks(in_mask, a, full & ~sused):
            u = prefix[-1]
            interior = (pused | sused) & ~(1 << u) & ~(1 << v)
            first_len = len(prefix) + len(suffix) - 1
            q = _second_path(
                out_mask, in_mask, u, v, full & ~interior, first_len, kk, ll
            )
            if q is not None:
                cert = _certificate(u, v, (*prefix[::-1], *suffix), q, k, ell)
                return _checked(d, cert, k, ell)
    return None


def longest_cycle(
    d: Digraph, *, cap: int | None = None, strict: bool = True
) -> DiCycle:
    """A longest cycle with a reproducible tie-break.

    Among maximum-length cycles the one whose min-vertex-first rotation is
    lexicographically least is returned.  Above the cap, strict mode raises
    :class:`CapExceeded`; heuristic mode runs the same search under one
    shared expansion budget and returns the best cycle found when it runs
    out: a genuine cycle, but not certified longest.  :class:`Acyclic` is
    exact in both modes, because the first cycle is searched without a
    budget and the pruning finds it without backtracking.
    """
    cap = DEFAULT_CYCLE_CAP if cap is None else cap
    budget = None
    if d.n > cap:
        if strict:
            raise CapExceeded(f"exact longest cycle needs n <= {cap}, got {d.n}")
        budget = [_HEURISTIC_BUDGET]
    best: tuple[int, ...] = ()
    out_mask, in_mask = d.out_mask, d.in_mask
    full = (1 << d.n) - 1
    for s in range(d.n):
        allowed = full & ~((1 << s) - 1)
        region = reach_mask(in_mask, s, allowed) & reach_mask(out_mask, s, allowed)
        # Each search asks for a strictly longer cycle through s, so the
        # first cycle found at the final length is the lexicographically least.
        # A start whose strong region is itself alone lies on no cycle.  The
        # first cycle needs no budget: every vertex the kernel expands still
        # reaches s, so it never backtracks.
        while region.bit_count() > max(len(best), 1):
            paths = _paths(out_mask, in_mask, s, s, region, len(best) + 1,
                           budget=budget if best else None)
            cycle = next(paths, None)
            if cycle is None:
                break
            best = tuple(cycle)
    if not best:
        raise Acyclic("the digraph contains no directed cycle")
    return DiCycle(best)


def hamiltonian_cycle(d: Digraph, *, cap: int | None = None) -> DiCycle | None:
    """A spanning cycle, or ``None`` when exhaustive search proves absence.

    There is no heuristic mode: above the cap the search always raises
    :class:`CapExceeded`.
    """
    cap = DEFAULT_CYCLE_CAP if cap is None else cap
    if d.n > cap:
        raise CapExceeded(f"Hamiltonicity search needs n <= {cap}, got {d.n}")
    if d.n < 2 or not is_strong(d):
        return None
    cycle = next(_paths(d.out_mask, d.in_mask, 0, 0, (1 << d.n) - 1, d.n), None)
    return None if cycle is None else DiCycle(tuple(cycle))


def crossing_chord_case(
    c: DiCycle,
    chord1: tuple[int, int],
    chord2: tuple[int, int],
    k: int,
    ell: int,
    *,
    u: int | None = None,
    v: int | None = None,
) -> TwoBlockCertificate | CrossingException:
    """Case analysis for two crossing chords on a cycle.

    ``chord1`` joins ``{u, v}`` and ``chord2`` joins ``{x, y}`` with ``x``
    strictly inside the cycle segment from ``u`` to ``v`` and ``y`` strictly
    inside the opposite segment.  With ``|uCx| >= k - 1`` and
    ``|vCy| >= ell - 1`` the four orientation cases either force a verified
    two-block cycle built from the named segments, or land in one of the two
    exceptional equality patterns.

    The ``u``/``v`` role assignment defaults to ``chord1`` read as
    ``(u, v)``; pass them explicitly to pick the opposite reading.
    """
    if k < 1 or ell < 1:
        raise PreconditionViolated("k and ell must be positive")
    if u is None or v is None:
        u, v = chord1
    if {u, v} != set(chord1):
        raise PreconditionViolated("u, v must be the endpoints of chord1")
    x_cand = set(chord2)
    if len({u, v} | x_cand) != 4:
        raise PreconditionViolated("chord endpoints must be four distinct vertices")
    for w in (u, v, *x_cand):
        if w not in c.vertices:
            raise NotOnCycle(f"vertex {w} is not on the cycle")
    for chord in (chord1, chord2):
        t, h = chord
        if c.successor(t) == h or c.successor(h) == t:
            raise NotAChord(f"{chord} is an arc of the cycle")
    seg_uv = set(cycle_segment(c, u, v).vertices) - {u, v}
    seg_vu = set(cycle_segment(c, v, u).vertices) - {u, v}
    inside = x_cand & seg_uv
    outside = x_cand & seg_vu
    if len(inside) != 1 or len(outside) != 1:
        raise PreconditionViolated(
            "chord2 must cross chord1: one endpoint inside each segment"
        )
    x, y = inside.pop(), outside.pop()
    ucx = cycle_segment(c, u, x)
    vcy = cycle_segment(c, v, y)
    a_len, b_len = ucx.length, vcy.length
    if a_len < k - 1 or b_len < ell - 1:
        raise PreconditionViolated(
            f"need |uCx| >= {k - 1} and |vCy| >= {ell - 1}, got {a_len}, {b_len}"
        )
    uv_forward = chord1 == (u, v)
    xy_forward = chord2 == (x, y)

    if uv_forward and xy_forward:
        path_k = DiPath(ucx.vertices + (y,))
        path_l = DiPath((u,) + vcy.vertices)
        return TwoBlockCertificate(u, y, path_k, path_l, k, ell)
    if uv_forward and not xy_forward:
        if a_len == k - 1:
            return CrossingException("a")
        path_k = ucx
        path_l = DiPath((u,) + vcy.vertices + (x,))
        return TwoBlockCertificate(u, x, path_k, path_l, k, ell)
    if not uv_forward and xy_forward:
        if b_len == ell - 1:
            return CrossingException("b")
        path_k = DiPath((v,) + ucx.vertices + (y,))
        path_l = vcy
        return TwoBlockCertificate(v, y, path_k, path_l, k, ell)
    path_k = DiPath((v,) + ucx.vertices)
    path_l = DiPath(vcy.vertices + (x,))
    return TwoBlockCertificate(v, x, path_k, path_l, k, ell)
