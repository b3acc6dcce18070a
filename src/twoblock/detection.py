"""Certificate-producing detection of two-block cycles and exact cycle search.

A two-block cycle ``c(k, ell)`` consists of two internally vertex-disjoint
directed paths from some vertex ``u`` to some other vertex ``v``, of lengths
at least ``k`` and at least ``ell``.  A digon is not a two-block cycle: its
two arcs run in opposite directions, not from ``u`` to ``v`` twice.

Detection, the longest cycle and the Hamiltonian cycle all run on one
iterative path kernel, ``_paths``, which yields the simple u->v paths (or
the cycles through u) of a given minimum length in depth-first order and
prunes with bitmask reachability: ``reach_mask`` from a start set, the bit
of one vertex or, to close the arc-anchored cut mask, a whole set.  Once
the length bound can no longer cut a branch, the kernel only asks whether
the target is still reachable, and that test (``reach_mask`` with ``stop``,
also used by the Menger gate) stops at the first sight of it.  The kernel
takes the set of vertices that reach its target when the caller already
holds it.  ``_pair_search`` passes its region: the region is the set of
vertices on some u->v walk, and a vertex's path to v never leaves it.
Arc-anchored detection passes its cut mask, which at that point is the
set of vertices that reach a.

Detection first decides whether the digraph is strong, with two
breadth-first searches from vertex 0; if it is, every vertex reaches and
is reached by all the others, so no per-vertex reachability search is
run.  It searches a pair (u, v) only if it passes a Menger gate: two
internally disjoint u->v paths exist iff no single vertex separates u
from v.  With the arc u->v present the gate is one reachability test per
pair.  Without it, the vertices on every u->v path are the dominators of
v from u, and one dominator pass per source answers the gate for all its
targets (see ``_dominators``).  The arc rule stays per pair: answering it
from the dominators as well measured slower on the mostly positive sweep
of labeled 6-tournaments, where many hits come at a source's first pair,
before any dominator pass is needed.

Pair search follows a first-step rule: a first path that leaves u by x is
paired only with second paths that leave u by some y > x, and no first
path leaves u by its largest out-neighbour.  The first path in
lexicographic order that has a partner always has all its partners above
it: a partner leaving u by a smaller vertex would come first and pair with
it whatever the lengths, so the search would have stopped there.  It also
follows a partner cut: a partial first path is not extended once no second
path of ``ll`` arcs that leaves u above its first step can avoid it.  Such
a second path's vertices after u are reached from u's out-neighbours above
the step and reach v, both off the partial path, so fewer than ``ll`` such
vertices rule it out for every completion.  A spanning c(kk, 1) pair, with
ll == 1, kk >= 2 and exactly kk + 1 vertices between u and v, is decided
with one path search: a pair's longer path must span those vertices and
the shorter one is then the arc u->v, so the answer is the arc with the
first spanning path, in the order the general search finds them.  The
certificate and ``pairs_checked`` are therefore unchanged (see
``_pair_search``); a spanning pair still counts as searched, since it
passed the gates.

Arc-anchored detection searches one oriented cycle through the new arc
a->b: forward from b, backward along the second path, then forward to a
with ``_paths`` (see ``find_two_block_cycle_through_arc``).  No search
recurses, so path length is not bounded by the interpreter's recursion
limit.  Every certificate is built by ``certify``, which re-checks it
with ``verify_certificate``: on bitmasks, with code of its own.  The
searches are exponential, so every exact search (these three and
``coloring.k_colorable``) runs without a limit up to its cap and under the
work limit ``_HEURISTIC_BUDGET`` above it (detection per pair, and with at
most ``_HEURISTIC_TRIES`` pairs); its answer is exact iff the limit refused
nothing.  An answer the limit cut short raises :class:`CapExceeded` in
strict mode; heuristic mode returns a ``capped`` report or the best cycle
found.  A certificate or cycle found above the cap is returned in both.

A proof of absence made by ``prove_free``, the generators' final check, is
kept on the digraph object it proved, and a later detection on that same
object within its cap returns it instead of searching again.  A
certificate kept by ``keep_certificate`` (a class certificate relabeled
onto a member tournament) is returned the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .digraph import (
    Digraph,
    DiCycle,
    build_digraph,
    cycle_segment,
    is_strong,
    iter_bits,
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

# The attribute on which ``prove_free`` and ``keep_certificate`` keep, on the
# digraph object they answered for, a dict from ``(max(k, ell), min(k, ell))``
# to the answer: the ``pairs_checked`` of a proof of absence, or a certificate
# verified on that object.
_PROOFS = "_two_block_proofs"


def _cut_short(strict: bool, search: str, n: int, cap: int) -> None:
    """Refuse, in strict mode, an answer that the work limit cut short."""
    if strict:
        raise CapExceeded(f"{search} on {n} > {cap} vertices ran out of its work limit")


@dataclass(frozen=True)
class TwoBlockCertificate:
    """Positive witness of ``c(k_req, ell_req)``: two disjoint u->v paths."""

    u: int
    v: int
    path_a: tuple[int, ...]
    path_b: tuple[int, ...]
    k_req: int
    ell_req: int

    def to_json_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "path_a": list(self.path_a),
            "path_b": list(self.path_b),
            "k": self.k_req,
            "ell": self.ell_req,
        }


@dataclass(frozen=True)
class AbsenceReport:
    """Negative detection result; only ``mode == "exhaustive"`` is a proof.

    ``pairs_checked`` is the number of vertex pairs the search looked at for
    two disjoint paths, after the gates of ``find_two_block_cycle``.
    """

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
    """True iff ``cert`` really witnesses ``c(k, ell)`` inside ``d``.

    The check reads the vertex tuples and ``d.out_mask`` only.  Every vertex
    must lie in ``0 .. n-1`` (tested first, so no later test indexes or
    shifts by a bad vertex); both paths run from ``u`` to ``v != u``; they
    differ; each is simple (its vertex mask has one bit per vertex); they
    share no vertex but ``u`` and ``v``; ``path_a`` has at least ``k`` arcs
    and ``path_b`` at least ``ell``; and every arc is in ``d``.
    """
    n, u, v = d.n, cert.u, cert.v
    p, q = cert.path_a, cert.path_b
    pmask = qmask = 0
    for x in p:
        if not 0 <= x < n:
            return False
        pmask |= 1 << x
    for x in q:
        if not 0 <= x < n:
            return False
        qmask |= 1 << x
    if u == v or not p or not q:
        return False
    if p[0] != u or q[0] != u or p[-1] != v or q[-1] != v or p == q:
        return False
    if pmask.bit_count() != len(p) or qmask.bit_count() != len(q):
        return False
    if pmask & qmask != (1 << u) | (1 << v):
        return False
    if len(p) - 1 < k or len(q) - 1 < ell:
        return False
    out_mask = d.out_mask
    for path in (p, q):
        for i in range(len(path) - 1):
            if not (out_mask[path[i]] >> path[i + 1]) & 1:
                return False
    return True


def certify(
    d: Digraph, p: tuple[int, ...], q: tuple[int, ...], k: int, ell: int
) -> TwoBlockCertificate:
    """The certificate of ``c(k, ell)`` made of the u->v vertex tuples ``p``
    and ``q``, checked by ``verify_certificate`` against ``d``.

    ``p`` takes the ``k`` role if its length fits it, else ``q`` does.  This
    is the only place that builds a certificate, so every one that leaves
    the library has been verified.  Raises :class:`StructuralViolation`,
    and nothing else, for any pair the verifier rejects (empty tuples and
    repeated or out-of-range vertices included).
    """
    lp, lq = len(p) - 1, len(q) - 1
    if not (lp >= k and lq >= ell) and lq >= k and lp >= ell:
        p, q = q, p
    ends = p or (-1,)  # -1 is out of range, so the verifier rejects it
    cert = TwoBlockCertificate(ends[0], ends[-1], p, q, k, ell)
    if not verify_certificate(d, cert, k, ell):
        raise StructuralViolation(
            f"internal: certificate for c({k}, {ell}) failed verification"
        )
    return cert


def _paths(
    out_mask: tuple[int, ...],
    in_mask: tuple[int, ...],
    u: int,
    v: int,
    allowed: int,
    min_len: int,
    budget: list[int] | None = None,
    first: int = -1,
    partner: int = 0,
    co: int | None = None,
) -> Iterator[list[int]]:
    """Every simple u->v path inside ``allowed`` with at least ``min_len`` arcs
    whose first step lies in ``first``.

    Paths come in depth-first order with out-neighbours ascending, each as
    the live vertex list without ``v``; with ``u == v`` they are the
    cycles through ``u``.  A branch is cut once ``v`` becomes unreachable
    or too few vertices remain to reach ``min_len``.  The count of
    remaining vertices needs the full reachable set, so it is taken only
    while the length bound can still cut; after that the test stops at the
    first sight of ``v``.  With ``partner`` > 0 a branch is also cut once
    no u->v path of ``partner`` arcs whose first step lies above the
    branch's can avoid it (``_no_partner``).  Every expanded vertex costs
    one unit of ``budget``, and so does every expansion refused once it is
    spent: the counter drops below 0 exactly when the search was cut short.

    ``co`` is the set of vertices that reach ``v`` inside ``allowed``; a
    caller that already holds it passes it, and the kernel computes it
    otherwise.  Passing it changes nothing but the cost: it is the same
    set, and finding it spends no budget.
    """
    vbit = 1 << v
    if co is None:
        co = reach_mask(in_mask, vbit, allowed)
    if not (co >> u) & 1:
        return
    if budget is not None:
        budget[0] -= 1
        if budget[0] < 0:
            return
    # A path of min_len arcs has min_len + 1 vertices in ``co``, a cycle min_len.
    if co.bit_count() + (u == v) <= min_len:
        return
    path = [u]
    used = 1 << u
    # ``todo`` holds the unexplored out-neighbours of the last path vertex and
    # ``used`` the path's vertices; ``stack`` saves both for every earlier
    # vertex.  ``v`` stays a candidate even when used, which closes the
    # cycles through ``u == v``.
    todo = iter_bits(out_mask[u] & allowed & (~used | vbit) & first)
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
            inside = (allowed & ~new_used) | low | vbit
            if len(path) + 1 < min_len:
                rx = reach_mask(out_mask, low, inside)
                if not rx & vbit:
                    continue
                if len(path) + (rx & co & ~low).bit_count() < min_len:
                    continue
            elif not (
                out_mask[x] & vbit or reach_mask(out_mask, low, inside, vbit) & vbit
            ):
                continue
            # -(2 << s) holds the vertices above the first step s.
            if partner and _no_partner(
                out_mask, in_mask, u, v, allowed & ~new_used,
                -(2 << (path[1] if len(path) > 1 else x)), partner,
            ):
                continue
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    continue
            stack.append((todo, used))
            path.append(x)
            used = new_used
            todo = iter_bits(out_mask[x] & allowed & (~used | vbit))
            break
        else:
            if not stack:
                return
            todo, used = stack.pop()
            path.pop()


def _no_partner(
    out_mask: tuple[int, ...],
    in_mask: tuple[int, ...],
    u: int,
    v: int,
    free: int,
    above: int,
    ll: int,
) -> bool:
    """True when fewer than ``ll`` vertices of ``free`` (which holds v) both
    reach v inside ``free`` (``co``) and are reached inside it from u's
    out-neighbours in ``above``: then no u->v path of ``ll`` arcs leaves u
    by ``above`` with its later vertices in ``free``.  Each vertex of ``co``
    reaches v, so that set is the closure of the starts inside ``co``, and
    it holds v as soon as it holds a start.  The closure stops at ``ll``
    vertices, so it is no ``reach_mask`` call, which measured 6% slower.
    """
    co = reach_mask(in_mask, 1 << v, free)
    if co.bit_count() < ll:
        return True
    seen = frontier = out_mask[u] & co & above
    while frontier and seen.bit_count() < ll:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= out_mask[low.bit_length() - 1]
            m ^= low
        frontier = nxt & co & ~seen
        seen |= frontier
    return seen.bit_count() < ll


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
    first: int = -1,
) -> tuple[int, ...] | None:
    """A u->v path inside ``allowed`` to pair with a first path, or None.

    ``allowed`` excludes the interior of the first path, which has
    ``first_len >= ll`` arcs; the second path is long enough for the two to
    cover the (kk, ll) roles, kk >= ll.  Its first step lies in ``first``,
    above the first path's, so the first-step rule keeps the arc u->v out.
    """
    target = kk if first_len < kk else ll
    paths = _paths(out_mask, in_mask, u, v, allowed, target, budget=budget, first=first)
    q = next(paths, None)
    return None if q is None else (*q, v)


def _pair_search(
    d: Digraph,
    u: int,
    v: int,
    region: int,
    kk: int,
    ll: int,
    budget: list[int] | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Two disjoint u->v paths with lengths covering (kk, ll), kk >= ll.

    The first path is the first in lexicographic order that has a second
    path, and the second path is the first such in the same order.  The
    search follows a first-step rule: when the first path leaves u by x,
    its second path is sought only among paths that leave u by some y > x,
    and no first path leaves u by u's largest out-neighbour in ``region``.
    The answer is unchanged, because a pair {A, B} is always found at
    whichever of A and B comes first.  Two internally disjoint paths leave
    u by different vertices; if B left by a smaller vertex than A, B would
    come first and would pair with A whatever the lengths, so the search
    would have stopped at B.

    The same search also cuts a partial first path u ... x as soon as no
    partner can exist off it (``_paths`` with ``partner=ll``).  Let F be
    ``region`` without the partial path, plus v; let ``fr`` be the vertices
    that u's out-neighbours above the first step reach inside F, and ``co``
    those of F that reach v inside F.  The branch is cut when v is not in
    ``fr`` or fewer than ``ll`` vertices lie in both.  Every completion's
    partner leaves u above the first step and avoids the partial path, so
    its vertices after u, at least ``ll`` of them, lie in ``fr & co``: a cut
    branch holds no first path with a partner.  First paths still come in
    the same order, so the answer is unchanged.

    A spanning c(kk, 1) pair, where ll == 1, kk >= 2 and ``region`` has
    exactly kk + 1 vertices, is decided with one path search.  The longer
    path of any pair has at least kk + 1 vertices in ``region``, so it
    spans the region, and the shorter one, disjoint from its interior, is
    the arc u->v.  So without that arc there is no pair.  With it, the
    arc's partners are the spanning paths, and a spanning path's one
    partner is the arc.  No other path has a partner: it has an interior
    vertex, and it is too short to be the longer path, so its partner would
    span the region and share that vertex.  Let P be the lexicographically
    first spanning path.  If P leaves u below v, then P < (u, v) and P is
    the first path with a partner, paired with the arc.  Otherwise every
    spanning path leaves u above v, the arc is the first path with a
    partner, and its first partner is P.  Either way that is the pair of
    the unpruned search, so it is the pair the general search would return.

    Every path search spends ``budget`` when one is given (see ``_paths``);
    the search then may miss a pair, but any pair it returns is genuine.

    ``region`` is the set of vertices on some u->v walk (those reached from
    u that reach v), so the vertices that reach v inside it are the whole
    region: a vertex's path to v stays in the region.  The first-path
    search takes it as its co-reachable set instead of computing it.
    """
    out_mask, in_mask = d.out_mask, d.in_mask
    if ll == 1 and kk >= 2 and region.bit_count() == kk + 1:
        if not (out_mask[u] >> v) & 1:
            return None
        p = next(_paths(out_mask, in_mask, u, v, region, kk, budget, co=region), None)
        if p is None:
            return None
        arc = (u, v)
        p = (*p, v)
        return (p, arc) if p[1] < v else (arc, p)
    steps = out_mask[u] & region
    first = steps ^ (1 << steps.bit_length() >> 1)  # all but the largest
    for path in _paths(out_mask, in_mask, u, v, region, ll, budget, first, ll, region):
        allowed = region
        for x in path[1:]:
            allowed &= ~(1 << x)
        above = -(2 << (path[1] if len(path) > 1 else v))
        q = _second_path(
            out_mask, in_mask, u, v, allowed, len(path), kk, ll, budget, above
        )
        if q is not None:
            return (*path, v), q
    return None


def _dominators(
    out_mask: tuple[int, ...], in_mask: tuple[int, ...], u: int, allowed: int
) -> list[int]:
    """For every vertex x reached from u inside ``allowed``, the bitmask of
    the vertices that lie on every u->x path (x and u among them); 0 for
    every other vertex.

    This is the maximal fixpoint of ``dom(x) = {x} | AND dom(p)`` over the
    in-neighbours p of x reached from u, with ``dom(u) = {u}`` (Cooper,
    Harvey & Kennedy 2001).  Every reached vertex starts at the full
    reached set and the rule is applied in breadth-first order from u
    until nothing changes; an in-neighbour met before its own turn still
    holds the full set and so cuts nothing.  The pass records breadth-first
    order, so it is no ``reach_mask`` call, which measured 4% slower.
    """
    ubit = 1 << u
    order = []
    seen = frontier = ubit & allowed
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            x = low.bit_length() - 1
            order.append(x)
            nxt |= out_mask[x]
            m ^= low
        frontier = nxt & allowed & ~seen
        seen |= frontier
    dom = [0] * len(out_mask)
    for x in order:
        dom[x] = seen
    dom[u] = ubit & allowed
    rest = order[1:]
    changed = True
    while changed:
        changed = False
        for x in rest:
            new = seen
            m = in_mask[x] & seen
            while m:
                low = m & -m
                new &= dom[low.bit_length() - 1]
                m ^= low
            new |= 1 << x
            if new != dom[x]:
                dom[x] = new
                changed = True
    return dom


def _menger_gate(
    out_mask: tuple[int, ...],
    in_mask: tuple[int, ...],
    u: int,
    v: int,
    region: int,
    dom: list[int] | None,
) -> bool:
    """Whether ``region`` holds two internally disjoint u->v paths.

    By Menger's theorem this holds iff v is reachable from u and no single
    vertex of ``region`` other than u and v separates them.  With the arc
    u->v present, the arc is one path and the other needs an interior
    vertex: one reachability test, which stops as soon as it meets an
    in-neighbour of v.  Otherwise the vertices on every u->v path are the
    dominators of v from u, so the test is ``dom[v] == {u, v}``.  ``dom``
    is ``_dominators(out_mask, in_mask, u, allowed)`` for an ``allowed``
    with the same u->v paths as ``region`` (``region`` itself, or every
    vertex reached from u when ``region`` is the vertices between u and
    v); it is read only without the arc.
    """
    ubit, vbit = 1 << u, 1 << v
    if (out_mask[u] >> v) & 1:
        others = in_mask[v] & ~ubit
        return bool(reach_mask(out_mask, ubit, region & ~vbit, others) & others)
    return dom[v] == ubit | vbit


def find_two_block_cycle(
    d: Digraph,
    k: int,
    ell: int,
    *,
    cap: int | None = None,
    strict: bool = True,
) -> TwoBlockCertificate | AbsenceReport:
    """Search for ``c(k, ell)``; a verified certificate or an absence report.

    Within the cap the search runs without a limit.  Above it each searched
    pair gets an expansion budget of ``_HEURISTIC_BUDGET``, and the search
    stops after ``_HEURISTIC_TRIES`` pairs.  A negative is ``exhaustive``, a
    proof, iff neither limit cut it short; otherwise strict mode raises
    :class:`CapExceeded` and heuristic mode returns a ``capped`` report.

    A pair (u, v) is searched only if v is reachable from u, enough vertices
    lie between them, and they are joined by two internally disjoint paths;
    no other pair can carry a certificate.  A report's ``pairs_checked`` is
    the number of pairs searched, in either mode.

    Two breadth-first searches from vertex 0 first decide whether the
    digraph is strong.  If it is, every vertex reaches and is reached by
    every other, so every forward and backward reachable set below is the
    full vertex set and none is computed.

    On the very object that ``prove_free`` proved free of ``c(k, ell)`` or
    ``c(ell, k)`` (the generators' outputs), a call within the cap returns
    that proof's report, in either mode, without searching: the search
    would run without a limit and give the same report.  On the very
    object that ``keep_certificate`` gave a certificate of the pair, a call
    within the cap returns that certificate, in the asked order, without
    searching; the search might have found another, but both are verified
    on ``d``.  Any other digraph object is searched, equal arcs or not;
    above the cap the record is ignored, so the work limit applies as on
    any other object.
    """
    if k < 1 or ell < 1:
        raise PreconditionViolated("k and ell must be positive")
    cap = DEFAULT_DETECT_CAP if cap is None else cap
    kk, ll = max(k, ell), min(k, ell)
    proofs = d.__dict__.get(_PROOFS)
    if proofs is not None and d.n <= cap and (kk, ll) in proofs:
        kept = proofs[kk, ll]
        if type(kept) is int:
            return AbsenceReport(k, ell, "exhaustive", kept)
        if kept.k_req == k:
            return kept
        return certify(d, kept.path_a, kept.path_b, k, ell)
    budget = None if d.n <= cap else [0]
    n = d.n
    full = (1 << n) - 1
    need_interior = (kk - 1) + (ll - 1)
    out_mask, in_mask = d.out_mask, d.in_mask
    searched = 0
    cut = False
    strong = (
        reach_mask(out_mask, 1, full) == full
        and reach_mask(in_mask, 1, full) == full
    )
    co_reach = [full if strong else reach_mask(in_mask, 1 << v, full) for v in range(n)]
    for u in range(n):
        reach_u = full if strong else reach_mask(out_mask, 1 << u, full)
        # u's dominator sets, computed at u's first arc-absent pair that
        # passes the size cut; they answer the gate for every such pair.
        dom = None
        for v in range(n):
            if v == u or not (reach_u >> v) & 1:
                continue
            region = reach_u & co_reach[v]
            if region.bit_count() - 2 < need_interior:
                continue
            if dom is None and not (out_mask[u] >> v) & 1:
                dom = _dominators(out_mask, in_mask, u, reach_u)
            if not _menger_gate(out_mask, in_mask, u, v, region, dom):
                continue
            if budget is not None:
                cut |= budget[0] < 0  # the last searched pair was cut short
                if searched == _HEURISTIC_TRIES:
                    _cut_short(strict, "detection", n, cap)
                    return AbsenceReport(k, ell, "capped", searched)
                budget[0] = _HEURISTIC_BUDGET
            searched += 1
            pair = _pair_search(d, u, v, region, kk, ll, budget)
            if pair is not None:
                return certify(d, *pair, k, ell)
    if budget is not None and (cut or budget[0] < 0):
        _cut_short(strict, "detection", n, cap)
        return AbsenceReport(k, ell, "capped", searched)
    return AbsenceReport(k, ell, "exhaustive", searched)


def prove_free(
    d: Digraph, k: int, ell: int, *, cap: int | None = None
) -> TwoBlockCertificate | AbsenceReport:
    """Strict ``find_two_block_cycle`` whose proof of absence is kept on ``d``.

    An ``exhaustive`` report is recorded on the object ``d`` itself, under
    ``(max(k, ell), min(k, ell))``, and answers later calls of
    ``find_two_block_cycle`` on that object within their cap.  The record
    is not keyed by value: a digraph built anew from the same arcs, a
    relabeling, ``d.with_arc(...)`` and ``reverse(d)`` carry none.  Only
    this module reads or writes it.
    """
    result = find_two_block_cycle(d, k, ell, cap=cap)
    if isinstance(result, AbsenceReport):
        _keep(d, k, ell, result.pairs_checked)
    return result


def keep_certificate(
    d: Digraph, p: tuple[int, ...], q: tuple[int, ...], k: int, ell: int
) -> TwoBlockCertificate:
    """``certify(d, p, q, k, ell)``, kept on ``d`` as ``prove_free`` keeps a
    proof of absence.

    The certificate is verified on ``d`` before it is kept (a pair the
    verifier rejects raises :class:`StructuralViolation` and keeps
    nothing), and it answers later calls of ``find_two_block_cycle`` on the
    object ``d`` for ``c(k, ell)`` or ``c(ell, k)`` within their cap.
    """
    cert = certify(d, p, q, k, ell)
    _keep(d, k, ell, cert)
    return cert


def _keep(d: Digraph, k: int, ell: int, answer: int | TwoBlockCertificate) -> None:
    """Keep ``answer`` on the object ``d`` under ``(max(k, ell), min(k, ell))``."""
    proofs = d.__dict__.get(_PROOFS)
    if proofs is None:
        proofs = {}
        object.__setattr__(d, _PROOFS, proofs)
    proofs[max(k, ell), min(k, ell)] = answer


def find_two_block_cycle_through_arc(
    d: Digraph, k: int, ell: int, arc: tuple[int, int]
) -> TwoBlockCertificate | None:
    """Exhaustive search restricted to certificates that use ``arc``.

    This is complete for the incremental question "did adding ``arc`` create
    a two-block cycle?" when the digraph without ``arc`` is known to be free:
    any new certificate must traverse the new arc.

    A certificate whose path P uses ``arc`` = a->b is one oriented cycle with
    two blocks, read from b.  One depth-first search walks it in three
    phases, each over vertices not yet on the walk (the free vertices):

    1. forward from b to v, the suffix of P;
    2. backward from v to u, the second path Q reversed;
    3. forward from u to a, the prefix of P, found by ``_paths``.

    At each vertex the search first tries to end the phase there (v = x,
    then u = y) and only then extends it.  u = a is allowed when Q starts at
    a, except for Q = a->b itself (v = b), which would be P again.  Two cuts
    prune the walk, and each keeps every step that lies on a certificate:

    - A suffix step y is kept only if y reaches forward, inside the free
      vertices, a vertex reached from an ancestor of a (a vertex that
      reaches a inside the free vertices plus a).  On a certificate the
      rest of the suffix leads y to v, and Q leads u to v; u reaches a
      along the prefix, and all of these vertices are still free.
    - A step z of Q is kept only if z reaches backward, inside the free
      vertices plus a, an ancestor of a: Q's part before z leads from u
      to z, and u reaches a along the prefix.  For the same reason Q ends
      at z only if z is an ancestor of a.

    The lengths are checked when Q ends: Q covers one role and P, with the
    prefix ``_paths`` is asked for, the other.  In phase 2 the cut mask is
    the set of ancestors of a inside the free vertices plus a, which is the
    co-reachable set the prefix search needs, so it is passed in.  The walk
    keeps an explicit stack, so its length is not bounded by the recursion
    limit.
    """
    a, b = arc
    if not d.has_arc(a, b):
        raise PreconditionViolated(f"arc {arc} not present")
    kk, ll = max(k, ell), min(k, ell)
    out_mask, in_mask = d.out_mask, d.in_mask
    abit = 1 << a
    free = ((1 << d.n) - 1) & ~abit & ~(1 << b)
    # ``walk`` is b, the suffix up to v = walk[turn], then Q backwards; while
    # the suffix is still growing ``turn`` is -1.  ``todo`` masks the untried
    # candidates after walk[-1] and ``keep`` is its cut mask: the ancestors
    # of a in phase 2, the vertices reached from them in phase 1.  ``stack``
    # saves all four for every earlier vertex.  The first Q may not be a->b.
    walk = [b]
    turn = 0
    keep = reach_mask(in_mask, abit, free | abit)
    todo = in_mask[b] & free
    stack = []
    while True:
        if not todo:
            if turn == len(walk) - 1:
                # Every Q ending at v = walk[-1] failed: extend the suffix.
                turn = -1
                keep = reach_mask(out_mask, keep, free | abit)
                todo = out_mask[walk[-1]] & free
            elif stack:
                todo, free, turn, keep = stack.pop()
                walk.pop()
            else:
                return None
            continue
        zbit = todo & -todo
        todo ^= zbit
        z = zbit.bit_length() - 1
        if turn < 0:
            if not keep & zbit and not reach_mask(out_mask, zbit, free, keep) & keep:
                continue
        elif keep & zbit:
            # z is an ancestor of a (a itself among them), so Q may end here.
            # Q would run z, walk[-1], ..., v: m arcs; P then needs ``need``
            # arcs before a to cover the other role.
            m = len(walk) - turn
            if m >= ll:
                need = (ll if m >= kk else kk) - 1 - turn
                if z == a:
                    prefix = [] if need <= 0 else None
                else:
                    paths = _paths(
                        out_mask, in_mask, z, a, free | abit, need, co=keep
                    )
                    prefix = next(paths, None)
                if prefix is not None:
                    p = (*prefix, a, *walk[: turn + 1])
                    q = (z, *reversed(walk[turn:]))
                    return certify(d, p, q, k, ell)
            if z == a:
                continue
        elif not (
            in_mask[z] & keep or reach_mask(in_mask, zbit, free | abit, keep) & keep
        ):
            continue
        stack.append((todo, free, turn, keep))
        if turn < 0:
            turn = len(walk)
        walk.append(z)
        free ^= zbit
        # The new frame cuts by the ancestors of a.  A suffix step left their
        # closure in ``keep``; a step of Q changes them only if z was one.
        if turn == len(walk) - 1 or keep & zbit:
            keep = reach_mask(in_mask, abit, free | abit)
        todo = in_mask[z] & (free | abit)


def longest_cycle(
    d: Digraph, *, cap: int | None = None, strict: bool = True
) -> DiCycle:
    """A longest cycle with a reproducible tie-break.

    Among maximum-length cycles the one whose min-vertex-first rotation is
    lexicographically least is returned.  Above the cap the search shares
    one expansion budget of ``_HEURISTIC_BUDGET``; if it runs out, strict
    mode raises :class:`CapExceeded` and heuristic mode returns the best
    cycle found, genuine but not certified longest.  :class:`Acyclic` is
    exact in both modes, because the first cycle is searched without a
    budget and the pruning finds it without backtracking.
    """
    cap = DEFAULT_CYCLE_CAP if cap is None else cap
    budget = None if d.n <= cap else [_HEURISTIC_BUDGET]
    best: tuple[int, ...] = ()
    out_mask, in_mask = d.out_mask, d.in_mask
    full = (1 << d.n) - 1
    for s in range(d.n):
        bit = 1 << s
        allowed = full & -bit
        region = reach_mask(in_mask, bit, allowed) & reach_mask(out_mask, bit, allowed)
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
    if budget is not None and budget[0] < 0:
        _cut_short(strict, "longest cycle search", d.n, cap)
    return DiCycle(best)


def hamiltonian_cycle(d: Digraph, *, cap: int | None = None) -> DiCycle | None:
    """A spanning cycle, or ``None`` when exhaustive search proves absence.

    Above the cap the search runs under an expansion budget of
    ``_HEURISTIC_BUDGET`` and raises :class:`CapExceeded` if it runs out
    before an answer; there is no heuristic mode.
    """
    cap = DEFAULT_CYCLE_CAP if cap is None else cap
    if d.n < 2 or not is_strong(d):
        return None
    budget = None if d.n <= cap else [_HEURISTIC_BUDGET]
    cycle = next(_paths(d.out_mask, d.in_mask, 0, 0, (1 << d.n) - 1, d.n, budget), None)
    if cycle is None and budget is not None and budget[0] < 0:
        _cut_short(True, "Hamiltonicity search", d.n, cap)
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
    ``|vCy| >= ell - 1`` the four orientation cases either force a two-block
    cycle built from the named segments, certified against the cycle plus
    the two chords, or land in one of the two exceptional equality patterns.

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
    seg_uv = set(cycle_segment(c, u, v)) - {u, v}
    seg_vu = set(cycle_segment(c, v, u)) - {u, v}
    inside = x_cand & seg_uv
    outside = x_cand & seg_vu
    if len(inside) != 1 or len(outside) != 1:
        raise PreconditionViolated(
            "chord2 must cross chord1: one endpoint inside each segment"
        )
    x, y = inside.pop(), outside.pop()
    ucx = cycle_segment(c, u, x)
    vcy = cycle_segment(c, v, y)
    a_len, b_len = len(ucx) - 1, len(vcy) - 1
    if a_len < k - 1 or b_len < ell - 1:
        raise PreconditionViolated(
            f"need |uCx| >= {k - 1} and |vCy| >= {ell - 1}, got {a_len}, {b_len}"
        )
    uv_forward = chord1 == (u, v)
    xy_forward = chord2 == (x, y)
    host = build_digraph(max(c.vertices) + 1, (*c.arcs(), chord1, chord2))
    if uv_forward and xy_forward:
        return certify(host, ucx + (y,), (u,) + vcy, k, ell)
    if uv_forward:
        if a_len == k - 1:
            return CrossingException("a")
        return certify(host, ucx, (u,) + vcy + (x,), k, ell)
    if xy_forward:
        if b_len == ell - 1:
            return CrossingException("b")
        return certify(host, (v,) + ucx + (y,), vcy, k, ell)
    return certify(host, (v,) + ucx, vcy + (x,), k, ell)
