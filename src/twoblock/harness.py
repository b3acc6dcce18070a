"""Instance generation, small-tournament enumeration, and empirical audits.

Everything here is deterministic per (seed, configuration): labeled
enumeration runs in bitmask order, isomorphism classes come in increasing
canonical form, random generators take explicit seeds, and reports sort by
instance id so output files are byte-stable regardless of worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Iterable, Iterator

import random

from .detection import (
    AbsenceReport,
    TwoBlockCertificate,
    find_two_block_cycle,
    find_two_block_cycle_through_arc,
    hamiltonian_cycle,
    keep_certificate,
    longest_cycle,
    prove_free,
)
from .digraph import Digraph, is_strong, underlying_graph
from .errors import (
    CapExceeded, LoopArc, PreconditionViolated, StructuralViolation, VertexOutOfRange
)

CLASS_CAP = 8

Detection = TwoBlockCertificate | AbsenceReport


def encode_arcs_hex(d: Digraph) -> str:
    """Hex bitmask of the n x n adjacency matrix, row-major, diagonal zero."""
    bits = sum(row << (t * d.n) for t, row in enumerate(d.out_mask))
    width = max((d.n * d.n + 3) // 4, 1)
    return format(bits, f"0{width}x")


def decode_arcs_hex(n: int, encoded: str) -> Digraph:
    """The digraph of ``encode_arcs_hex``.  A diagonal bit raises ``LoopArc`` and
    a bit at or beyond ``n * n`` ``VertexOutOfRange``, as in ``build_digraph``."""
    bits = int(encoded, 16)
    if bits >> (n * n):
        raise VertexOutOfRange(f"{encoded!r} has a bit beyond {n} x {n}")
    for v in range(n):
        if (bits >> (v * n + v)) & 1:
            raise LoopArc(f"loop arc ({v},{v})")
    return _from_bits(n, bits)


def _from_bits(n: int, bits: int) -> Digraph:
    """The digraph whose arc ``i -> j`` is bit ``i * n + j`` of ``bits``,
    which must have no diagonal bit: row ``i`` is the out-mask of ``i``."""
    row = (1 << n) - 1
    out = tuple((bits >> (i * n)) & row for i in range(n))
    inn = tuple(sum(((out[t] >> h) & 1) << t for t in range(n)) for h in range(n))
    return Digraph.from_masks(n, out, inn)


@dataclass
class InstanceRecord:
    """One evaluated digraph; every recorded property is re-verifiable."""

    instance_id: str
    seed: int | None
    vertex_count: int
    arcs_hex: str
    tags: dict[str, bool] = field(default_factory=dict)
    properties: dict[str, object] = field(default_factory=dict)

    def digraph(self) -> Digraph:
        return decode_arcs_hex(self.vertex_count, self.arcs_hex)

    def to_json_line(self) -> str:
        import json
        return json.dumps(
            {
                "instance_id": self.instance_id,
                "seed": self.seed,
                "vertex_count": self.vertex_count,
                "arcs_hex": self.arcs_hex,
                "tags": self.tags,
                "properties": self.properties,
            },
            sort_keys=True,
        )


def _tournament(n: int, bits: int) -> Digraph:
    """The tournament whose ``idx``-th pair ``i < j`` (row-major) is oriented
    ``i -> j`` when bit ``idx`` of ``bits`` is set, else ``j -> i``.  It is
    built from its adjacency masks alone."""
    out_mask = [0] * n
    in_mask = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            t, h = (i, j) if bits & 1 else (j, i)
            bits >>= 1
            out_mask[t] |= 1 << h
            in_mask[h] |= 1 << t
    return Digraph.from_masks(n, tuple(out_mask), tuple(in_mask))


def canonical_form(d: Digraph) -> int:
    """An adjacency bitmask (bit ``t * n + h`` for the arc ``t -> h``) that
    two digraphs share exactly when they are isomorphic.

    Individualization and refinement (McKay & Piperno, "Practical graph
    isomorphism II", 2014): the ordered partition of the vertices is refined
    by ``_refine``; the search then individualizes, in turn, each vertex of
    the first cell with more than one vertex and refines again, down to
    discrete partitions (leaves).  Refinement stops as soon as the partition
    is discrete, without a round to confirm it; most tournaments are
    discrete after the first refinement, so they have one leaf and no
    branching.  Each leaf numbers the vertices in cell order, and the form
    is the least bitmask over all leaves.  Refinement and branching commute
    with relabeling, so the set of leaf bitmasks depends only on the
    isomorphism class.  The refinement keys are packed integers ordered as
    tuples of counts (see ``_refine``), so the forms are those of tuple
    keys, value for value.  The null digraph gives 0.
    """
    return _canonical_masks(d.n, d.out_mask, d.in_mask)


def _canonical_masks(n: int, out: tuple[int, ...], inn: tuple[int, ...]) -> int:
    """``canonical_form`` of the digraph with out-masks ``out`` and
    in-masks ``inn``.  Cells are vertex bitmasks, and a leaf's bitmask is
    built one row at a time, from the last row to the first."""
    best: int | None = None
    stack = [_refine(n, out, inn, [(1 << n) - 1] if n else [])]
    while stack:
        cells = stack.pop()
        if len(cells) == n:
            label = [0] * n
            for pos, cell in enumerate(cells):
                label[cell.bit_length() - 1] = pos
            bits = 0
            for cell in reversed(cells):
                row = 0
                heads = out[cell.bit_length() - 1]
                while heads:
                    low = heads & -heads
                    row |= 1 << label[low.bit_length() - 1]
                    heads ^= low
                bits = bits << n | row
            if best is None or bits < best:
                best = bits
            continue
        split = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
        cell = rest = cells[split]
        while rest:
            low = rest & -rest
            rest ^= low
            branch = cells[:split] + [low, cell ^ low] + cells[split + 1 :]
            stack.append(_refine(n, out, inn, branch))
    return best if best is not None else 0


def _refine(
    n: int, out: tuple[int, ...], inn: tuple[int, ...], cells: list[int]
) -> list[int]:
    """Split every cell (a vertex bitmask) by each vertex's (out-count,
    in-count) into every cell, until no cell splits (the partition is
    equitable) or every cell holds one vertex.

    A vertex's key is one integer: for each cell in order, the out-count
    and then the in-count are shifted in, each in a field of
    ``n.bit_length()`` bits.  No count exceeds ``n - 1``, so no field spills
    into the next, and all keys of a round have the same number of fields;
    integer order is therefore the lexicographic order of the count tuples.
    The parts of a split cell replace it in increasing order of their key,
    which depends only on the ordered partition, never on vertex numbers.
    """
    width = n.bit_length()
    while len(cells) < n:
        refined: list[int] = []
        for cell in cells:
            if not cell & (cell - 1):
                refined.append(cell)
                continue
            parts: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                o, i = out[v], inn[v]
                key = 0
                for m in cells:
                    key = (key << width | (o & m).bit_count()) << width
                    key |= (i & m).bit_count()
                parts[key] = parts.get(key, 0) | low
            refined.extend(parts[key] for key in sorted(parts))
        if len(refined) == len(cells):
            break
        cells = refined
    return cells


def tournament_classes(n: int) -> list[Digraph]:
    """One tournament per isomorphism class on ``n`` vertices, each labeled
    by its canonical form, in increasing canonical form.

    Isomorph-free generation by one-vertex extension (McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 1998): every
    ``(n-1)``-class is extended by a new vertex ``n-1`` with each of the
    ``2^(n-1)`` out-neighbourhoods, and the extensions are deduplicated by
    canonical form.  Deleting vertex ``n-1`` of any ``n``-tournament leaves
    a member of some ``(n-1)``-class, so every class is reached.
    """
    if n > CLASS_CAP:
        raise CapExceeded(f"class enumeration needs n <= {CLASS_CAP}")
    if n < 1:
        raise PreconditionViolated("need n >= 1")
    forms = {0}
    for m in range(2, n + 1):
        new = 1 << (m - 1)
        extended: set[int] = set()
        for form in forms:
            base = _from_bits(m - 1, form)
            for nbhd in range(new):
                others = new - 1 - nbhd
                out = tuple(
                    mask | new if (others >> v) & 1 else mask
                    for v, mask in enumerate(base.out_mask)
                ) + (nbhd,)
                inn = tuple(
                    mask | new if (nbhd >> v) & 1 else mask
                    for v, mask in enumerate(base.in_mask)
                ) + (others,)
                extended.add(_canonical_masks(m, out, inn))
        forms = extended
    return [_from_bits(n, form) for form in sorted(forms)]


def random_strong_digraph(n: int, seed: int, *, density: float = 0.3) -> Digraph:
    """Rejection-sample a strong digraph with the given arc density."""
    if n < 1:
        raise PreconditionViolated("need n >= 1")
    rng = random.Random(seed)
    while True:
        arcs = frozenset(
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < density
        )
        d = Digraph(n, arcs)
        if is_strong(d):
            return d


def random_hamiltonian_min_degree(n: int, min_degree: int, seed: int) -> Digraph:
    """A Hamiltonian digraph whose underlying minimum degree is forced up.

    Starts from the directed cycle 0 -> 1 -> ... -> n-1 -> 0 and keeps adding
    random non-arcs until every underlying degree reaches ``min_degree``.
    """
    if n < 2:
        raise PreconditionViolated("need n >= 2 (a cycle on one vertex is a loop)")
    if min_degree > n - 1:
        raise PreconditionViolated("min_degree cannot exceed n - 1")
    rng = random.Random(seed)
    arcs = {(i, (i + 1) % n) for i in range(n)}
    candidates = [
        (i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in arcs
    ]
    rng.shuffle(candidates)
    d = Digraph(n, frozenset(arcs))
    for cand in candidates:
        if all(d.underlying_degree(v) >= min_degree for v in range(n)):
            break
        t, h = cand
        if min(d.underlying_degree(t), d.underlying_degree(h)) >= min_degree:
            continue
        d = d.with_arc(*cand)
    if any(d.underlying_degree(v) < min_degree for v in range(n)):
        raise PreconditionViolated("degree target unreachable")
    return d


def random_strong_ckl_free(
    n: int,
    k: int,
    ell: int,
    seed: int,
    *,
    cap: int | None = None,
) -> Digraph:
    """A strong digraph verified free of ``c(k, ell)`` by exhaustive detection.

    Construction: the directed Hamiltonian cycle plus random chords, each kept
    only when it creates no two-block cycle.  Chord trials use the
    arc-anchored incremental search (complete because the digraph before the
    trial is already free); strict detection then proves the result free,
    or raises :class:`CapExceeded` above ``cap``.  The proof is kept on the
    returned object (see ``_sprinkle_chords``).  Deterministic per seed.
    For ``(k, ell) = (2, 1)`` the result is always the bare Hamiltonian
    cycle: every non-arc ``x -> y`` closes a ``c(2, 1)`` with the cycle path
    from ``x`` to ``y``.
    """
    if k < 2 or ell < 1 or ell > k:
        raise PreconditionViolated("need k >= 2 and k >= ell >= 1")
    if n < 3:
        raise PreconditionViolated("need n >= 3")
    rng = random.Random(seed)
    arcs = {(i, (i + 1) % n) for i in range(n)}
    return _sprinkle_chords(n, k, ell, arcs, rng, cap)


def random_cycle_tree_free(
    n: int,
    k: int,
    ell: int,
    seed: int,
    *,
    cap: int | None = None,
) -> Digraph:
    """A (usually non-Hamiltonian) strong ``c(k, ell)``-free digraph.

    Grows a chain of directed cycles glued at single vertices -- such a union
    has only unique paths between vertices, hence no two-block cycle at all --
    and then sprinkles random extra arcs, each kept only when the arc-anchored
    detector finds nothing through it.  Produces instances whose contraction
    pipeline sees multi-cycle trees and external arcs, which the Hamiltonian
    generator never does; the result is verified as that generator's is,
    and the proof is kept on it the same way.
    """
    if k < 2 or ell < 1 or ell > k:
        raise PreconditionViolated("need k >= 2 and k >= ell >= 1")
    base_len = max(2 * k - 2, 2)
    if n < base_len:
        raise PreconditionViolated(f"need n >= {base_len}")
    rng = random.Random(seed)
    arcs: set[tuple[int, int]] = {(i, (i + 1) % base_len) for i in range(base_len)}
    total = base_len
    while total < n:
        room = n - total
        if room < base_len - 1:
            break
        length = rng.randint(base_len, min(base_len + 3, room + 1))
        attach = rng.randrange(total)
        ring = [attach] + list(range(total, total + length - 1))
        total += length - 1
        for i, v in enumerate(ring):
            arcs.add((v, ring[(i + 1) % len(ring)]))
    return _sprinkle_chords(total, k, ell, arcs, rng, cap)


def _sprinkle_chords(
    n: int,
    k: int,
    ell: int,
    arcs: set[tuple[int, int]],
    rng: random.Random,
    cap: int | None,
) -> Digraph:
    """Add to the ``c(k, ell)``-free ``arcs`` every non-arc, in an order
    shuffled by ``rng``, that closes no ``c(k, ell)``; then verify the result
    by strict detection with ``cap``, which proves it or raises.

    Each trial is the arc-anchored search, complete because the digraph
    before the trial is already free.  An accepted trial becomes the
    current digraph, so every trial extends the masks of the last.  The
    final proof is ``prove_free``'s, so it stays on the returned object:
    ``find_two_block_cycle`` on that object for ``(k, ell)`` or
    ``(ell, k)`` within its cap returns it instead of searching again.
    """
    candidates = [
        (i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in arcs
    ]
    rng.shuffle(candidates)
    d = Digraph(n, frozenset(arcs))
    for cand in candidates:
        trial = d.with_arc(*cand)
        if find_two_block_cycle_through_arc(trial, k, ell, cand) is None:
            d = trial
    outcome = prove_free(d, k, ell, cap=cap)
    if not isinstance(outcome, AbsenceReport):
        raise PreconditionViolated(
            "generator postcondition failed: instance is not verified free"
        )
    return d


def _pair_results(d: Digraph) -> dict[tuple[int, int], Detection]:
    """``find_two_block_cycle(d, k, ell)`` for each unordered pair with
    ``k + ell = n``, keyed ``(k, ell)`` with ``k <= ell``.  ``c(k, ell)``
    and ``c(ell, k)`` are the same digraph, so each unordered pair is
    searched once."""
    n = d.n
    return {(k, n - k): find_two_block_cycle(d, k, n - k) for k in range(1, n // 2 + 1)}


def _pair_verdicts(
    n: int, results: dict[tuple[int, int], Detection]
) -> list[tuple[int, int, bool]]:
    """``(k, ell, contains c(k, ell))`` for k = 1, ..., n-1 and ell = n - k,
    read from ``_pair_results``."""
    verdicts = []
    for k in range(1, n):
        found = results[min(k, n - k), max(k, n - k)]
        verdicts.append((k, n - k, isinstance(found, TwoBlockCertificate)))
    return verdicts


def _evaluate_tournament(n: int, bits: int) -> InstanceRecord | None:
    d = _tournament(n, bits)
    if not is_strong(d):
        return None
    verdicts = {
        f"{k},{ell}": found for k, ell, found in _pair_verdicts(n, _pair_results(d))
    }
    if all(verdicts.values()):
        return None
    ham = hamiltonian_cycle(d)
    return InstanceRecord(
        instance_id=f"t{n}-{bits:07d}",
        seed=None,
        vertex_count=n,
        arcs_hex=encode_arcs_hex(d),
        tags={"strong": True, "tournament": True, "hamiltonian": ham is not None},
        properties={
            "chi": n,
            "longest_cycle": longest_cycle(d).length,
            "two_block": verdicts,
        },
    )


def _members(d: Digraph) -> list[tuple[int, tuple[int, ...]]]:
    """The ``_tournament`` bit patterns of the ``n!`` relabelings of the
    tournament ``d``, ascending and without repeats, each with the first
    permutation (in ``itertools.permutations`` order) that gives it: the
    member's arcs are ``perm[t] -> perm[h]`` for the arcs ``t -> h`` of
    ``d``."""
    n = d.n
    # bit[i][j] is the pattern bit that the arc i -> j sets: that of the
    # pair (i, j) when i < j, none otherwise.
    bit = [[0] * n for _ in range(n)]
    for idx, (i, j) in enumerate((i, j) for i in range(n) for j in range(i + 1, n)):
        bit[i][j] = 1 << idx
    arcs = tuple(d.arcs)
    members: dict[int, tuple[int, ...]] = {}
    for perm in permutations(range(n)):
        members.setdefault(sum(bit[perm[t]][perm[h]] for t, h in arcs), perm)
    return sorted(members.items())


def _class_hits(d: Digraph) -> list[InstanceRecord]:
    """Records of every labeled member of ``d``'s class, or none when ``d``
    is not strong or contains every ``c(k, ell)`` with ``k + ell = n``.

    The members are the relabelings of ``d`` (``_members``), each recorded
    by its ``_tournament`` bit pattern.
    """
    if not is_strong(d) or all(
        isinstance(found, TwoBlockCertificate) for found in _pair_results(d).values()
    ):
        return []
    records = [_evaluate_tournament(d.n, bits) for bits, _ in _members(d)]
    if None in records:
        raise StructuralViolation(
            f"a relabeling of class {encode_arcs_hex(d)} got other verdicts"
        )
    return records


def _map(fn: Callable, items: list, workers: int, chunksize: int) -> list:
    """``fn`` of each item in order, on ``workers`` processes if more than one."""
    if workers <= 1:
        return [fn(x) for x in items]
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def search_problem1(n: int, *, workers: int = 1) -> list[InstanceRecord]:
    """Strong labeled tournaments on ``n`` vertices missing some ``c(k, ell)``
    with ``k + ell = n``; per-pair verdicts are recorded for every hit.

    A strong tournament is ``n``-chromatic, so each hit is a digraph whose
    chromatic number meets ``k + ell`` yet avoids that two-block cycle.

    Strength and the pair verdicts are decided once per isomorphism class
    (``tournament_classes``), and only the classes that miss a pair are
    expanded to their labeled members.  Strength, the verdicts, the
    chromatic number, the longest cycle and Hamiltonicity are isomorphism
    invariants, so the records are those of a sweep over all labeled
    tournaments.  ``workers`` processes share the classes.
    """
    if n < 4:
        raise PreconditionViolated(f"search needs 4 <= n <= {CLASS_CAP}")
    if n > CLASS_CAP:
        raise CapExceeded(f"search needs 4 <= n <= {CLASS_CAP}")
    results = _map(_class_hits, tournament_classes(n), workers, 64)
    hits = [r for records in results for r in records]
    hits.sort(key=lambda r: r.instance_id)
    return hits


@dataclass
class BondyReport:
    """Longest-cycle-vs-chromatic-number audit over strong instances."""

    checked: int
    violations: list[dict[str, object]]

    def summary(self) -> str:
        status = "OK" if not self.violations else "VIOLATED"
        return (
            f"bondy audit: {self.checked} strong digraphs checked, "
            f"{len(self.violations)} violations [{status}]"
        )


def _bondy_eval(d: Digraph) -> tuple[int, int]:
    from .coloring import chromatic_number

    return longest_cycle(d).length, chromatic_number(underlying_graph(d))[0]


def audit_bondy(instances: Iterable[Digraph], *, workers: int = 1) -> BondyReport:
    """Check longest-cycle length >= chromatic number on strong digraphs.

    Zero violations expected; anything else flags a solver bug.  Results are
    merged in input order, so worker count never changes the report.
    """
    digraphs = list(instances)
    for d in digraphs:
        if not is_strong(d):
            raise PreconditionViolated("bondy audit expects strong digraphs")
    measured = _map(_bondy_eval, digraphs, workers, 8)
    violations: list[dict[str, object]] = []
    for d, (cycle_len, chi) in zip(digraphs, measured):
        if cycle_len < chi:
            violations.append(
                {
                    "arcs_hex": encode_arcs_hex(d),
                    "vertex_count": d.n,
                    "longest_cycle": cycle_len,
                    "chi": chi,
                }
            )
    return BondyReport(len(digraphs), violations)


@dataclass(slots=True)
class BwRow:
    tournament_bits: int
    k: int
    ell: int
    contains: bool


class BwRows:
    """The rows of a ``BwReport``, read from its table one at a time.

    Indexing, slicing, iteration and ``==`` behave as on the list of rows; a
    slice builds only the rows it holds.
    """

    __slots__ = ("n", "table")

    def __init__(self, n: int, table: list[list[tuple[int, int, bool]]]) -> None:
        self.n, self.table = n, table

    def __len__(self) -> int:
        return len(self.table) * (self.n - 1)

    def __getitem__(self, index: int | slice) -> BwRow | list[BwRow]:
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        bits, j = divmod(range(len(self))[index], self.n - 1)
        return BwRow(bits, *self.table[bits][j])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (BwRows, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __iter__(self) -> Iterator[BwRow]:
        for bits, verdicts in enumerate(self.table):
            for verdict in verdicts:
                yield BwRow(bits, *verdict)


@dataclass
class BwReport:
    """Per-tournament, per-pair truth table for the all-pairs containment claim.

    The claim under audit: every tournament on ``n >= 4`` vertices contains
    ``c(k, ell)`` whenever ``k + ell = n``.  Violations are surfaced without
    interpretation.  ``table[bits]`` lists ``(k, ell, contains)``, ``k = 1,
    ..., n-1``, for the labeled tournament with ``_tournament`` pattern
    ``bits`` (see ``audit_bw_claim``); a class's members share one list, and
    ``rows`` reads one ``BwRow`` per entry from it, patterns ascending.
    """

    n: int
    table: list[list[tuple[int, int, bool]]]

    @property
    def rows(self) -> BwRows:
        return BwRows(self.n, self.table)

    def violations(self) -> list[BwRow]:
        rows = ((bits, v) for bits, verdicts in enumerate(self.table) for v in verdicts)
        return [BwRow(bits, *v) for bits, v in rows if not v[2]]

    def to_csv(self) -> str:
        # The line tails ",k,ell,0|1\n" are formatted once per shared list.
        lists = {id(verdicts): verdicts for verdicts in self.table}.items()
        tails = {i: [f",{k},{ell},{int(c)}\n" for k, ell, c in v] for i, v in lists}
        parts = ["tournament_bits,k,ell,contains\n"]
        for bits, verdicts in enumerate(self.table):
            prefix = str(bits)
            parts.append(prefix + prefix.join(tails[id(verdicts)]))
        return "".join(parts)

    def summary(self) -> str:
        return (
            f"two-block containment audit at n={self.n}: {len(self.rows)} rows, "
            f"{len(self.violations())} violating (tournament, pair) rows"
        )


def audit_bw_claim(n: int) -> BwReport:
    """Exhaustive truth table over all labeled tournaments and k + ell = n.

    Each isomorphism class (``tournament_classes``) is searched once per
    unordered pair (``_pair_results``), and its verdicts are shared by all
    its labeled members (``_members``).  Every member's verdicts are those
    of ``find_two_block_cycle`` on its own tournament: the class tournament
    is the member with the identity permutation, and on every other member
    each class certificate, relabeled by the member's permutation, is
    verified and kept on it (``keep_certificate``), so its search returns
    that certificate, while each class negative is proved again by
    exhaustive search.  Every bit pattern must be reached exactly once.  A
    failure of any of these checks raises :class:`StructuralViolation`.
    The report holds the table as built, one verdict list per class.
    """
    if n < 4:
        raise PreconditionViolated("the audited claim is scoped to n >= 4")
    if n > 6:
        raise CapExceeded("audit needs n <= 6")
    patterns = 1 << (n * (n - 1) // 2)
    identity = tuple(range(n))
    table: list[list[tuple[int, int, bool]] | None] = [None] * patterns
    for d in tournament_classes(n):
        results = _pair_results(d)
        verdicts = _pair_verdicts(n, results)
        certs = [
            (k, ell, found.path_a, found.path_b)
            for (k, ell), found in results.items()
            if isinstance(found, TwoBlockCertificate)
        ]
        for bits, perm in _members(d):
            if table[bits] is not None:
                raise StructuralViolation(f"tournament bits={bits} is in two classes")
            if perm != identity:
                member = _tournament(n, bits)
                relabel = perm.__getitem__
                for k, ell, p, q in certs:
                    p, q = tuple(map(relabel, p)), tuple(map(relabel, q))
                    keep_certificate(member, p, q, k, ell)
                for (k, ell), found in _pair_results(member).items():
                    if isinstance(found, TwoBlockCertificate) and not isinstance(
                        results[k, ell], TwoBlockCertificate
                    ):
                        raise StructuralViolation(
                            f"tournament bits={bits} contains c({k}, {ell}) "
                            "but its class does not"
                        )
            # One list per class, not per member: the table of 2^(n(n-1)/2)
            # members would otherwise hold as many lists.
            table[bits] = verdicts
    if None in table:
        raise StructuralViolation(f"tournament bits={table.index(None)} is in no class")
    return BwReport(n, table)


def write_records(records: Iterable[InstanceRecord], path: str) -> int:
    """Persist records as JSON lines, sorted by instance id; returns the count."""
    ordered = sorted(records, key=lambda r: r.instance_id)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in ordered:
            fh.write(rec.to_json_line() + "\n")
    return len(ordered)
