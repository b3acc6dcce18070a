"""The benchmark's three workloads: inputs built from a seed, one timed
operation per input, and an independent check of every output.

Library functions are looked up on their module at call time
(``harness.audit_bw_claim``, not a name bound at import), so the tracer's
wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import permutations, product
from typing import Any

from twoblock import coloring, detection, digraph, hamiltonian, harness, pipeline

# audit_bw_claim(6): 32,768 labeled 6-tournaments x 5 (k, ell) pairs.
SWEEP_N = 6
SWEEP_TOURNAMENTS = 1 << (SWEEP_N * (SWEEP_N - 1) // 2)
SWEEP_ROWS = SWEEP_TOURNAMENTS * (SWEEP_N - 1)
SWEEP_VIOLATIONS = 160
SWEEP_CSV_SHA256 = "5c2e526d1d29e7379f838825ea3a4ccef34bedea54a806cd735d77220a34e939"


class CheckFailed(Exception):
    """An operation's output failed an independent check."""


@dataclass(frozen=True)
class Item:
    """One operation of a workload.

    ``latency``: the item's time counts in ``op_p50_ms`` / ``op_tail_ms``.
    ``units``: work units the item completes for ``ops_per_s`` (0: none).
    """

    label: str
    payload: Any
    latency: bool = True
    units: int = 1


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Pipeline:
    """The criterion-5 corpus through ``run_pipeline`` + deep ``validate_trace``.

    The digraphs are the first 64 of the acceptance corpus of
    ``tests/test_acceptance.py`` (generator seeds ``3000 + i``); the
    benchmark seed draws a vertex relabeling of each.  Per-instance cost is
    heavy-tailed and set mostly by the instance's structure, so a fresh
    random corpus per seed moves the run's throughput by far more than any
    usable regression bound, while a relabeling changes every labeled input
    (and the search order of every detection call) but not the structure.
    """

    name = "pipeline"
    min_passes = 3
    instances = 64
    cap = 14
    inputs = "64 strong c(k, ell)-free digraphs, n 6-14, k 2-4, detect_cap 14"

    def schedule(self) -> list[tuple[int, int, int, int]]:
        out = []
        i = 0
        while len(out) < self.instances:
            k = 2 + (i % 3)
            ell = 1 + ((i // 3) % k)
            n = 6 + (i % 9)
            i += 1
            if n < max(2 * k - 2, k + ell + 1):
                continue
            out.append((i, n, k, ell))
        return out

    def build(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        items = []
        for i, n, k, ell in self.schedule():
            if i % 2:
                maker = harness.random_cycle_tree_free
            else:
                maker = harness.random_strong_ckl_free
            d = maker(n, k, ell, seed=3000 + i, cap=self.cap)
            perm = rng.sample(range(d.n), d.n)
            relabeled = digraph.Digraph(
                d.n, frozenset((perm[t], perm[h]) for t, h in d.arcs)
            )
            items.append(Item(f"{i}:n{d.n}-k{k}-l{ell}", (relabeled, k, ell)))
        return items

    def run(self, item: Item) -> Any:
        d, k, ell = item.payload
        result = pipeline.run_pipeline(d, k, ell, detect_cap=self.cap)
        if isinstance(result, detection.TwoBlockCertificate):
            return result
        pipeline.validate_trace(result.trace, deep=True, detect_cap=self.cap)
        return result

    def check(self, item: Item, out: Any) -> None:
        d, k, ell = item.payload
        _require(isinstance(out, pipeline.PipelineRun), "pipeline found a c(k, ell)")
        g = digraph.underlying_graph(d)
        _require(coloring.is_proper(g, out.coloring), "coloring is not proper")
        _require(
            out.coloring.palette_size <= pipeline.palette_bound(k, ell),
            "palette exceeds palette_bound(k, ell)",
        )

    def keep(self, item: Item, out: Any) -> Any:
        return out

    def finish(self, items: list[Item], outs: dict[str, Any]) -> None:
        pass

    def colors(self, out: Any) -> int:
        return out.coloring.palette_size


class Hamiltonian:
    """The criterion-3 schedule: generate, find the Hamiltonian cycle, color."""

    name = "hamiltonian"
    min_passes = 3
    ops = 420
    inputs = "420 generated Hamiltonian c(k, ell)-free digraphs, n 5-12, k + ell 3-5"
    pairs = ((2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (2, 3), (4, 1))

    def build(self, seed: int) -> list[Item]:
        items = []
        i = 0
        while len(items) < self.ops:
            k, ell = self.pairs[i % len(self.pairs)]
            n = 5 + (i % 8)
            i += 1
            if n < k + ell + 1:
                continue
            gen_seed = 1_000_003 * seed + i
            items.append(Item(f"{i}:n{n}-k{k}-l{ell}", (n, k, ell, gen_seed)))
        return items

    def run(self, item: Item) -> Any:
        n, k, ell, gen_seed = item.payload
        d = harness.random_strong_ckl_free(n, max(k, ell), min(k, ell), seed=gen_seed)
        ham = detection.hamiltonian_cycle(d)
        if ham is None:
            return d, None, None
        return d, ham, hamiltonian.color_hamiltonian(d, ham, k, ell)

    def check(self, item: Item, out: Any) -> None:
        _n, k, ell, _seed = item.payload
        d, ham, col = out
        _require(ham is not None, "generated digraph has no Hamiltonian cycle")
        _require(
            sorted(ham.vertices) == list(range(d.n)) and digraph.cycle_in(d, ham),
            "returned cycle is not Hamiltonian",
        )
        _require(isinstance(col, coloring.Coloring), "coloring found a c(k, ell)")
        g = digraph.underlying_graph(d)
        _require(coloring.is_proper(g, col), "coloring is not proper")
        _require(col.palette_size <= k + ell, "coloring uses more than k + ell colors")
        order = hamiltonian.ham_degeneracy_order(d, ham, k, ell)
        _require(isinstance(order, coloring.EliminationOrder), "order found c(k, ell)")
        _require(
            coloring.elimination_back_degree(g, order.order) <= k + ell - 1,
            "elimination order exceeds back-degree k + ell - 1",
        )

    def keep(self, item: Item, out: Any) -> Any:
        return out

    def finish(self, items: list[Item], outs: dict[str, Any]) -> None:
        pass

    def colors(self, out: Any) -> int:
        return out[2].palette_size


def tournament(n: int, bits: int) -> digraph.Digraph:
    """The labeled tournament whose arc ``i -> j`` (``i < j``) is present
    exactly when bit ``idx`` of ``bits`` is set, pairs in row-major order."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return digraph.Digraph(
        n,
        frozenset(
            (i, j) if (bits >> idx) & 1 else (j, i) for idx, (i, j) in enumerate(pairs)
        ),
    )


def refined_canonical_form(d: digraph.Digraph) -> int:
    """An exact canonical form computed differently from the library's.

    Vertices are split into cells by an isomorphism invariant (out-degree,
    then the sorted out-degrees of the out-neighbours); the form is the least
    adjacency bitmask over relabelings that number the cells in order.  Two
    digraphs get equal forms exactly when they are isomorphic, but the
    values differ from ``harness.canonical_form``, so only the induced
    partition into classes can be compared.
    """
    n = d.n
    out = [[h for h in range(n) if d.has_arc(v, h)] for v in range(n)]
    score = [len(o) for o in out]
    key = [(score[v], tuple(sorted(score[h] for h in out[v]))) for v in range(n)]
    cells: list[list[int]] = []
    for k in sorted(set(key)):
        cells.append([v for v in range(n) if key[v] == k])
    best = None
    for choice in product(*(permutations(c) for c in cells)):
        label = [0] * n
        for new, v in enumerate(v for cell in choice for v in cell):
            label[v] = new
        bits = 0
        for t, h in d.arcs:
            bits |= 1 << (label[t] * n + label[h])
        if best is None or bits < best:
            best = bits
    return best if best is not None else 0


class Tournaments:
    """The n=6 truth-table sweep, then classification of 7-tournaments."""

    name = "tournaments"
    min_passes = 1
    sample = 64
    classify_n = 7
    inputs = "32,768 labeled 6-tournaments (sweep), 64 labeled 7-tournaments (classify)"

    def build(self, seed: int) -> list[Item]:
        """Every pass classifies the sample three times before the sweep and
        three times after it, so each call's median run time is taken over
        runs spread across the whole pass."""
        rng = random.Random(seed)
        n = self.classify_n
        sample = [
            Item(f"{j}:t{n}", tournament(n, rng.getrandbits(n * (n - 1) // 2)), units=0)
            for j in range(self.sample)
        ]
        sweep = Item("sweep", SWEEP_N, latency=False, units=SWEEP_TOURNAMENTS)
        return 3 * sample + [sweep] + 3 * sample

    def run(self, item: Item) -> Any:
        if item.label == "sweep":
            return harness.audit_bw_claim(item.payload)
        return harness.canonical_form(item.payload)

    def check(self, item: Item, out: Any) -> None:
        if item.label == "sweep":
            _require(len(out.rows) == SWEEP_ROWS, "truth table has the wrong size")
            _require(
                len(out.violations()) == SWEEP_VIOLATIONS,
                f"expected {SWEEP_VIOLATIONS} violating rows",
            )
            digest = hashlib.sha256(out.to_csv().encode()).hexdigest()
            _require(digest == SWEEP_CSV_SHA256, "truth-table CSV hash differs")
        else:
            _require(isinstance(out, int) and out >= 0, "canonical form is not an int")

    def keep(self, item: Item, out: Any) -> Any:
        """The sweep's truth table is kept as the hash of its CSV, so that
        a later pass's table is not alive beside the first one and the peak
        memory does not depend on the number of passes."""
        if item.label == "sweep":
            return hashlib.sha256(out.to_csv().encode()).hexdigest()
        return out

    def finish(self, items: list[Item], outs: dict[str, Any]) -> None:
        """The library's classes of the sample must be the classes of the
        refined form: same count, and a one-to-one match between forms."""
        sample = {it.label: it.payload for it in items if it.label != "sweep"}
        pairs = {
            (outs[label], refined_canonical_form(d))
            for label, d in sample.items()
            if label in outs
        }
        library = {a for a, _ in pairs}
        refined = {b for _, b in pairs}
        _require(
            len(library) == len(refined) == len(pairs),
            f"isomorphism classes disagree: library {len(library)}, "
            f"refined {len(refined)}",
        )


WORKLOADS = {w.name: w for w in (Pipeline(), Hamiltonian(), Tournaments())}
