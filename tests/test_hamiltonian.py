from __future__ import annotations

import random

import pytest

from twoblock.coloring import elimination_back_degree, is_proper
from twoblock.detection import (
    TwoBlockCertificate,
    find_two_block_cycle,
    hamiltonian_cycle,
    verify_certificate,
)
from twoblock.digraph import DiCycle, Digraph, build_digraph, underlying_graph
from twoblock.errors import NotHamiltonian, PreconditionViolated
from twoblock.hamiltonian import (
    color_hamiltonian,
    ham_degeneracy_order,
    low_degree_or_certificate,
)
from twoblock.harness import random_strong_ckl_free

from oracles import oracle_two_block, random_digraph


def directed_cycle(n):
    return build_digraph(n, [(i, (i + 1) % n) for i in range(n)])


def bidirected_complete(n):
    return build_digraph(n, [(i, j) for i in range(n) for j in range(n) if i != j])


class TestLowDegreeOrCertificate:
    def test_directed_cycle_low_degree(self):
        d = directed_cycle(6)
        v = low_degree_or_certificate(d, DiCycle(tuple(range(6))), 2, 1)
        assert v == 0  # every vertex qualifies; lowest id wins

    def test_figure1_low_degree(self, fig1):
        ham = hamiltonian_cycle(fig1)
        v = low_degree_or_certificate(fig1, ham, 4, 1)
        assert v == 0  # K5 degrees are 4 = k + ell - 1

    def test_bidirected_complete_gives_certificate(self):
        # n = k + ell + 1 forces min degree k + ell
        d = bidirected_complete(4)
        ham = hamiltonian_cycle(d)
        result = low_degree_or_certificate(d, ham, 2, 1)
        assert isinstance(result, TwoBlockCertificate)
        assert verify_certificate(d, result, 2, 1)

    def test_not_hamiltonian_rejected(self):
        d = directed_cycle(5)
        with pytest.raises(NotHamiltonian):
            low_degree_or_certificate(d, DiCycle((0, 1, 2)), 2, 1)

    def test_k_plus_ell_two_rejected(self):
        d = directed_cycle(4)
        with pytest.raises(PreconditionViolated):
            low_degree_or_certificate(d, DiCycle((0, 1, 2, 3)), 1, 1)


class TestHamDegeneracyOrder:
    def test_directed_c6(self):
        d = directed_cycle(6)
        order = ham_degeneracy_order(d, DiCycle(tuple(range(6))), 2, 1)
        assert order.bound == 2
        assert elimination_back_degree(underlying_graph(d), order.order) <= 2

    def test_figure1_bound_4(self, fig1):
        ham = hamiltonian_cycle(fig1)
        order = ham_degeneracy_order(fig1, ham, 4, 1)
        assert order.bound == 4
        assert elimination_back_degree(underlying_graph(fig1), order.order) <= 4

    def test_c5_with_chord_surfaces_certificate(self):
        arcs = [(i, (i + 1) % 5) for i in range(5)] + [(0, 2)]
        d = build_digraph(5, arcs)
        result = ham_degeneracy_order(d, DiCycle(tuple(range(5))), 2, 1)
        assert isinstance(result, TwoBlockCertificate)
        assert verify_certificate(d, result, 2, 1)

    def test_replayed_certificates_verify_in_parent(self):
        # dense instances force several shortcut rounds before detection fires
        rng = random.Random(7)
        seen = 0
        while seen < 25:
            n = rng.randint(5, 9)
            base = {(i, (i + 1) % n) for i in range(n)}
            extra = {
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j and rng.random() < 0.45
            }
            d = build_digraph(n, sorted(base | extra))
            k, ell = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2)])
            result = ham_degeneracy_order(d, DiCycle(tuple(range(n))), k, ell)
            if isinstance(result, TwoBlockCertificate):
                assert verify_certificate(d, result, k, ell)
                seen += 1
            else:
                assert (
                    elimination_back_degree(underlying_graph(d), result.order)
                    <= k + ell - 1
                )

    def test_levels_built_from_masks(self, monkeypatch):
        # Each level is the previous one's masks with the deleted vertex
        # cleared and the shortcut set, so no arc set is built or read.
        d = random_strong_ckl_free(12, 3, 2, seed=5)
        ham = hamiltonian_cycle(d)
        built = []
        init = Digraph.__init__

        def counting(self, n, arcs):
            built.append(n)
            init(self, n, arcs)

        monkeypatch.setattr(Digraph, "__init__", counting)
        order = ham_degeneracy_order(d, ham, 3, 2)
        assert built == [] and "arcs" not in vars(d)
        assert elimination_back_degree(underlying_graph(d), order.order) <= 4


class TestColorHamiltonian:
    def test_figure1_uses_exactly_5(self, fig1):
        ham = hamiltonian_cycle(fig1)
        coloring = color_hamiltonian(fig1, ham, 4, 1)
        assert coloring.palette_size == 5  # tight: chi equals k + ell
        assert is_proper(underlying_graph(fig1), coloring)

    def test_directed_c4(self):
        d = directed_cycle(4)
        coloring = color_hamiltonian(d, DiCycle(tuple(range(4))), 2, 1)
        assert coloring.palette_size <= 3

    def test_generated_free_instance(self):
        d = random_strong_ckl_free(9, 3, 2, seed=11)
        ham = hamiltonian_cycle(d)
        coloring = color_hamiltonian(d, ham, 3, 2)
        assert coloring.palette_size <= 5
        assert is_proper(underlying_graph(d), coloring)


def test_min_degree_instances_always_give_certificates():
    # random Hamiltonian digraphs with underlying min degree >= k + ell
    rng = random.Random(1234)
    done = 0
    while done < 30:
        n = rng.randint(5, 9)
        k, ell = rng.choice([(2, 1), (2, 2), (3, 1)])
        base = {(i, (i + 1) % n) for i in range(n)}
        d = build_digraph(n, sorted(base))
        extra = [(i, j) for i in range(n) for j in range(n) if i != j]
        rng.shuffle(extra)
        arcs = set(base)
        for a in extra:
            dd = build_digraph(n, sorted(arcs))
            if all(dd.underlying_degree(v) >= k + ell for v in range(n)):
                break
            arcs.add(a)
        d = build_digraph(n, sorted(arcs))
        if not all(d.underlying_degree(v) >= k + ell for v in range(n)):
            continue
        found = find_two_block_cycle(d, k, ell)
        assert isinstance(found, TwoBlockCertificate)
        assert verify_certificate(d, found, k, ell)
        done += 1


def test_orders_on_exhaustively_free_instances():
    # whenever detection proves absence, the order must exist and check out
    rng = random.Random(77)
    done = 0
    while done < 40:
        n = rng.randint(4, 8)
        d = random_digraph(rng, n, 0.3)
        ham = hamiltonian_cycle(d)
        if ham is None:
            continue
        k, ell = rng.choice([(2, 1), (2, 2), (3, 2), (4, 1)])
        if oracle_two_block(d, k, ell):
            continue
        result = ham_degeneracy_order(d, ham, k, ell)
        assert not isinstance(result, TwoBlockCertificate)
        g = underlying_graph(d)
        assert elimination_back_degree(g, result.order) <= k + ell - 1
        done += 1
