"""The partner cut of exhaustive pair search.

Exhaustive ``_pair_search`` stops extending a partial first path once no
u->v path of at least ``ll`` arcs that leaves u above the first path's first
step can avoid it (``detection._no_partner``).  The cut must only skip first
paths that have no partner: these tests check every firing against the
brute-force path oracle, and that the cut removes the futile second-path
searches of a known expensive negative.
"""

from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoblock import detection
from twoblock.detection import AbsenceReport, _pair_search, find_two_block_cycle
from twoblock.digraph import reach_mask
from twoblock.harness import random_strong_ckl_free

from conftest import digraphs
from oracles import all_simple_paths


def _is_partial_path(d, u, step, on_path):
    # Some simple path u, step, ... visits exactly the vertices of on_path.
    rest = [x for x in range(d.n) if (on_path >> x) & 1 and x not in (u, step)]
    for tail in permutations(rest):
        walk = (u, step, *tail)
        if all(d.has_arc(a, b) for a, b in zip(walk, walk[1:])):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(digraphs(min_n=2, max_n=8), st.data())
def test_cut_fires_only_on_partial_paths_without_partner(d, data):
    u, v = data.draw(
        st.lists(st.integers(0, d.n - 1), min_size=2, max_size=2, unique=True)
    )
    ll = data.draw(st.integers(1, max(1, d.n - 1)))
    kk = data.draw(st.integers(ll, max(ll, d.n - 1)))
    full = (1 << d.n) - 1
    region = reach_mask(d.out_mask, u, full) & reach_mask(d.in_mask, v, full)
    fired = []
    no_partner = detection._no_partner

    def recording(out_mask, in_mask, u_, v_, free, above, ll_):
        cut = no_partner(out_mask, in_mask, u_, v_, free, above, ll_)
        if cut:
            fired.append((u_, v_, free, above, ll_))
        return cut

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detection, "_no_partner", recording)
        _pair_search(d, u, v, region, kk, ll)
    # Each oracle path as (first step, vertices after u as a bitmask, arcs).
    paths = [
        (p[1], sum(1 << x for x in p[1:]), len(p) - 1)
        for p in all_simple_paths(d, u, v)
    ]
    for u_, v_, free, above, ll_ in fired:
        assert (u_, v_, ll_) == (u, v, ll)
        on_path = region & ~free
        step = (~above).bit_length() - 1
        assert above == -(2 << step)
        assert (on_path >> u) & 1 and (on_path >> step) & 1
        assert not (on_path >> v) & 1
        assert _is_partial_path(d, u, step, on_path)
        for first, after_u, arcs in paths:
            assert not (first > step and not after_u & on_path and arcs >= ll)


# Criterion-5 corpus instance i = 36: a c(4, 4)-free digraph on 14 vertices
# whose exhaustive proof searched 69 pairs and made 14,367 second-path
# searches without the cut, none of them successful.
def test_cut_spares_futile_second_path_searches(monkeypatch):
    d = random_strong_ckl_free(14, 4, 4, seed=3036, cap=14)
    calls = []
    second_path = detection._second_path

    def counting(*args, **kwargs):
        calls.append(1)
        return second_path(*args, **kwargs)

    monkeypatch.setattr(detection, "_second_path", counting)
    result = find_two_block_cycle(d, 4, 4, cap=14)
    assert result == AbsenceReport(4, 4, "exhaustive", 69)
    assert len(calls) <= 1000
