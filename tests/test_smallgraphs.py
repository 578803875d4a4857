"""Labeled and canonical enumeration of small graphs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equitiler.graphs import Graph, connected_components
from equitiler.smallgraphs import (
    CONNECTED_GRAPH_COUNTS,
    MAX_CANONICAL_N,
    _canonical_batch,
    connected_graphs,
    graph_from_pair_mask,
    iter_labeled_graphs_inplace,
    labeled_graph_count,
    pair_slots,
)

from _brute import canonical_form, seed_canonical_batch


class TestLabeled:
    def test_pair_slot_order(self):
        assert pair_slots(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_counts(self):
        assert labeled_graph_count(1) == 1
        assert labeled_graph_count(4) == 64
        assert labeled_graph_count(7) == 1 << 21

    def test_mask_roundtrip(self):
        # Slot 0 = (0,1), slot 3 = (1,2): mask 0b1001 is the path 0-1-2 plus vertex 3.
        g = graph_from_pair_mask(4, 0b1001)
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_full_mask_is_complete(self):
        n = 5
        g = graph_from_pair_mask(n, labeled_graph_count(n) - 1)
        assert g.is_clique(g.full_mask)

    def test_iteration_is_exhaustive_and_distinct(self):
        seen = {tuple(g.adj) for _, g in iter_labeled_graphs_inplace(3)}
        assert len(seen) == 8

    def test_inplace_matches_rebuild(self):
        for mask, g in iter_labeled_graphs_inplace(4):
            assert g.adj == graph_from_pair_mask(4, mask).adj

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 5), data=st.data())
    def test_ranges_concatenate_to_the_full_walk(self, n, data):
        total = labeled_graph_count(n)
        cuts = sorted(data.draw(st.lists(st.integers(0, total), max_size=6)))
        bounds = [0] + cuts + [total]

        def walk(*rng):
            return [(mask, tuple(g.adj)) for mask, g in iter_labeled_graphs_inplace(n, *rng)]

        pieces = []
        for lo, hi in zip(bounds, bounds[1:]):
            pieces.extend(walk(lo, hi))
        assert pieces == walk()
        assert len({mask for mask, _ in pieces}) == total

    def test_empty_and_single_ranges(self):
        assert list(iter_labeled_graphs_inplace(4, 5, 5)) == []
        assert list(iter_labeled_graphs_inplace(4, 6, 2)) == []
        ((mask, g),) = iter_labeled_graphs_inplace(4, 7, 8)
        assert mask == 7 ^ 3 and g.adj == graph_from_pair_mask(4, mask).adj


class TestCanonical:
    def test_isomorphic_relabelings_collide(self):
        rng = random.Random(5)
        slots = pair_slots(5)
        slot_index = {pair: i for i, pair in enumerate(slots)}
        for _ in range(30):
            mask = rng.getrandbits(len(slots))
            perm = list(range(5))
            rng.shuffle(perm)
            permuted = 0
            for i, (u, v) in enumerate(slots):
                if mask >> i & 1:
                    a, b = sorted((perm[u], perm[v]))
                    permuted |= 1 << slot_index[(a, b)]
            assert canonical_form(5, mask) == canonical_form(5, permuted)

    def test_canonical_is_minimal_fixpoint(self):
        for mask in range(labeled_graph_count(4)):
            c = canonical_form(4, mask)
            assert c <= mask
            assert canonical_form(4, c) == c

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            canonical_form(MAX_CANONICAL_N + 1, 0)


def _candidates(n: int):
    """The masks `connected_graphs(n)` canonicalises: each connected graph
    on n - 1 vertices with vertex n - 1 joined to a nonempty neighbourhood."""
    index = {pair: s for s, pair in enumerate(pair_slots(n))}
    old = pair_slots(n - 1)
    out = []
    for parent in connected_graphs(n - 1):
        base = sum(1 << index[pair] for s, pair in enumerate(old) if parent >> s & 1)
        for nbhd in range(1, 1 << (n - 1)):
            out.append(base | sum(1 << index[(v, n - 1)] for v in range(n - 1) if nbhd >> v & 1))
    return out


class TestCanonicalBatch:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_every_candidate_keeps_the_seed_form(self, n):
        masks = _candidates(n)
        got = _canonical_batch(n, masks)
        assert got == seed_canonical_batch(n, masks)
        assert tuple(sorted(set(got))) == connected_graphs(n)

    def test_every_labeled_graph_keeps_the_seed_form(self):
        for n in range(1, 6):
            masks = list(range(labeled_graph_count(n)))
            assert _canonical_batch(n, masks) == seed_canonical_batch(n, masks)


class TestConnected:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_census(self, n):
        assert len(connected_graphs(n)) == CONNECTED_GRAPH_COUNTS[n]

    def test_members_are_canonical_and_connected(self):
        for mask in connected_graphs(5):
            assert canonical_form(5, mask) == mask
            g = graph_from_pair_mask(5, mask)
            assert len(list(connected_components(g))) == 1

    def test_no_duplicates(self):
        masks = connected_graphs(6)
        assert len(set(masks)) == len(masks)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            connected_graphs(MAX_CANONICAL_N + 1)

    @given(st.integers(1, 5))
    @settings(max_examples=5, deadline=None)
    def test_agrees_with_labeled_filter(self, n):
        # Canonical forms of all connected labeled graphs, computed the slow way.
        slow = set()
        for mask, g in iter_labeled_graphs_inplace(n):
            if len(list(connected_components(g))) == 1:
                slow.add(canonical_form(n, mask))
        assert slow == set(connected_graphs(n))
