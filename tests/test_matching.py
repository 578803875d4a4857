from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equitiler.errors import PreconditionError
from equitiler.graphs import Graph, VertexSet
from equitiler.matching import (
    Matching,
    NearIndependentSet,
    PerfectMatching,
    TwoOddComponents,
    covering_matching,
    maximum_matching,
    pm_or_structure,
    sn_sets,
)

from _brute import brute_covering_matching_exists, brute_max_matching_size, seed_maximum_matching
from conftest import random_graph


class TestMaximumMatching:
    def test_matches_reference_random(self, rng):
        for _ in range(120):
            n = rng.randrange(0, 13)
            g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.8]))
            m = maximum_matching(g)
            assert m.verify(g)
            assert m.size == brute_max_matching_size(n, list(g.edges()))

    def test_petersen_perfect(self, petersen):
        m = maximum_matching(petersen)
        assert m.size == 5
        assert m.verify(petersen)

    def test_odd_cycle(self):
        g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert maximum_matching(g).size == 2

    def test_blossom_needed(self):
        # Two triangles bridged: greedy-from-bridge traps a naive matcher.
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        assert maximum_matching(g).size == 3

    def test_deterministic(self, rng):
        g = random_graph(rng, 11, 0.5)
        assert maximum_matching(g) == maximum_matching(g.copy())

    def test_pairs_normalized(self):
        m = Matching.from_array([1, 0, 3, 2])
        assert m.pairs == ((0, 1), (2, 3))
        assert m.covered == VertexSet([0, 1, 2, 3])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=90),
    st.sampled_from([0.02, 0.1, 0.3, 0.7]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_maximum_matching_pairs_match_quadratic_seed(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    assert maximum_matching(g).pairs == seed_maximum_matching(g).pairs


class TestCoveringMatching:
    def test_matches_reference_random(self, rng):
        for _ in range(80):
            n = rng.randrange(4, 11)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
            d = rng.randrange(1, n // 2 + 1)
            x = VertexSet(rng.sample(range(n), d))
            got = covering_matching(g, x, d)
            want = brute_covering_matching_exists(n, list(g.edges()), x.members(), d)
            assert (got is not None) == want
            if got is not None:
                assert got.verify(g)
                assert got.size == d
                assert x.issubset(got.covered)

    def test_size_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            covering_matching(Graph.complete(6), VertexSet([0, 1]), 3)

    def test_dense_cover(self, rng):
        # Minimum degree 5 on 20 vertices comfortably covers any 5 chosen.
        while True:
            g = random_graph(rng, 20, 0.4)
            if min(g.degrees()) >= 5:
                break
        x = VertexSet([0, 1, 2, 3, 4])
        m = covering_matching(g, x, 5)
        assert m is not None and m.size == 5 and x.issubset(m.covered)

    def test_impossible_when_too_large(self):
        assert covering_matching(Graph.complete(4), VertexSet([0, 1, 2]), 3) is None


class TestSnSets:
    def test_partners_of_neighbors(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        m = maximum_matching(g)
        assert m.size == 2
        exposed = [v for v in range(5) if v not in m.covered]
        assert len(exposed) == 1
        v = exposed[0]
        arr = m.to_array(5)
        expect = VertexSet([arr[u] for u in range(5) if g.has_edge(v, u)])
        assert sn_sets(g, m, v) == expect

    def test_requires_exposed(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(PreconditionError, match="covered"):
            sn_sets(g, maximum_matching(g), 0)

    def test_no_edges_between_sn_sets_of_two_exposed(self, rng):
        # With a maximum matching, an edge between the partner sets of two
        # exposed vertices would extend into an augmenting path.
        checked = 0
        for _ in range(300):
            n = rng.randrange(4, 12)
            g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5]))
            m = maximum_matching(g)
            exposed = [v for v in range(n) if v not in m.covered]
            if len(exposed) < 2:
                continue
            x, y = exposed[0], exposed[1]
            sx, sy = sn_sets(g, m, x), sn_sets(g, m, y)
            for u in sx:
                for w in sy:
                    if u != w:
                        assert not g.has_edge(u, w)
            checked += 1
        assert checked >= 20


class TestPmOrStructure:
    def test_perfect_matching_branch(self, rng):
        for _ in range(20):
            g = random_graph(rng, 12, 0.85)
            if not sigma_at_least(g, Fraction(9, 10)):
                continue
            out = pm_or_structure(g, Fraction(1, 10))
            assert isinstance(out, PerfectMatching)
            assert out.matching.verify(g) and out.matching.size == 6

    def test_two_odd_components(self):
        g = two_cliques(7, 5)
        out = pm_or_structure(g, Fraction(1, 6))
        assert isinstance(out, TwoOddComponents)
        assert [len(s) for s in out.sides] == [7, 5]
        # Only the side at or below (1 - gamma) n / 2 = 5 is flagged (and
        # checked) as a clique.
        assert out.clique_sides == (False, True)

    def test_near_independent_branch(self):
        # Unbalanced complete bipartite graph: no perfect matching, one
        # component; the big side comes back as the sparse half.
        n = 12
        g = biclique(5, 7)
        out = pm_or_structure(g, Fraction(1, 6))
        assert isinstance(out, NearIndependentSet)
        assert len(out.vertices) == n // 2
        x, y = out.exposed_pair
        assert x in out.vertices and y in out.vertices

    def test_odd_n_rejected(self):
        with pytest.raises(PreconditionError, match="odd"):
            pm_or_structure(Graph.complete(5), Fraction(1, 10))

    def test_low_sigma_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(PreconditionError, match="sigma"):
            pm_or_structure(g, Fraction(1, 10))


def sigma_at_least(g: Graph, frac: Fraction) -> bool:
    from equitiler.graphs import sigma

    st = sigma(g)
    return st.is_complete or st.sigma >= frac * g.n


def two_cliques(a: int, b: int) -> Graph:
    g = Graph.empty(a + b)
    for u in range(a):
        for v in range(u + 1, a):
            g.add_edge(u, v)
    for u in range(a, a + b):
        for v in range(u + 1, a + b):
            g.add_edge(u, v)
    return g


def biclique(a: int, b: int) -> Graph:
    g = Graph.empty(a + b)
    for u in range(a):
        for v in range(a, a + b):
            g.add_edge(u, v)
    return g
