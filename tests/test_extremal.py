from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equitiler import extremal as extremal_module
from equitiler.certificates import (
    biclique_holds,
    clique_holds,
    independent_set_holds,
    odd_split_holds,
)
from equitiler.extremal import (
    BicliqueObstruction,
    CliqueObstruction,
    Ex1Witness,
    Ex2Witness,
    _complement_components,
    _independent_heuristic,
    _recognize_ex2,
    build_ex1_like,
    build_ex2,
    build_obstruction,
    ex2_witness,
    find_biclique,
    independent_set_of_size,
    recognize_extremal,
)
from equitiler.graphs import (
    Graph,
    VertexSet,
    complement,
    connected_components,
    iter_bits,
    lowest_vertices,
    max_independent_set,
)
from equitiler.smallgraphs import iter_labeled_graphs_inplace

from _brute import (
    has_biclique,
    independent_in,
    relabel,
    seed_independent_heuristic,
    seed_independent_set_of_size,
    seed_masked_independent_heuristic,
    seed_recognize_ex2,
)
from conftest import cycle, random_graph


class TestBuilders:
    def test_ex2_layout(self):
        g = build_ex2(12, 3, 1)
        # Small clique side first, then the big side, then the joined parts.
        assert not any(g.has_edge(0, v) for v in range(1, 8))
        assert all(g.has_edge(0, v) for v in range(8, 12))
        assert g.is_clique(0b11111110)  # vertices 1..7
        assert independent_in(g, 0b111100000000)  # vertices 8..11

    def test_ex2_validation(self):
        with pytest.raises(ValueError, match="odd"):
            build_ex2(12, 3, 2)
        with pytest.raises(ValueError, match="divide"):
            build_ex2(13, 3, 1)
        with pytest.raises(ValueError, match="r >= 3"):
            build_ex2(8, 2, 1)
        with pytest.raises(ValueError):
            build_ex2(12, 3, 5)

    def test_ex1_like_structure(self):
        g = build_ex1_like(9, 3)
        assert independent_in(g, (1 << 4) - 1)
        assert g.is_clique(g.full_mask ^ ((1 << 4) - 1))
        assert g.degree(0) == 5 and g.degree(8) == 8

    def test_obstruction_clique(self):
        g = build_obstruction(4)
        assert g.n == 5 and g.is_clique(g.full_mask)

    def test_obstruction_biclique(self):
        g = build_obstruction(4, 3)
        assert g.n == 8
        assert independent_in(g, (1 << 3) - 1)
        assert independent_in(g, g.full_mask ^ ((1 << 3) - 1))
        assert all(g.has_edge(u, v) for u in range(3) for v in range(3, 8))
        with pytest.raises(ValueError, match="odd"):
            build_obstruction(4, 2)


class TestRecognizer:
    @pytest.mark.parametrize(
        "n,r,s", [(9, 3, 1), (9, 3, 3), (12, 3, 1), (12, 3, 3), (12, 4, 1), (16, 4, 3), (20, 5, 1)]
    )
    def test_roundtrip_odd_split(self, n, r, s):
        g = build_ex2(n, r, s)
        w = recognize_extremal(g, r)
        assert isinstance(w, Ex2Witness)
        assert len(w.b0) == s
        assert odd_split_holds(g, w, r)
        assert w == ex2_witness(n, r, s)

    def test_relabeled_odd_split_still_found(self, rng):
        g = build_ex2(12, 3, 3)
        perm = list(range(12))
        rng.shuffle(perm)
        h = relabel(g, perm)
        w = recognize_extremal(h, 3)
        assert isinstance(w, Ex2Witness) and len(w.b0) == 3 and odd_split_holds(h, w, 3)

    def test_near_independent_found(self):
        g = build_ex1_like(12, 3)
        w = recognize_extremal(g, 3)
        assert isinstance(w, Ex1Witness)
        assert independent_set_holds(g, w, 3)

    def test_cycle_nine(self):
        w = recognize_extremal(cycle(9), 3)
        assert isinstance(w, Ex1Witness)
        assert len(w.independent_set) == 4
        assert independent_set_holds(cycle(9), w, 3)

    def test_perturbed_odd_split_not_matched(self):
        g = build_ex2(12, 3, 1)
        g.add_edge(8, 9)  # edge inside a joined part breaks the exact shape
        w = recognize_extremal(g, 3)
        assert not isinstance(w, Ex2Witness)

    def test_dense_random_unrecognized(self, rng):
        g = random_graph(rng, 12, 0.85)
        assert recognize_extremal(g, 3) is None

    def test_equal_sides(self):
        # s = n/r makes both clique sides the same size; either labeling of
        # the pair is a valid witness.
        g = build_ex2(9, 3, 3)
        w = recognize_extremal(g, 3)
        assert isinstance(w, Ex2Witness)
        assert len(w.b0) == len(w.b1) == 3


class TestDegreeGate:
    """`_recognize_ex2` turns away a graph with four or more distinct
    degrees before it draws its complement's components; the ungated seed
    version, which builds the complement, is the reference."""

    def test_every_labeled_six_vertex_graph(self):
        hits = 0
        for _, g in iter_labeled_graphs_inplace(6):
            want = seed_recognize_ex2(g, 3)
            assert _recognize_ex2(g, 3) == want
            hits += want is not None
        # One 2-vertex part (15 ways) and a lone small side (4 ways).
        assert hits == 60

    def test_perturbed_odd_splits(self):
        rng = random.Random(0x0DD5)
        hits = 0
        for _ in range(200):
            r = rng.choice((3, 4, 5))
            m = rng.randint(1, 6)
            g = build_ex2(r * m, r, rng.randrange(1, m + 1, 2))
            for _ in range(rng.randint(0, 2)):
                u, v = rng.sample(range(g.n), 2)
                g.adj[u] ^= 1 << v
                g.adj[v] ^= 1 << u
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            want = seed_recognize_ex2(h, r)
            got = _recognize_ex2(h, r)
            assert got == want and type(got) is type(want)
            hits += want is not None
        assert 0 < hits < 200

    def test_stops_after_r_components(self, monkeypatch):
        # The complement of the Ex1-like graph at n = 960 is a 321-clique
        # and 639 isolated vertices, 640 components; r = 3 of them already
        # rule out the r - 1 an odd split has.
        real = extremal_module._complement_components
        drawn = []

        def counted(g):
            for comp in real(g):
                drawn.append(comp)
                yield comp

        monkeypatch.setattr(extremal_module, "_complement_components", counted)
        assert _recognize_ex2(build_ex1_like(960, 3), 3) is None
        assert len(drawn) == 3

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=40), st.floats(0.0, 1.0), st.integers(0, 2**16))
    def test_complement_walk_matches_built_complement(self, n, p, seed):
        # The walk over G's rows draws the components of the built
        # complement, in the same order.
        g = random_graph(random.Random(seed), n, p)
        want = [c.bits for c in connected_components(complement(g))]
        assert list(_complement_components(g)) == want


class TestWitnessVerification:
    def test_ex2_rejects_wrong_graph(self):
        w = ex2_witness(12, 3, 1)
        assert not odd_split_holds(build_ex2(12, 3, 3), w, 3)
        assert not odd_split_holds(Graph.complete(12), w, 3)

    def test_ex1_rejects_wrong_size(self):
        w = Ex1Witness(VertexSet([0, 1, 2]))
        assert not independent_set_holds(build_ex1_like(12, 3), w, 3)

    def test_clique_obstruction(self):
        g = Graph.complete(5)
        assert clique_holds(g, CliqueObstruction(VertexSet([0, 1, 2, 3, 4])), 4)
        assert not clique_holds(g, CliqueObstruction(VertexSet([0, 1, 2, 3])), 4)

    def test_biclique_obstruction_subgraph_semantics(self):
        # Internal edges on either side are irrelevant; cross edges decide.
        g = build_obstruction(3, 1)
        g.add_edge(1, 2)
        w = BicliqueObstruction(VertexSet([0]), VertexSet([1, 2, 3, 4, 5]))
        assert biclique_holds(g, w, 3)
        assert not biclique_holds(g, w, 4)
        even = BicliqueObstruction(VertexSet([0, 1]), VertexSet([2, 3, 4, 5]))
        assert not biclique_holds(g, even, 3)


class TestFindBiclique:
    def test_matches_reference(self, rng):
        for _ in range(80):
            n = rng.randrange(2, 8)
            g = random_graph(rng, n, rng.choice([0.3, 0.6, 0.9]))
            a = rng.randrange(1, 4)
            b = rng.randrange(a, 5)
            got = find_biclique(g, a, b)
            want = has_biclique(n, list(g.edges()), a, b)
            assert (got is not None) == want
            if got is not None:
                sa, sb = got
                assert len(sa) == a and len(sb) == b and not (sa & sb).bits
                for u in sa:
                    for v in sb:
                        assert g.has_edge(u, v)

    def test_too_large(self):
        assert find_biclique(Graph.complete(4), 2, 3) is None


def _greedy_size(g: Graph) -> int:
    # Size of the heuristic's greedy start, before any plateau swap.
    chosen = 0
    for v in sorted(range(g.n), key=lambda v: (g.degree(v), v)):
        if not g.adj[v] & chosen:
            chosen |= 1 << v
    return chosen.bit_count()


def _flip_edges(g: Graph, rng: random.Random, count: int) -> Graph:
    h = g.copy()
    for _ in range(count):
        u, v = rng.sample(range(g.n), 2)
        h.adj[u] ^= 1 << v
        h.adj[v] ^= 1 << u
    return h


class TestIndependentHeuristic:
    """The heuristic keeps the seed's swap phase and stops its greedy early."""

    @staticmethod
    def check(g: Graph, target: int) -> None:
        # The greedy pass stops at `target` vertices, so its set is a prefix
        # of the seed's maximal greedy set; when it falls short the swaps
        # decide, and then the two agree after trimming.
        got = _independent_heuristic(g, target, g.full_mask)
        want = seed_independent_heuristic(g, target)
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) == target and got.issubset(want)
            assert independent_in(g, got.bits)
            if target > _greedy_size(g):
                assert got.bits == lowest_vertices(want.bits, target)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=70),
        st.sampled_from([0.05, 0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=-1, max_value=3),
    )
    def test_gnp_matches_seed(self, n, p, seed, extra):
        # Targets around the greedy size are where the swaps decide.
        g = random_graph(random.Random(seed), n, p)
        self.check(g, max(1, _greedy_size(g) + extra))

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["ex1", "ex2"]),
        st.sampled_from([60, 90, 120, 150]),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=-1, max_value=2),
    )
    def test_extremal_families_match_seed(self, family, n, flips, seed, extra):
        base = build_ex1_like(n, 3) if family == "ex1" else build_ex2(n, 3, 1)
        g = _flip_edges(base, random.Random(seed), flips)
        for target in (n // 3 + 1, _greedy_size(g) + extra):
            self.check(g, target)

    def test_swaps_fire_on_perturbed_ex2(self):
        # One past the greedy size is reached only through an accepted swap.
        grown = 0
        for seed in range(10):
            g = _flip_edges(build_ex2(90, 3, 1), random.Random(seed), 20)
            target = _greedy_size(g) + 1
            self.check(g, target)
            if _independent_heuristic(g, target, g.full_mask) is not None:
                grown += 1
        assert grown > 0


class TestDegreeRefutation:
    """The heuristic refutes hopeless probes by degrees and is otherwise the
    version without that test."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=90),
        st.sampled_from([0.05, 0.2, 0.5, 0.8, 0.95]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=-2, max_value=2),
    )
    def test_matches_seed(self, n, p, seed, fill, extra):
        rng = random.Random(seed)
        g = random_graph(rng, n, p)
        inside = rng.getrandbits(n) & g.full_mask if fill < 0.5 else g.full_mask
        # Around the greedy size, where the refutation can bite or not.
        base = _greedy_size(g) if inside == g.full_mask else inside.bit_count() // 3
        size = max(1, base + extra)
        got = _independent_heuristic(g, size, inside)
        assert got == seed_masked_independent_heuristic(g, size, inside)
        # A caller's list of degrees inside the mask stands in for the count.
        degs = [(g.adj[v] & inside).bit_count() for v in iter_bits(inside)]
        assert _independent_heuristic(g, size, inside, degs) == got

    def test_refutes_by_degrees(self):
        # K_4 plus an isolated vertex.  A pair may use vertices of degree at
        # most 5 - 2 = 3, which all five are; a triple only vertices of
        # degree at most 2, which the isolated vertex alone is.
        g = Graph(5, Graph.complete(4).adj + [0])
        assert _independent_heuristic(g, 2, g.full_mask) == VertexSet((0, 4))
        assert _independent_heuristic(g, 3, g.full_mask) is None
        assert seed_masked_independent_heuristic(g, 3, g.full_mask) is None


class TestIndependentSetOfSize:
    """The one search against the version without a mask or an early stop."""

    @staticmethod
    def check(g: Graph, target: int) -> None:
        got = independent_set_of_size(g, target)
        want = seed_independent_set_of_size(g, target)
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) == target and independent_in(g, got.bits)
        if target > _greedy_size(g):
            assert got == want

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=65, max_value=150),
        st.sampled_from([0.05, 0.2, 0.5, 0.8]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=-1, max_value=3),
    )
    def test_gnp(self, n, p, seed, extra):
        g = random_graph(random.Random(seed), n, p)
        for target in (n // 3 + 1, _greedy_size(g) + extra):
            self.check(g, target)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["ex1", "ex2"]),
        st.sampled_from([66, 90, 120, 150]),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=-1, max_value=2),
    )
    def test_perturbed_extremal(self, family, n, flips, seed, extra):
        base = build_ex1_like(n, 3) if family == "ex1" else build_ex2(n, 3, 1)
        g = _flip_edges(base, random.Random(seed), flips)
        for target in (n // 3 + 1, _greedy_size(g) + extra):
            self.check(g, target)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=120),
        st.sampled_from([0.1, 0.5]),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=20),
    )
    def test_inside_a_mask(self, n, p, seed, size):
        # Exact up to 64 vertices of the mask, whatever n is.
        rng = random.Random(seed)
        g = random_graph(rng, n, p)
        inside = rng.getrandbits(n) & g.full_mask
        got = independent_set_of_size(g, size, inside)
        if got is not None:
            assert len(got) == size and got.bits & ~inside == 0
            assert independent_in(g, got.bits)
        if inside.bit_count() <= 64:
            best = max_independent_set(g, inside)
            assert (got is None) == (len(best) < size)
            if got is not None:
                assert got.bits == lowest_vertices(best.bits, size)
