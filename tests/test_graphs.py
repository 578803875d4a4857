from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equitiler.decide import pad_to_divisible
from equitiler.extremal import build_ex1_like, build_ex2
from equitiler.generators import random_gnp
from equitiler.graphs import (
    Graph,
    VertexSet,
    _bit_select,
    as_fraction,
    complement,
    connected_components,
    find_clique_of_size,
    induced_edge_count,
    iter_bits,
    iter_cliques,
    low_degree_set,
    lowest_vertices,
    max_independent_set,
    ore_edge_bound,
    sigma,
)

from _brute import (
    adj_sets,
    brute_independence_number,
    brute_induced,
    brute_sigma,
    brute_sigma_witness,
    brute_worst_edge,
    gamma_independent,
    graph_edges,
    independent_in,
    seed_connected_components,
    seed_find_clique_of_size,
    seed_iter_bits,
    seed_iter_cliques,
    seed_low_degree_set,
    seed_ore_edge_bound,
    seed_sigma,
)
from conftest import cycle, random_graph


def edge_list_strategy(max_n=9):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        return n, chosen

    return build()


class TestVertexSet:
    def test_roundtrip(self):
        s = VertexSet([3, 1, 4])
        assert list(s) == [1, 3, 4]
        assert len(s) == 3
        assert 4 in s and 2 not in s
        assert s == VertexSet(0b11010)

    def test_ops(self):
        a, b = VertexSet([0, 1, 2]), VertexSet([2, 3])
        assert (a & b).members() == (2,)
        assert (a | b).members() == (0, 1, 2, 3)
        assert (a - b).members() == (0, 1)
        assert VertexSet([2]).issubset(b)

    def test_immutable(self):
        s = VertexSet([1])
        with pytest.raises(AttributeError):
            s.bits = 7
        with pytest.raises(AttributeError):
            s._size = 3
        assert s.bits == 2 and len(s) == 1

    def test_rejects_negative_mask(self):
        with pytest.raises(ValueError, match="negative"):
            VertexSet(-1)


class TestGraphBasics:
    def test_from_edges_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_from_edges_rejects_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(0, 3)])

    def test_from_edges_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_edge_iteration_sorted(self):
        g = Graph.from_edges(4, [(2, 3), (0, 3), (0, 1)])
        assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]

    def test_induced_relabels(self):
        g = Graph.from_edges(5, [(0, 2), (2, 4), (1, 3)])
        sub, names = g.induced(0b10101)
        assert names == [0, 2, 4]
        assert graph_edges(sub) == {(0, 1), (1, 2)}

    def test_content_hash_is_label_sensitive(self):
        g1 = Graph.from_edges(3, [(0, 1)])
        g2 = Graph.from_edges(3, [(1, 2)])
        assert g1.content_hash() != g2.content_hash()
        assert g1.content_hash() == Graph.from_edges(3, [(0, 1)]).content_hash()


@st.composite
def graph_and_mask(draw):
    # Sizes up to 130 cross several 64-bit words and are mostly not
    # multiples of 8; the mask is empty, one vertex, full or arbitrary.
    n = draw(st.integers(min_value=0, max_value=130))
    p = draw(st.sampled_from([0.1, 0.5, 0.9]))
    g = random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n, p)
    full = (1 << n) - 1
    kinds = [st.just(0), st.just(full), st.integers(min_value=0, max_value=full)]
    if n:
        kinds.append(st.integers(min_value=0, max_value=n - 1).map(lambda v: 1 << v))
    return g, draw(st.one_of(kinds))


@settings(max_examples=150, deadline=None)
@given(graph_and_mask())
@example((Graph.empty(0), 0))
@example((Graph.complete(13), 0))
@example((Graph.complete(13), 1 << 12))
@example((Graph.complete(13), (1 << 13) - 1))
@example((Graph.from_edges(70, [(0, 69), (5, 64), (63, 64)]), (1 << 70) - 1 - (1 << 5)))
def test_induced_matches_edge_relabel(gm):
    g, mask = gm
    sub, labels = g.induced(mask)
    n, edges, ref_labels = brute_induced(g.n, g.edges(), mask)
    assert labels == ref_labels
    assert sub.n == n and graph_edges(sub) == edges
    assert sub == Graph.from_edges(n, edges)


@settings(max_examples=150, deadline=None)
@given(graph_and_mask(), st.integers(min_value=0, max_value=6))
@example((Graph.complete(7), (1 << 7) - 1), 3)
@example((Graph.empty(5), 0b10110), 0)
def test_iter_cliques_replays_the_three_enumerations(gm, size):
    # The first 200 cliques only: dense graphs on 130 vertices hold billions.
    g, mask = gm
    got = list(islice(iter_cliques(g, size, mask), 200))
    assert got == list(seed_iter_cliques(g, mask, size, 200))
    first = seed_find_clique_of_size(g, size, mask)
    assert find_clique_of_size(g, size, mask) == first
    assert (got[0] if got else None) == (None if first is None else first.bits)


@settings(max_examples=150, deadline=None)
@given(graph_and_mask())
def test_masked_components_match_the_induced_copy(gm):
    g, mask = gm
    sub, labels = g.induced(mask)
    want = [VertexSet(labels[v] for v in c) for c in seed_connected_components(sub)]
    assert list(connected_components(g, mask)) == want
    # Drawn one at a time, the lazy components come in the listed order.
    lazy = connected_components(g, mask)
    assert [next(lazy) for _ in want] == want and next(lazy, None) is None


@settings(max_examples=120, deadline=None)
@given(edge_list_strategy())
def test_complement_involution(ne):
    n, edges = ne
    g = Graph.from_edges(n, edges)
    assert complement(complement(g)) == g
    assert g.edge_count() + complement(g).edge_count() == n * (n - 1) // 2


@settings(max_examples=200, deadline=None)
@given(edge_list_strategy(max_n=16))
def test_sigma_matches_reference(ne):
    n, edges = ne
    g = Graph.from_edges(n, edges)
    st_ = sigma(g)
    ref = brute_sigma(n, edges)
    if ref is None:
        assert st_.witness is None
        assert st_.sigma == math.inf
    else:
        assert st_.sigma == ref
        x, y = st_.witness
        assert not g.has_edge(x, y)
        assert g.degree(x) + g.degree(y) == ref
        assert st_.witness == brute_sigma_witness(n, edges)


@settings(max_examples=200, deadline=None)
@given(edge_list_strategy(max_n=16), st.integers(min_value=0, max_value=16))
@example((4, [(2, 3), (0, 1)]), 1)
def test_ore_edge_bound_matches_edge_walk(ne, k):
    # The worst edge is the lexicographically smallest of greatest degree sum.
    n, edges = ne
    g = Graph.from_edges(n, edges)
    want = brute_worst_edge(n, edges)
    held, worst = ore_edge_bound(g, k)
    assert worst == want
    worst_sum = -1 if want is None else g.degree(want[0]) + g.degree(want[1])
    assert held == (worst_sum <= 2 * k)


def _circulant(n: int, offsets) -> Graph:
    pairs = {tuple(sorted((v, (v + d) % n))) for v in range(n) for d in offsets}
    return Graph.from_edges(n, pairs)


@pytest.mark.parametrize("n", [60, 120, 240, 480, 960])
def test_degree_gates_match_level_walks(n):
    # Ties decide the witness: every vertex ties in a regular graph, and
    # whole levels tie in the extremal shapes and in a padded complement,
    # whose padding clique is joined to every original vertex.  The
    # edgeless graph, ex2 with s = m/2 - 1 (its B0 vertices' only
    # non-neighbours are in B1, which ranks last), its complement and an
    # unbalanced biclique put a vertex's first partner far up the ranking.
    m = n // 3
    b0b1 = build_ex2(n, 3, 1)
    b0b1.add_edge(0, 1)
    inside_a = build_ex2(n, 3, 1)
    inside_a.add_edge(2 * m, 2 * m + 1)
    wide_b0 = build_ex2(n, 3, m // 2 - 1)
    a = n // 10
    biclique = Graph.from_edges(n, [(u, v) for u in range(a) for v in range(a, n)])
    graphs = [
        _circulant(n, (1, 2, n // 5)),
        complement(_circulant(n, (1,))),
        build_ex1_like(n, 3),
        b0b1,
        inside_a,
        complement(pad_to_divisible(random_gnp(n - 4, 0.3, n), 7)[0]),
        complement(pad_to_divisible(random_gnp(n - 1, 0.9, n), m)[0]),
        Graph(n, [0] * n),
        wide_b0,
        complement(wide_b0),
        biclique,
        complement(biclique),
    ]
    for g in graphs:
        assert sigma(g) == seed_sigma(g)
        _, worst = seed_ore_edge_bound(g, 0)
        top = 0 if worst is None else g.degree(worst[0]) + g.degree(worst[1])
        for k in (top // 2 - 1, top // 2, m):
            assert ore_edge_bound(g, k) == seed_ore_edge_bound(g, k)


def test_sigma_of_halved_join_matches_bound():
    # Independent part of size n/r + 1 joined to a clique: the floor sits on
    # pairs inside the independent part and equals 2(1 - 1/r)n - 2.
    g = build_ex1_like(6, 3)
    st_ = sigma(g)
    assert st_.sigma == 6
    assert st_.witness == (0, 1)
    r, n = 3, 6
    assert st_.sigma == Fraction(2) * (1 - Fraction(1, r)) * n - 2


def test_sigma_witness_is_lex_smallest():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert sigma(g).witness == (0, 2)


def test_ore_edge_bound_reports_worst_edge():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    ok, worst = ore_edge_bound(g, 2)
    assert ok and worst == (1, 2)
    ok2, worst2 = ore_edge_bound(g, 1)
    assert not ok2 and worst2 == (1, 2)
    assert ore_edge_bound(Graph.empty(3), 1) == (True, None)


class TestGammaIndependent:
    def test_exact_threshold(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        everyone = VertexSet([0, 1, 2, 3])
        assert gamma_independent(g, everyone, Fraction(2, 16))
        assert not gamma_independent(g, everyone, Fraction(1, 16))

    def test_string_and_float_thresholds_agree(self):
        g = Graph.from_edges(5, [(0, 1)])
        s = VertexSet([0, 1, 2])
        assert gamma_independent(g, s, "1/25") == gamma_independent(g, s, Fraction(1, 25))
        assert as_fraction(0.04) == Fraction(1, 25)

    def test_zero_budget_means_independent(self):
        g = Graph.from_edges(4, [(0, 1)])
        assert gamma_independent(g, VertexSet([1, 2, 3]), 0)
        assert not gamma_independent(g, VertexSet([0, 1]), 0)


@st.composite
def filled_masks(draw):
    """A mask of exactly `width` bits, filled at a density from either side
    of iter_bits' switch to the C walk (one bit in eight)."""
    width = draw(st.integers(min_value=0, max_value=1100))
    fill = draw(st.sampled_from((0.0, 0.02, 0.1, 0.12, 0.13, 0.2, 0.5, 0.9, 1.0)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    mask = sum(1 << i for i in range(width) if rng.random() < fill)
    return mask | (1 << width >> 1)


@settings(max_examples=200, deadline=None)
@given(filled_masks(), st.integers(min_value=0, max_value=1200))
@example((1 << 64) - 1, 5)
@example((1 << 65) - 1, 5)
@example((1 << 65) - 1 - (1 << 7), 64)
@example(1 << 64 | 1, 1)
@example(1 << 1099 | (1 << 137) - 1, 140)
def test_iter_bits_replays_the_peel(mask, cut):
    want = list(seed_iter_bits(mask))
    assert list(iter_bits(mask)) == want
    assert list(islice(iter_bits(mask), cut)) == want[:cut]
    assert list(islice(iter_bits(mask), cut, None, 3)) == want[cut::3]
    it = iter_bits(mask)
    assert iter(it) is it
    head = [next(it) for _ in range(min(cut, len(want)))]
    assert head == want[:cut]
    assert list(it) == want[cut:]
    assert next(it, None) is None
    stop = next((v for v in iter_bits(mask) if v >= cut), None)
    assert stop == next((v for v in want if v >= cut), None)


@settings(max_examples=150, deadline=None)
@given(filled_masks())
@example(0)
@example(1 << 1099)
@example((1 << 256) - 1)
def test_bit_select_finds_each_rank(mask):
    select = _bit_select(mask)
    assert [select(j) for j in range(mask.bit_count())] == list(seed_iter_bits(mask))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(min_value=0, max_value=90),
    st.sampled_from((0.1, 0.5, 0.9)),
    st.integers(min_value=-2, max_value=95),
)
def test_low_degree_set_replays_the_fraction_compare(seed, n, p, t):
    g = random_graph(random.Random(seed), n, p)
    for threshold in (t, Fraction(2 * t + 1, 2), Fraction(2 * t, 2), Fraction(8, 2), t - 0.5, str(t)):
        assert low_degree_set(g, threshold) == seed_low_degree_set(g, threshold)


def test_low_degree_set_splits_odd_split_shape():
    # In the odd-split graph on 12 vertices with r=3, s=1 the small clique
    # side is the unique low-degree class: degree 4 vs 8 and 10.
    g = build_ex2(12, 3, 1)
    assert sorted(g.degrees()) == [4] + [8] * 4 + [10] * 7
    assert low_degree_set(g, 7).members() == (0,)
    assert low_degree_set(g, Fraction(9, 2)).members() == (0,)
    assert low_degree_set(g, 4).members() == ()


class TestCliqueSearch:
    def test_petersen_is_triangle_free(self, petersen):
        assert find_clique_of_size(petersen, 3) is None
        assert find_clique_of_size(petersen, 2) == VertexSet([0, 1])

    def test_lex_first(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        assert find_clique_of_size(g, 3) == VertexSet([0, 1, 2])

    def test_inside_mask(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        assert find_clique_of_size(g, 3, VertexSet([3, 4, 5])) == VertexSet([3, 4, 5])
        assert find_clique_of_size(g, 3, VertexSet([1, 2, 3, 4])) is None

    def test_trivial_sizes(self):
        g = Graph.empty(3)
        assert find_clique_of_size(g, 0) == VertexSet(0)
        assert find_clique_of_size(g, 1) == VertexSet([0])
        assert find_clique_of_size(g, 2) is None


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(0, 200),
    p=st.sampled_from([0.5, 0.9, 0.99, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    few=st.booleans(),
)
def test_is_clique_matches_pairwise(n, p, seed, few):
    # A few vertices at high density are often a clique; a random mask
    # over up to 200 vertices spans several words.
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    for _ in range(20):
        if few:
            members = rng.sample(range(n), min(n, rng.randint(0, 6)))
        else:
            members = [v for v in range(n) if rng.random() < 0.5]
        mask = sum(1 << v for v in members)
        want = all(g.has_edge(u, v) for i, u in enumerate(members) for v in members[i + 1:])
        assert g.is_clique(mask) == want


def test_common_neighbors_of_one_vertex_is_the_walk(rng):
    for n in (1, 2, 9, 64, 65, 130):
        g = random_graph(rng, n, 0.5)
        for v in range(n):
            walk = g.full_mask & g.adj[v] & ~(1 << v)
            assert g.common_neighbors(1 << v) == walk
            assert walk == sum(1 << u for u in range(n) if g.has_edge(u, v))
        if n > 1:
            # Two vertices still take the walk.
            assert g.common_neighbors(0b11) == g.adj[0] & g.adj[1] & ~0b11


def test_max_independent_set_matches_reference(rng):
    for _ in range(60):
        n = rng.randrange(1, 11)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        mis = max_independent_set(g)
        assert independent_in(g, mis.bits)
        assert len(mis) == brute_independence_number(n, list(g.edges()))


def test_connected_components():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (4, 5)])
    comps = list(connected_components(g))
    assert [c.members() for c in comps] == [(0, 1, 2), (3,), (4, 5), (6,)]


def test_lowest_vertices():
    assert lowest_vertices(0b1011010, 2) == 0b1010
    assert lowest_vertices(0b1011010, 9) == 0b1011010
    assert lowest_vertices(0b1011010, 0) == 0


def test_cycle_nine_has_independence_number_four():
    g = cycle(9)
    assert len(max_independent_set(g)) == 4


def test_induced_edge_count_matches_reference(rng):
    for _ in range(40):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n, 0.5)
        mask = rng.randrange(0, 1 << n)
        verts = [v for v in range(n) if (mask >> v) & 1]
        adj = adj_sets(n, list(g.edges()))
        expect = sum(1 for i, u in enumerate(verts) for w in verts[i + 1:] if w in adj[u])
        assert induced_edge_count(g, mask) == expect
