from __future__ import annotations

import hashlib
import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equitiler import matching as matching_module
from equitiler.certificates import certificate_to_json, tutte_barrier_holds
from equitiler.decide import decide_kr_factor
from equitiler.errors import PreconditionError
from equitiler.generators import random_gnp
from equitiler.graphs import Graph, VertexSet, iter_bits
from equitiler.matching import (
    Matching,
    TutteBarrier,
    _augment_once,
    covering_matching,
    maximum_matching,
    pm_or_structure,
)

from _brute import (
    brute_covering_matching_exists,
    brute_max_matching_size,
    seed_augment_once,
    seed_covering_matching,
    seed_greedy_match,
    seed_maximum_matching,
    seed_quadratic_matching,
    seed_unmasked_matching,
)
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
    assert maximum_matching(g).pairs == seed_quadratic_matching(g).pairs


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=90),
    st.sampled_from([0.02, 0.1, 0.3, 0.7]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_masked_matchings_match_the_induced_copy(n, p, seed):
    # The blossom search and the covering reduction on a vertex mask give the
    # pairs the earlier kernels give on the induced copy, relabelled.
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    mask = rng.getrandbits(n) if n else 0
    sub, labels = g.induced(mask)
    want = tuple((labels[u], labels[v]) for u, v in seed_unmasked_matching(sub).pairs)
    assert maximum_matching(g, mask).pairs == want
    verts = list(iter_bits(mask))
    x = sorted(rng.sample(verts, rng.randint(0, len(verts) // 2 + 1) if verts else 0))
    pos = {v: i for i, v in enumerate(verts)}
    ref = seed_covering_matching(sub, VertexSet(pos[v] for v in x), len(x))
    got = covering_matching(g, VertexSet(x), len(x), mask)
    if ref is None:
        assert got is None
    else:
        assert got.pairs == tuple((labels[u], labels[v]) for u, v in ref.pairs)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.sampled_from([0.03, 0.08, 0.15, 0.3, 0.5, 0.8]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_short_paths_are_the_searchs_own(n, p, masked, seed):
    # A three-edge path read off the rows is the one the blossom search from
    # that root would augment along, so the pairs, and the barrier built
    # from them, are those of the search run from every exposed vertex.
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    mask = rng.getrandbits(n) if masked else None
    assert maximum_matching(g, mask).pairs == seed_maximum_matching(g, mask).pairs
    with mock.patch.object(matching_module, "maximum_matching", seed_maximum_matching):
        want = pm_or_structure(g)
    got = pm_or_structure(g)
    assert type(got) is type(want) and got == want


def test_dense_gnp_augments_by_short_paths_alone():
    # The greedy seed of G(960, 1/2) leaves 956 and 959 exposed; 956 reaches
    # 959 over one matched edge, so no blossom search runs, and the r = 2
    # certificate (timings dropped) is the one the search gave.
    g = random_gnp(960, 0.5, 0)
    seed = seed_greedy_match(g, g.full_mask)
    assert [v for v in range(g.n) if seed[v] == -1] == [956, 959]

    def no_search(*args):
        raise AssertionError("blossom search ran")

    with mock.patch.object(matching_module, "_augment_once", no_search):
        cert = decide_kr_factor(g, 2)
    assert (cert.kind, cert.provenance) == ("factorable", "pipeline")
    doc = certificate_to_json(cert)
    del doc["timings"]
    text = json.dumps(doc, sort_keys=True)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "8e8bd7c2cf8e307625c115f1d80cfe3b48abee6077505688824ce7c519bbffd6"
    )


def spread_matching(rng: random.Random, g: Graph) -> list:
    """A matching array that leaves a random independent set exposed and is
    maximal on the rest, so the blossom search from those roots must go
    through the matched vertices."""
    order = list(range(g.n))
    rng.shuffle(order)
    exposed = 0
    for v in order[: rng.randint(0, 4)]:
        if not g.adj[v] & exposed:
            exposed |= 1 << v
    match = [-1] * g.n
    rng.shuffle(order)
    for v in order:
        if match[v] == -1 and not exposed >> v & 1:
            free = [u for u in iter_bits(g.adj[v] & ~exposed) if match[u] == -1]
            if free:
                u = rng.choice(free)
                match[v] = u
                match[u] = v
    return match


def assert_search_matches_seed(g: Graph, match: list) -> int:
    """Run the blossom search and its seed from every exposed root, in
    ascending order, on the same matching.  Both outcomes must agree: the
    grown matching after an augmentation, the outer mask otherwise.  Returns
    the union of the outer masks, the D of Gallai–Edmonds when `match` was
    already maximum."""
    d = 0
    for v in range(g.n):
        if match[v] == -1:
            want_match = list(match)
            want = seed_augment_once(g, want_match, v)
            assert _augment_once(g, match, v, g.full_mask) == want
            assert match == want_match
            d |= want or 0
    return d


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=90),
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 0.9, 0.97, 1.0]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(40, 0.1, 376)
@example(40, 0.1, 6)
def test_blossom_search_matches_its_seed_on_dense_graphs(n, p, seed):
    # Dense rows put a blossom on nearly every search, one that soon holds
    # most of the tree.  Sparse rows nest blossoms below the root, where a
    # contraction that walks the wrong members or enqueues them in the wrong
    # order changes the result: the two examples are such inputs.  The first
    # round of roots augments or fails; the second runs on a maximum
    # matching, so every search there fails with its full outer mask.
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    match = spread_matching(rng, g)
    assert_search_matches_seed(g, match)
    assert_search_matches_seed(g, match)


def near_clique(rng: random.Random, n: int, first: int, size: int, missing: int) -> Graph:
    """G on n vertices: a clique on first..first+size-1 less `missing` random
    edges, every other vertex isolated."""
    pairs = list(itertools.combinations(range(first, first + size), 2))
    drop = set(rng.sample(pairs, missing))
    return Graph.from_edges(n, [e for e in pairs if e not in drop])


class TestOddBlocks:
    """The leftover blocks the odd-split tiling pairs up: one isolated vertex
    plus an odd near-clique, and two disjoint odd cliques.  Each exposed
    root's search fails over a blossom that grows to hold its whole block."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_isolated_vertex_plus_odd_near_clique(self, seed):
        rng = random.Random(seed)
        g = near_clique(rng, 162, 1, 161, 40)
        self.check_barrier(g, maximum_matching(g).to_array(g.n))
        self.check_barrier(g, spread_matching(rng, g))

    def test_two_disjoint_odd_cliques(self):
        g = two_cliques(61, 41)
        self.check_barrier(g, maximum_matching(g).to_array(g.n))
        self.check_barrier(g, spread_matching(random.Random(3), g))

    @staticmethod
    def check_barrier(g: Graph, match: list) -> None:
        # D does not depend on which maximum matching the searches start from.
        assert maximum_matching(g) == seed_quadratic_matching(g)
        assert_search_matches_seed(g, match)
        d = assert_search_matches_seed(g, match)
        reach = 0
        for v in iter_bits(d):
            reach |= g.adj[v]
        assert pm_or_structure(g) == TutteBarrier(VertexSet(reach & ~d))


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

    def test_x_outside_the_mask_rejected(self):
        path = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(PreconditionError):
            covering_matching(path, VertexSet([4]), 1, inside=0b00111)

    def test_impossible_when_too_large(self):
        assert covering_matching(Graph.complete(4), VertexSet([0, 1, 2]), 3) is None


class TestPmOrStructure:
    def test_perfect_matching_branch(self, rng):
        for _ in range(20):
            g = random_graph(rng, 12, 0.85)
            if maximum_matching(g).size != 6:
                continue
            out = pm_or_structure(g)
            assert isinstance(out, Matching)
            assert out.verify(g) and out.size == 6

    def test_two_odd_components(self):
        out = pm_or_structure(two_cliques(7, 5))
        assert out == TutteBarrier(VertexSet())
        assert out.surplus(two_cliques(7, 5)) == 2

    def test_unbalanced_biclique_barrier(self):
        # K_{5,7}: removing the 5-side strands seven odd singletons.
        g = biclique(5, 7)
        out = pm_or_structure(g)
        assert out == TutteBarrier(VertexSet(range(5)))
        assert out.surplus(g) == 2 and tutte_barrier_holds(g, out, 2)

    def test_odd_n_gives_empty_barrier(self):
        out = pm_or_structure(Graph.complete(5))
        assert out == TutteBarrier(VertexSet())
        assert tutte_barrier_holds(Graph.complete(5), out, 2)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=14),
    st.sampled_from([0.1, 0.2, 0.3, 0.5]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_barrier_surplus_is_the_deficiency(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    nu = brute_max_matching_size(n, list(g.edges()))
    out = pm_or_structure(g)
    if 2 * nu == n:
        assert isinstance(out, Matching) and out.verify(g) and out.size == nu
    else:
        assert isinstance(out, TutteBarrier)
        assert out.surplus(g) == n - 2 * nu and tutte_barrier_holds(g, out, 2)


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
