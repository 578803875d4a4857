"""Absorption machinery: sampled absorbers, layered greedy factors, the set M."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equitiler import (
    AbsorbingSet,
    AugmentationMove,
    Graph,
    PreconditionError,
    VertexSet,
    absorb,
    build_absorbing_set,
    build_ex2,
    default_constants,
    find_augmentation,
    layered_greedy,
    random_gnp,
    random_ore,
    sigma,
)
from equitiler.absorbing import _draw_probe, _random_clique, _sample_absorbers
from equitiler.certificates import clique_tiles_cover, tiling_holds
from equitiler.graphs import iter_bits, low_degree_set
from _brute import (
    absorber_family_problems,
    absorbing_family_for,
    absorbing_set_problems,
    adj_sets,
    brute_layered_profile,
    count_absorbers_exact,
    enumerate_absorbers,
    is_absorber_set,
    is_clique_set,
    layered_factor_exact,
    seed_build_absorbing_set,
    seed_layered_greedy,
)
from conftest import cycle, random_graph


def vs(*vals):
    return VertexSet(vals)


def multipartite(sizes):
    n = sum(sizes)
    side = []
    for i, s in enumerate(sizes):
        side.extend([i] * s)
    g = Graph.empty(n)
    for u in range(n):
        for v in range(u + 1, n):
            if side[u] != side[v]:
                g.add_edge(u, v)
    return g


def bridge_gadget():
    """12 vertices where q = {9,10,11} has exactly one absorber, {0..8}.

    Base triangle {0,1,2}; each base vertex shares a bridge pair with one
    q-vertex, and the pair spans an edge, so both required factors exist but
    no other 9-set works.
    """
    edges = [
        (0, 1), (0, 2), (1, 2),
        (3, 4), (0, 3), (0, 4),
        (5, 6), (1, 5), (1, 6),
        (7, 8), (2, 7), (2, 8),
        (9, 3), (9, 4), (10, 5), (10, 6), (11, 7), (11, 8),
    ]
    return Graph.from_edges(12, edges)


def clique_core():
    # Five mutually adjacent low-degree vertices hooked into a K_7; the
    # degree-sum floor is met with equality at alpha = 1/24.
    g = Graph.empty(12)
    for u in range(5):
        for v in range(u + 1, 5):
            g.add_edge(u, v)
    for u in range(5, 12):
        for v in range(u + 1, 12):
            g.add_edge(u, v)
    hooks = {0: (5, 6, 7), 1: (8, 9, 10), 2: (11, 5, 6), 3: (7, 8, 9), 4: (10, 11, 5)}
    for s, outs in hooks.items():
        for o in outs:
            g.add_edge(s, o)
    return g


def hub_core():
    # Small 4-clique of low-degree hubs on top of K_20; the hub set is below
    # the exploitation cutoff, so the build must protect it with fixed cliques.
    g = Graph.empty(24)
    for u in range(4):
        for v in range(u + 1, 4):
            g.add_edge(u, v)
    for u in range(4, 24):
        for v in range(u + 1, 24):
            g.add_edge(u, v)
    for i in range(4):
        for o in range(4 + 3 * i, 4 + 3 * i + 11):
            g.add_edge(i, o)
    return g


def relay5():
    """One triangle, a pendant pair on it, and an ear at vertex 2."""
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4)])


CASE2_CFG = replace(
    default_constants(3),
    alpha=Fraction(1, 24), xi=Fraction(2, 5), epsilon=Fraction(3, 10),
)
CASE1_CFG = replace(
    default_constants(3),
    alpha=Fraction(1, 24), xi=Fraction(1, 2), epsilon=Fraction(1, 8),
)
DENSE_CFG = replace(
    default_constants(3), xi=Fraction(1, 4), epsilon=Fraction(1, 10),
)


class CountingRandom(random.Random):
    """Counts uniform integer draws; `shuffle`, `sample` and `randrange` all
    make theirs through `_randbelow`."""

    draws = 0

    def _randbelow(self, n):
        self.draws += 1
        return super()._randbelow(n)


class TestRandomClique:
    def test_size_zero_is_the_empty_clique(self):
        assert _random_clique(Graph.complete(5), random.Random(0), 0b11111, 0) == 0

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_a_clique_inside_the_pool_or_none(self, seed, size):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
        pool = rng.getrandbits(n)
        got = _random_clique(g, rng, pool, size)
        adj = adj_sets(n, g.edges())
        members = [v for v in range(n) if pool >> v & 1]
        if not any(is_clique_set(adj, c) for c in itertools.combinations(members, size)):
            assert got is None
        if got is not None:
            assert got & ~pool == 0
            assert got.bit_count() == size
            assert is_clique_set(adj, iter_bits(got))

    def test_draws_grow_with_the_clique_not_the_pool(self):
        # A full shuffle of the pool would make 899 draws here.
        g = Graph.complete(900)
        rng = CountingRandom(5)
        got = _random_clique(g, rng, g.full_mask, 3)
        assert got is not None and got.bit_count() == 3
        assert rng.draws <= 3


def shifted(g, offset):
    """G with every vertex moved up by `offset`, below it `offset` isolated
    vertices."""
    return Graph(g.n + offset, [0] * offset + [row << offset for row in g.adj])


class TestDrawReplay:
    """A draw reads its pool only through the order of its members: moving
    the graph and the pool up by an offset moves the draw by the same
    offset and leaves the generator in the same state, so a seed and the
    pool's members in ascending order fix every absorber."""

    @staticmethod
    def same_clique(g, seed, pool, size, offset=70):
        live, moved = random.Random(seed), random.Random(seed)
        got = _random_clique(g, live, pool, size)
        far = _random_clique(shifted(g, offset), moved, pool << offset, size)
        assert far == (None if got is None else got << offset)
        assert live.getstate() == moved.getstate()
        return got

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 260),
        p=st.sampled_from([0.0, 0.2, 0.6, 0.9, 1.0]),
        density=st.sampled_from([0.05, 0.5, 1.0]),
        size=st.integers(0, 5),
    )
    def test_random_clique(self, seed, n, p, density, size):
        rng = random.Random(seed)
        g = random_graph(rng, n, p)
        pool = sum(1 << v for v in range(n) if rng.random() < density)
        got = self.same_clique(g, seed, pool, size)
        if got is not None:
            assert got & ~pool == 0 and got.bit_count() == size
            assert g.is_clique(got)

    def test_size_zero_and_the_empty_pool(self):
        g = Graph.complete(100)
        assert self.same_clique(g, 1, g.full_mask, 0) == 0
        assert self.same_clique(g, 1, 0, 3) is None
        assert self.same_clique(Graph.empty(0), 1, 0, 1) is None

    @pytest.mark.parametrize("low", [0, 64, 150])
    def test_no_clique_walks_the_whole_pool(self, low):
        # An edgeless graph has no 2-clique, so the walk draws once per
        # pool vertex, up to the last bit of a mask wider than 64 bits.
        g = Graph.empty(300)
        pool = g.full_mask >> low << low
        assert self.same_clique(g, 7, pool, 2) is None
        rng = CountingRandom(7)
        _random_clique(g, rng, pool, 2)
        assert rng.draws == 300 - low

    def test_a_pool_in_the_high_bits(self):
        # The pool is the top 40 of 1,000 vertices, a clique.
        g = Graph.empty(1000)
        for u, v in itertools.combinations(range(960, 1000), 2):
            g.add_edge(u, v)
        pool = g.full_mask >> 960 << 960
        for seed in range(20):
            got = self.same_clique(g, seed, pool, 3)
            assert got is not None and got & ~pool == 0

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(0, 400),
        thin=st.integers(0, 3),
        r=st.integers(1, 7),
    )
    def test_probe_draw(self, seed, width, thin, r):
        rng = random.Random(seed)
        avail = rng.getrandbits(width)
        for _ in range(thin):
            avail &= rng.getrandbits(width)
        live, moved = random.Random(seed), random.Random(seed)
        got = _draw_probe(live, avail, r)
        far = _draw_probe(moved, avail << 70, r)
        assert far == (None if got is None else VertexSet(got.bits << 70))
        assert live.getstate() == moved.getstate()
        if got is None:
            assert avail.bit_count() < r
            assert live.getstate() == random.Random(seed).getstate()
        else:
            assert len(got) == r and got.bits & ~avail == 0

    # random.sample lists a population of at most 21 (r <= 5) or 85 (r = 6,
    # 7) and indexes a larger one through a set of the picks taken.
    @pytest.mark.parametrize("count", [0, 2, 3, 20, 21, 22, 84, 85, 86, 500])
    @pytest.mark.parametrize("r", [2, 3, 6])
    def test_probe_draw_around_the_sample_cutover(self, count, r):
        # The vertices sit at every third position from 70 up, so the mask
        # is wider than 64 bits at every count; the same draw from the
        # vertices 0..count-1 picks the same ranks.
        avail = sum(1 << (70 + 3 * i) for i in range(count))
        for seed in range(5):
            live, packed = random.Random(seed), random.Random(seed)
            got = _draw_probe(live, avail, r)
            ranks = _draw_probe(packed, (1 << count) - 1, r)
            assert (got is None) == (count < r) == (ranks is None)
            if got is not None:
                assert got == VertexSet(70 + 3 * i for i in ranks)
            assert live.getstate() == packed.getstate()


class TestEnumerate:
    def test_bridge_gadget_unique_absorber(self):
        g = bridge_gadget()
        q = vs(9, 10, 11)
        cnt, wits = count_absorbers_exact(g, q, 3, cap=8)
        assert cnt == 1
        assert wits == (VertexSet(range(9)),)
        fam = enumerate_absorbers(g, q, 3, budget=4, seed=0)
        assert fam.q == q
        assert fam.members == (VertexSet(range(9)),)
        assert absorber_family_problems(fam, g, 3) == []

    def test_edgeless_finds_nothing(self):
        fam = enumerate_absorbers(Graph.empty(12), vs(9, 10, 11), 3, budget=4, seed=0)
        assert fam.members == ()

    def test_complete_graph_budget_is_exact(self):
        fam = enumerate_absorbers(Graph.complete(30), vs(0, 1, 2), 3, budget=50, seed=1)
        assert len(fam.members) == 50
        assert all(len(s) == 9 for s in fam.members)
        assert len({s.bits for s in fam.members}) == 50

    def test_k12_matches_exhaustive_count(self):
        # Only one 9-set is even available once q is removed.
        g = Graph.complete(12)
        fam = enumerate_absorbers(g, vs(0, 1, 2), 3, budget=5, seed=2)
        assert fam.members == (VertexSet(range(3, 12)),)
        cnt, wits = count_absorbers_exact(g, vs(0, 1, 2), 3, cap=4)
        assert (cnt, wits) == (1, fam.members)

    def test_odd_split_has_no_absorbers(self):
        g = build_ex2(12, 3, 3)
        for q in (vs(8, 9, 10), vs(3, 4, 5)):
            cnt, _ = count_absorbers_exact(g, q, 3, cap=8)
            assert cnt == 0
            assert enumerate_absorbers(g, q, 3, budget=4, seed=0).members == ()

    def test_wrong_target_size_rejected(self):
        with pytest.raises(PreconditionError):
            enumerate_absorbers(Graph.complete(12), vs(0, 1), 3, budget=2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_pair_absorbers_subset_of_exhaustive(self, seed):
        rng = random.Random(seed)
        n = rng.randint(6, 10)
        g = random_graph(rng, n, rng.choice((0.4, 0.7, 0.9)))
        q = VertexSet(rng.sample(range(n), 2))
        cnt, wits = count_absorbers_exact(g, q, 2, cap=256)
        fam = enumerate_absorbers(g, q, 2, budget=6, seed=seed)
        exact = {w.bits for w in wits}
        for member in fam.members:
            assert member.bits in exact
            assert is_absorber_set(g, member.bits, q.bits, 2)


class TestLayeredFactor:
    def test_matches_reference_random(self, rng):
        for _ in range(80):
            n = rng.randrange(1, 8)
            r = rng.choice([2, 3, 4])
            g = random_graph(rng, n, rng.choice([0.3, 0.6, 0.9]))
            lf = layered_factor_exact(g, r)
            assert lf.verify(g)
            assert lf.profile() == brute_layered_profile(n, list(g.edges()), r)

    def test_complete_seven(self):
        lf = layered_factor_exact(Graph.complete(7), 3)
        assert lf.profile() == (2, 0, 1)

    def test_cycle_six(self):
        lf = layered_factor_exact(cycle(6), 3)
        assert lf.profile() == (0, 3, 0)

    def test_profile_prefers_top_layer(self):
        # Triangle joined to an edge by four cross edges: the best layering
        # keeps one triangle and one edge rather than a triangle and two
        # singletons, and the exact answer must see past the greedy trap.
        g = Graph.from_edges(
            5, [(0, 2), (0, 4), (2, 4), (1, 3), (0, 1), (1, 2), (2, 3), (0, 3)]
        )
        lf = layered_factor_exact(g, 3)
        assert lf.profile() == (1, 1, 0)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            layered_factor_exact(Graph.empty(17), 3)
        layered_factor_exact(Graph.empty(17), 3, cap=17)


class TestLayeredGreedy:
    def test_complete_graph_profile(self):
        lf = layered_greedy(Graph.complete(7), 3)
        assert lf.profile() == (2, 0, 1)
        assert lf.verify(Graph.complete(7))

    def test_cycle_profile(self):
        c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        assert layered_greedy(c6, 3).profile() == (0, 3, 0)

    def test_relay_reaches_lex_maximum(self):
        # Pure greedy stalls at (1,0,2) here; one relay through the triangle
        # trades the ear into a second edge.
        g = relay5()
        lf = layered_greedy(g, 3)
        assert lf.profile() == (1, 1, 0)
        assert lf.profile() == layered_factor_exact(g, 3).profile()
        assert lf.layers[3] == (vs(0, 1, 3),)
        assert lf.layers[2] == (vs(2, 4),)
        assert lf.verify(g)

    def test_inside_matches_the_induced_copy(self):
        rng = random.Random(0x1A7E)
        for _ in range(40):
            n = rng.randrange(4, 20)
            g = random_graph(rng, n, rng.choice([0.5, 0.8, 0.95]))
            mask = VertexSet(rng.sample(range(n), rng.randrange(1, n + 1))).bits
            sub, labels = g.induced(mask)
            want = layered_greedy(sub, 3)
            got = layered_greedy(g, 3, mask)
            assert got.layers == {
                s: tuple(VertexSet(labels[v] for v in c) for c in cs)
                for s, cs in want.layers.items()
            }

    def test_one_pass_matches_the_repeated_search(self):
        # Each vertex is tried once as a clique's lowest vertex; the seed
        # searched the whole mask left again for every clique.
        rng = random.Random(0x1A7F)
        for _ in range(300):
            n = rng.randrange(1, 61)
            g = random_gnp(n, rng.choice((0.3, 0.6, 0.9)), rng.randrange(1000))
            mask = VertexSet(rng.sample(range(n), rng.randrange(n + 1))).bits
            r = rng.randrange(1, 5)
            assert layered_greedy(g, r, mask) == seed_layered_greedy(g, r, mask)

    def test_augmentation_move_frozen(self):
        g = relay5()
        mv = find_augmentation(g, [vs(0, 1, 2), vs(3), vs(4)])
        assert mv is not None
        assert mv.source == vs(4)
        assert mv.helpers == (vs(0, 1, 2), vs(3))
        assert mv.replacements == (vs(2, 4), vs(0, 1, 3))
        assert mv.check(g)

    def test_no_move_without_spare_donor(self):
        # A relay needs a third piece to donate; two triangles and a leftover
        # vertex in K_7 are already lexicographically maximal.
        g = Graph.complete(7)
        assert find_augmentation(g, [vs(0, 1, 2), vs(3, 4, 5), vs(6)]) is None

    def test_move_check_rejects_non_clique(self):
        g = relay5()
        mv = AugmentationMove(
            source=vs(4), helpers=(vs(0, 1, 2), vs(3)),
            replacements=(vs(3, 4), vs(0, 1, 2)),
        )
        assert not mv.check(g)


class TestSampledAbsorbers:
    """An absorber's factors, of G[S] and of G[S u Q], are checked as built,
    not searched for: every absorber sampled must still pass both exact
    checks, and the factor kept for G[S] must tile it."""

    GRAPHS = {
        "gnp240": lambda: random_gnp(240, 0.9, 0),
        "ore240": lambda: random_ore(240, 3, 0, 0),
        "k30": lambda: Graph.complete(30),
    }

    @pytest.mark.parametrize("r", (3, 4))
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_each_absorber_passes_the_exact_checks(self, name, r):
        g = self.GRAPHS[name]()
        cfg = default_constants(r)
        slow = low_degree_set(g, (1 - Fraction(1, r) - cfg.alpha) * g.n)
        exploit = len(slow) > cfg.xi * g.n
        rng = random.Random(0xAB5 + r)
        total = 0
        for seed in range(12):
            picks = rng.sample(range(g.n), 2 * r)
            q, exclude = VertexSet(picks[:r]), VertexSet(picks[r:]).bits
            for s, own in _sample_absorbers(g, q, r, 2, seed, exclude, slow.bits, exploit):
                assert len(s) == r * r and not s.bits & (q.bits | exclude)
                assert is_absorber_set(g, s.bits, q.bits, r)
                assert clique_tiles_cover(g, r, own) == s.bits
                total += 1
        assert total >= 12


class TestBuild:
    def test_complete_graph_minimal_set(self):
        g = Graph.complete(60)
        aset = build_absorbing_set(g, 3, seed=0)
        assert aset is not None
        assert len(aset.family) == 1
        assert aset.fixed == ()
        assert len(aset.m) == 9
        assert absorbing_set_problems(aset, g) == []
        t = absorb(g, aset, vs())
        assert len(t.cliques) == 3
        assert clique_tiles_cover(g, 3, t.cliques) == aset.m.bits

    def test_independent_part_blocks_build(self):
        assert build_absorbing_set(multipartite((6, 6, 6)), 3, seed=0) is None

    def test_low_degree_clique_exploited(self):
        g = clique_core()
        assert sigma(g).sigma == 15
        aset = build_absorbing_set(g, 3, cfg=CASE2_CFG, seed=0)
        assert aset is not None
        assert len(aset.family) == 1
        assert aset.fixed == ()
        assert len(aset.m) == 9
        assert absorbing_set_problems(aset, g) == []
        rest = VertexSet(range(12)) - aset.m
        t = absorb(g, aset, rest)
        assert len(t.cliques) == 4
        assert t.covered == VertexSet(range(12))
        assert tiling_holds(g, t)
        assert absorbing_family_for(aset, g, rest).members == aset.family

    def test_small_slow_set_gets_fixed_cover(self):
        g = hub_core()
        aset = build_absorbing_set(g, 3, cfg=CASE1_CFG, seed=0)
        assert aset is not None
        assert len(aset.family) == 1
        assert len(aset.fixed) == 2
        assert vs(0, 1, 2) in aset.fixed
        spill = next(f for f in aset.fixed if f != vs(0, 1, 2))
        assert 3 in spill and len(spill) == 3
        assert len(aset.m) == 15
        assert absorbing_set_problems(aset, g) == []
        pool = sorted((VertexSet(range(24)) - aset.m).members())
        t = absorb(g, aset, VertexSet(pool[:3]))
        assert len(t.cliques) == 6
        assert clique_tiles_cover(g, t.r, t.cliques) is not None

    def test_dense_random_graph_end_to_end(self):
        rng = random.Random(0xE0A1)
        g = random_graph(rng, 60, 0.9)
        aset = build_absorbing_set(g, 3, cfg=DENSE_CFG, seed=0)
        assert aset is not None
        assert len(aset.family) == 3
        assert aset.fixed == ()
        assert len(aset.m) == 27
        assert absorbing_set_problems(aset, g) == []
        pool = sorted((VertexSet(range(60)) - aset.m).members())
        pick = random.Random(7)
        for trial in range(10):
            u = VertexSet(pick.sample(pool, (0, 3, 6)[trial % 3]))
            t = absorb(g, aset, u)
            assert clique_tiles_cover(g, 3, t.cliques) == (aset.m | u).bits

    def test_sparse_random_graph_fails_gate(self):
        rng = random.Random(0xE0A1)
        g = random_graph(rng, 60, 0.3)
        with pytest.raises(PreconditionError):
            build_absorbing_set(g, 3, cfg=DENSE_CFG, seed=0)

    def test_r_below_two_rejected(self):
        with pytest.raises(PreconditionError):
            build_absorbing_set(Graph.complete(6), 1)


class TestBuildMatchesSeed:
    """One absorber per probe builds the set the four-absorber probes built.
    The stored factors differ: the seed's came from exact search, these from
    each absorber's shape."""

    CASES = {
        "complete60": (lambda: Graph.complete(60), None),
        "clique_core": (clique_core, CASE2_CFG),
        "hub_core": (hub_core, CASE1_CFG),
        "dense60": (lambda: random_graph(random.Random(0xE0A1), 60, 0.9), DENSE_CFG),
        "gnp120": (lambda: random_gnp(120, 0.9, 0), DENSE_CFG),
    }

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_absorbing_set(self, name, seed):
        build, cfg = self.CASES[name]
        g = build()
        want = seed_build_absorbing_set(g, 3, cfg=cfg, seed=seed)
        assert want is not None
        got = build_absorbing_set(g, 3, cfg=cfg, seed=seed)
        fields = ("r", "epsilon", "family", "fixed")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
        assert absorbing_set_problems(got, g) == []


class TestAbsorb:
    def make(self):
        g = Graph.complete(60)
        return g, build_absorbing_set(g, 3, seed=0)

    def test_leftover_must_avoid_m(self):
        g, aset = self.make()
        inside = next(iter(aset.m))
        with pytest.raises(PreconditionError):
            absorb(g, aset, vs(inside))

    def test_total_must_divide(self):
        g, aset = self.make()
        outside = next(v for v in range(60) if v not in aset.m)
        with pytest.raises(PreconditionError):
            absorb(g, aset, vs(outside))

    def test_leftover_capped_by_epsilon(self):
        g, aset = self.make()
        outside = [v for v in range(60) if v not in aset.m][:3]
        with pytest.raises(PreconditionError):
            absorb(g, aset, VertexSet(outside))

    def test_unabsorbable_chunk_raises(self):
        g = Graph.empty(12)
        for u in range(9):
            for v in range(u + 1, 9):
                g.add_edge(u, v)
        orphaned = AbsorbingSet(
            r=3, epsilon=Fraction(1, 2),
            family=(VertexSet(range(9)),),
            factors=((vs(0, 1, 2), vs(3, 4, 5), vs(6, 7, 8)),),
            fixed=(),
        )
        assert absorbing_set_problems(orphaned, g) == []
        with pytest.raises(PreconditionError, match=r"no unused absorber accepts the r-set \[9, 10, 11\]"):
            absorb(g, orphaned, vs(9, 10, 11))
