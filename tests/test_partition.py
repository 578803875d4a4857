"""Peeling, vertex grading, and refinement's checks of a good partition."""

import random
from dataclasses import replace
from fractions import Fraction
from typing import Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equitiler import (
    ConstantsConfig,
    Ex1Witness,
    Graph,
    GoodPartition,
    Matching,
    RsPartition,
    VertexSet,
    build_ex2,
    classify,
    decide_kr_factor,
    default_constants,
    peel_partition,
    random_gnp,
    random_ore,
    refine_to_good,
)
from equitiler import partition as partition_module
from equitiler.certificates import payload_clauses
from equitiler.errors import InternalContradiction, PreconditionError
from equitiler.graphs import induced_edge_count, iter_bits, low_degree_set
from equitiler.partition import (
    _grade_thresholds,
    _sparse_set,
    _violations,
    slack_threshold,
)

from _brute import (
    independent_in,
    seed_classify,
    seed_recount_sparse_set,
    seed_sparse_set,
    rescue_problems,
    validate_good,
)
from conftest import cut_split, random_graph, without_edge


def vs(*vals):
    return VertexSet(vals)


# Loose ladder so that thresholds bite at single-digit n: beta*n reaches 1.
DESK_CFG = ConstantsConfig(
    r=3,
    gamma=Fraction(1, 200),
    gammas=(Fraction(1, 100), Fraction(1, 5), Fraction(3, 10), Fraction(1, 3)),
    alpha=Fraction(1, 50),
    beta_prime=Fraction(1, 20),
    beta=Fraction(1, 8),
    zeta=Fraction(1, 5),
    s=1,
    ladder_ratio=Fraction(1),
)


def ex2_plus(n, u, v):
    g = build_ex2(n, 3, 1)
    g.add_edge(u, v)
    return g


def peeled(g):
    return g, peel_partition(g, 3)[0], None


def join_i4_k2():
    edges = [(i, j) for i in range(4) for j in (4, 5)] + [(4, 5)]
    return Graph.from_edges(6, edges)


class TestPeel:
    def test_odd_split_single_part(self):
        p, s = peel_partition(build_ex2(9, 3, 1), 3)
        assert s == 1
        assert p.parts == (vs(6, 7, 8),)
        assert p.b == vs(0, 1, 2, 3, 4, 5)

    def test_complete_graph_yields_nothing(self):
        p, s = peel_partition(Graph.complete(9), 3)
        assert s == 0
        assert p.parts == ()
        assert len(p.b) == 9

    def test_odd_split_r4_recovers_both_parts(self):
        p, s = peel_partition(build_ex2(12, 4, 1), 4)
        assert s == 2
        assert {frozenset(q.members()) for q in p.parts} == {
            frozenset({6, 7, 8}),
            frozenset({9, 10, 11}),
        }
        assert p.b == vs(0, 1, 2, 3, 4, 5)

    def test_divisibility_enforced(self):
        with pytest.raises(PreconditionError):
            peel_partition(Graph.empty(10), 3)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([6, 9, 12]),
        p=st.floats(0.1, 0.9),
    )
    def test_peel_invariants(self, seed, n, p):
        g = random_graph(random.Random(seed), n, p)
        part, s = peel_partition(g, 3)
        part.check(n)
        assert 0 <= s <= 3
        cfg = default_constants(3)
        size = n // 3
        slack_bits = low_degree_set(g, slack_threshold(n, 3)).bits
        for i, a in enumerate(part.parts):
            assert len(a) == size
            assert not (a.bits & slack_bits)
            order = n - i * size
            budget = cfg.gamma_i(i + 1) * order * order
            assert induced_edge_count(g, a.bits) <= budget


def planted_sparse(rng: random.Random, n: int, size: int, p_in: float) -> Tuple[Graph, int]:
    """A random `size`-set S, G(size, p_in) inside, joined to every other
    vertex, and a complete graph on the rest; returns G and S's mask.

    Each member of S then sees all of V - S, so the sparse-set degree floor
    is exactly 2 e(S).
    """
    order = rng.sample(range(n), n)
    inside = set(order[:size])
    g = Graph.empty(n)
    for u in range(n):
        for v in range(u + 1, n):
            if u not in inside or v not in inside or rng.random() < p_in:
                g.add_edge(u, v)
    return g, sum(1 << v for v in inside)


class TestSparseSet:
    """`_sparse_set` against the probe before its degree floor."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(65, 130),
        p=st.sampled_from([0.7, 0.9]),
        budget=st.sampled_from([Fraction(1, 30000), Fraction(1, 400), Fraction(1, 60), Fraction(1, 20)]),
        drop=st.integers(0, 5),
    )
    def test_dense_gnp(self, seed, n, p, budget, drop):
        # n > 64 skips the exact independent-set branch, so every probe
        # with a budget of at least one edge reaches the degree floor.
        g = random_graph(random.Random(seed), n, p)
        universe = g.full_mask >> drop << drop
        size = n // 3
        assert _sparse_set(g, universe, size, budget, n) == seed_sparse_set(
            g, universe, size, budget, n
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 64),
        p=st.sampled_from([0.6, 0.8]),
        edges=st.integers(1, 5),
        drop=st.integers(0, 5),
    )
    def test_dense_gnp_exact_regime(self, seed, n, p, edges, drop):
        # At most 64 vertices: the clique-cover count may refute the climb
        # before it starts, and must return what the climb would.
        g = random_graph(random.Random(seed), n, p)
        universe = g.full_mask >> drop << drop
        size = n // 3
        budget = Fraction(edges, n * n)
        assert _sparse_set(g, universe, size, budget, n) == seed_sparse_set(
            g, universe, size, budget, n
        )

    def test_tight_cover_keeps_the_climb(self):
        # S = every third vertex of 30, three disjoint edges inside it, and
        # every other pair joined: alpha = 10 - 3, and the greedy cover has
        # exactly 7 cliques, so at a budget of 3 edges the bound must let
        # the climb find S.
        n, size = 30, 10
        members = list(range(0, n, 3))
        inside = set(members)
        matched = {(members[0], members[1]), (members[2], members[3]), (members[4], members[5])}
        g = Graph.from_edges(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if u not in inside or v not in inside or (u, v) in matched
            ],
        )
        budget = Fraction(3, n * n)
        got = _sparse_set(g, g.full_mask, size, budget, n)
        assert got == VertexSet(members)
        assert got == seed_sparse_set(g, g.full_mask, size, budget, n)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 130))
    def test_sparse_gnp_greedy(self, seed, n):
        g = random_graph(random.Random(seed), n, 0.03)
        got = _sparse_set(g, g.full_mask, n // 3, Fraction(1, 100), n)
        assert got is not None and independent_in(g, got.bits)
        assert got == seed_sparse_set(g, g.full_mask, n // 3, Fraction(1, 100), n)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(66, 120),
        p_in=st.sampled_from([0.1, 0.3]),
        slack=st.integers(0, 3),
    )
    def test_planted_set_found_by_hill_climb(self, seed, n, p_in, slack):
        # The budget is e(S) plus `slack` edges: at slack 0 the floor meets
        # 2 * limit exactly and must not refute the set.
        size = n // 3
        g, planted = planted_sparse(random.Random(seed), n, size, p_in)
        edges = induced_edge_count(g, planted)
        budget = Fraction(edges + slack, n * n)
        got = _sparse_set(g, g.full_mask, size, budget, n)
        assert got is not None and induced_edge_count(g, got.bits) <= edges + slack
        assert got == seed_sparse_set(g, g.full_mask, size, budget, n)

    # The hill climb against the version that recounted every inside-degree
    # at each swap, on universes of up to 400 vertices: its bit-sliced
    # counters run up to nine slices deep, over masks several words wide.

    @staticmethod
    def climbs(g, universe, size, limit):
        """Whether a probe with this edge limit reaches the hill climb: at
        least one edge is allowed and the degree floor does not refute it."""
        slack = universe.bit_count() - size
        inner = sorted((g.adj[v] & universe).bit_count() for v in iter_bits(universe))
        return limit >= 1 and sum(max(0, d - slack) for d in inner[:size]) <= 2 * limit

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(200, 400),
        ore=st.booleans(),
        p=st.sampled_from([0.2, 0.3, 0.5, 0.7, 0.9]),
        thin=st.sampled_from([0, 1, 70]),
        parts=st.integers(2, 4),
        budget=st.sampled_from(
            [Fraction(1, 30000), Fraction(1, 3000), Fraction(1, 400), Fraction(1, 60), Fraction(1, 20)]
        ),
    )
    def test_wide_climbs(self, seed, n, ore, p, thin, parts, budget):
        # thin 1 drops about half the vertices from the universe at random;
        # thin 70 drops its lowest 70, so it starts past the first word.
        g = random_ore(n, 3, 0, seed) if ore else random_gnp(n, p, seed)
        if thin == 1:
            universe = g.full_mask & random.Random(seed).getrandbits(n)
        else:
            universe = g.full_mask >> thin << thin
        size = universe.bit_count() // parts
        assert _sparse_set(g, universe, size, budget, n) == seed_recount_sparse_set(
            g, universe, size, budget, n
        )

    @staticmethod
    def seeded_draw():
        """120 probes (g, universe, size, budget) at n = 65..260, seeded."""
        rng = random.Random(0x5EED)
        for i in range(120):
            n = rng.randint(65, 260)
            if rng.random() < 0.5:
                g = random_ore(n, 3, 0, i)
            else:
                g = random_gnp(n, rng.choice([0.3, 0.5, 0.7]), i)
            universe = g.full_mask
            if rng.random() < 0.3:
                universe &= ~rng.getrandbits(n)
            size = universe.bit_count() // rng.choice([3, 4])
            yield g, universe, size, rng.choice([Fraction(1, 400), Fraction(1, 60)])

    def test_seeded_climbs(self):
        # About one call in eight here ends differently if a pick breaks its
        # tie the other way or a counter misses a swap.
        for i, (g, universe, size, budget) in enumerate(self.seeded_draw()):
            assert _sparse_set(g, universe, size, budget, g.n) == seed_recount_sparse_set(
                g, universe, size, budget, g.n
            ), i

    def test_small_universes_of_wide_graphs(self):
        # Draws 24 and 103 thin graphs of 93 and 91 vertices to universes of
        # 43 and 46: the exact independent-set branch goes by the universe's
        # size, not the graph's.
        draws = list(self.seeded_draw())
        for i in (24, 103):
            g, universe, size, budget = draws[i]
            assert universe.bit_count() <= 64 < g.n
            got = _sparse_set(g, universe, size, budget, g.n)
            assert got is not None
            assert got == seed_sparse_set(g, universe, size, budget, g.n), i

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(200, 400),
        p_in=st.sampled_from([0.1, 0.3]),
        slack=st.integers(0, 3),
    )
    def test_wide_planted_set(self, seed, n, p_in, slack):
        size = n // 3
        g, planted = planted_sparse(random.Random(seed), n, size, p_in)
        edges = induced_edge_count(g, planted)
        budget = Fraction(edges + slack, n * n)
        got = _sparse_set(g, g.full_mask, size, budget, n)
        assert got is not None and induced_edge_count(g, got.bits) <= edges + slack
        assert got == seed_recount_sparse_set(g, g.full_mask, size, budget, n)

    @pytest.mark.parametrize(
        "build, budget",
        [
            # `build_absorbing_set`'s sparse-set probe on random_ore(240) at alpha = 0.
            (lambda: random_ore(240, 3, 0), default_constants(3).gamma),
            (lambda: random_gnp(300, 0.5, 1), Fraction(1, 60)),
            (lambda: random_gnp(400, 0.7, 1), Fraction(1, 400)),
        ],
    )
    def test_climbs_that_end_without_a_set(self, build, budget):
        # The floor passes, so the climb runs until no swap lowers the edge
        # count or the 200 swaps run out, and it does not meet the limit.
        g = build()
        n = g.n
        assert self.climbs(g, g.full_mask, n // 3, budget * n * n)
        assert _sparse_set(g, g.full_mask, n // 3, budget, n) is None
        assert seed_recount_sparse_set(g, g.full_mask, n // 3, budget, n) is None

    def test_floor_refutes_what_the_hill_climb_cannot_find(self):
        g, planted = planted_sparse(random.Random(5), 90, 30, 0.3)
        edges = induced_edge_count(g, planted)
        budget = Fraction(edges - 1, 90 * 90)
        assert _sparse_set(g, g.full_mask, 30, budget, 90) is None
        assert seed_sparse_set(g, g.full_mask, 30, budget, 90) is None


class TestClassify:
    def test_odd_split_grades(self):
        g = build_ex2(9, 3, 1)
        p = RsPartition((vs(6, 7, 8),), vs(0, 1, 2, 3, 4, 5))
        cls = classify(g, p, (Fraction(1, 9),))[0]
        # Every outsider sends all 3 edges into A_1: nobody is thin, all are
        # excellent toward A_1 and toward B; only the isolated-side clique
        # vertex is low degree.
        assert cls.exceptional[0] == vs()
        assert cls.excellent[0] == vs(0, 1, 2, 3, 4, 5)
        assert cls.bad[0] == vs()
        assert cls.excellent_b == vs(6, 7, 8)
        assert cls.low_degree == vs(0)

    def test_independent_part_is_never_crowded(self):
        g = build_ex2(12, 3, 3)
        p = RsPartition((vs(8, 9, 10, 11),), vs(*range(8)))
        for delta in (Fraction(1, 100), Fraction(1, 12), Fraction(1, 4)):
            assert classify(g, p, (delta,))[0].bad[0] == vs()

    def test_single_edge_threshold(self):
        g = Graph.from_edges(6, [(0, 1)])
        p = RsPartition((vs(0, 1, 2),), vs(3, 4, 5))
        # delta*n = 1: both endpoints crowded; delta*n = 6/5: neither.
        assert classify(g, p, (Fraction(1, 6),))[0].bad[0] == vs(0, 1)
        assert classify(g, p, (Fraction(1, 5),))[0].bad[0] == vs()

    def test_low_degree_split(self):
        g = build_ex2(9, 3, 1)
        p = RsPartition((vs(6, 7, 8),), vs(0, 1, 2, 3, 4, 5))
        cls = classify(g, p, (Fraction(1, 9),))[0]
        full = cls.excellent[0]
        assert (full & cls.low_degree) | cls.off_low(full) == full
        assert full & cls.low_degree == vs(0)
        assert cls.off_low(full) == vs(1, 2, 3, 4, 5)

    def test_excellent_everywhere_aggregate(self):
        g = build_ex2(9, 3, 1)
        p = RsPartition((vs(6, 7, 8),), vs(0, 1, 2, 3, 4, 5))
        cls = classify(g, p, (Fraction(1, 9),))[0]
        # The odd-split join is complete across blocks, so everyone passes.
        assert cls.excellent_everywhere() == VertexSet(g.full_mask)
        sparse = Graph.from_edges(6, [(0, 1)])
        sp = RsPartition((vs(0, 1, 2),), vs(3, 4, 5))
        scls = classify(sparse, sp, (Fraction(1, 6),))[0]
        assert scls.excellent_everywhere() == vs()


    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        r=st.integers(2, 4),
        m=st.integers(1, 12),
        p=st.sampled_from([0.1, 0.5, 0.9]),
        nums=st.lists(st.integers(0, 40), min_size=1, max_size=3),
        den=st.sampled_from([None, 7, 13, 100]),
    )
    def test_integer_thresholds_match_fractions(self, seed, r, m, p, nums, den):
        # den None makes delta*n an integer; the others mostly do not.  One
        # call grades at every threshold, each as the reference grades it.
        rng = random.Random(seed)
        n = r * m
        g = random_graph(rng, n, p)
        order = rng.sample(range(n), n)
        s = rng.randint(0, r)
        parts = tuple(VertexSet(order[i * m:(i + 1) * m]) for i in range(s))
        part = RsPartition(parts, VertexSet(order[s * m:]))
        deltas = tuple(Fraction(num, n if den is None else den) for num in nums)
        got = classify(g, part, deltas)
        assert got == tuple(seed_classify(g, part, delta) for delta in deltas)


    def test_thin_toward_two_parts_is_a_contradiction(self):
        # In K_9 every vertex has degree 8, above (1 - 2/3)*9 + 2*delta*9 at
        # delta = 1/9, so no vertex may grade thin toward two parts.
        g = Graph.complete(9)
        p = RsPartition((vs(0, 1, 2), vs(3, 4, 5)), vs(6, 7, 8))
        (cls,) = classify(g, p, (Fraction(1, 9),))
        wrong = cls._replace(exceptional=(vs(6), vs(6)))
        with pytest.raises(
            InternalContradiction, match="vertex 6 grades thin toward 2 parts at degree 8"
        ):
            partition_module._check_thin_spread(g, wrong)


class TestRefine:
    def test_clean_odd_split_needs_no_moves(self):
        g = build_ex2(9, 3, 1)
        p, s = peel_partition(g, 3)
        out = refine_to_good(g, p)
        assert isinstance(out, GoodPartition)
        # Refinement moves no vertex: the peeled partition comes back.
        assert out.partition == p
        assert validate_good(g, out) == []

    def test_perturbed_odd_split_is_a_miss(self):
        # Refinement moves no vertex: the low-degree 0 stays in the part, so
        # (S) fails, and all six vertices outside the part are non-excellent
        # toward it.
        g = build_ex2(9, 3, 1)
        perturbed = RsPartition((vs(0, 7, 8),), vs(1, 2, 3, 4, 5, 6))
        with pytest.raises(PreconditionError) as err:
            refine_to_good(g, perturbed, DESK_CFG)
        assert str(err.value) == (
            "refinement stalled: (S) low-degree vertices stray outside the leftover"
            " block; (A3) part 1 has 6 non-excellent vertices"
        )

    def test_thin_vertex_without_a_part_neighbour_is_a_miss(self, monkeypatch):
        # Vertex 1 of B1 loses its three edges into A and gains the edge
        # 1-0, so it keeps degree 5 and stays off S.  At n = 9 thin toward
        # the part means no neighbour in it, so no rescue edge exists: a
        # miss, not a contradiction, and the partition is graded once as
        # given, with no vertex moved.
        g = build_ex2(9, 3, 1)
        for v in (6, 7, 8):
            g = without_edge(g, 1, v)
        g.add_edge(0, 1)
        p = RsPartition((vs(6, 7, 8),), vs(0, 1, 2, 3, 4, 5))
        graded_partitions = []
        real = partition_module._classify

        def spy(g, p, *rest):
            graded_partitions.append(p)
            return real(g, p, *rest)

        monkeypatch.setattr(partition_module, "_classify", spy)
        with pytest.raises(PreconditionError) as err:
            refine_to_good(g, p, DESK_CFG)
        assert str(err.value) == "no rescue matching into part 1 for 1 thin vertices"
        assert graded_partitions == [p]

    def test_join_escape_left_to_the_recognizer(self):
        # The four independent vertices are an Ex1 NO.  The decider's
        # recognizer finds them before anything refines; refinement never
        # answers NO, and misses on this partition.
        g = join_i4_k2()
        p, s = peel_partition(g, 3)
        assert s == 0  # every sparse vertex is low degree, nothing peelable
        c = decide_kr_factor(g, 3)
        assert (c.kind, c.answer, c.provenance) == ("obstructed", False, "recognizer")
        assert isinstance(c.witness, Ex1Witness)
        assert payload_clauses(g, c.witness, 3, "factor") == []
        manual = RsPartition((vs(0, 1),), vs(2, 3, 4, 5))
        with pytest.raises(PreconditionError):
            refine_to_good(g, manual, default_constants(3))

    def test_refine_rejects_empty_peel(self):
        g = Graph.complete(9)
        p, _ = peel_partition(g, 3)
        with pytest.raises(PreconditionError):
            refine_to_good(g, p)

    @pytest.mark.parametrize(
        "case",
        [
            lambda: peeled(ex2_plus(240, 160, 161)),
            lambda: peeled(ex2_plus(240, 0, 1)),
        ],
        ids=["ex2+A", "ex2+B0B1"],
    )
    def test_carried_grades_match_a_fresh_grading(self, case):
        g, p, cfg = case()
        out = refine_to_good(g, p, cfg)
        fresh = classify(g, out.partition, _grade_thresholds(out.constants))
        assert (out.thin, out.crowded, out.classification) == fresh

    def test_each_block_counted_once_when_nothing_moves(self, monkeypatch):
        # One grading at three thresholds: the whole vertex set, the part
        # and B are each counted once in the call.
        counted = []
        real = partition_module._at_least

        def spy(g, mask):
            counted.append(mask)
            return real(g, mask)

        monkeypatch.setattr(partition_module, "_at_least", spy)
        g = ex2_plus(240, 160, 161)
        p, _ = peel_partition(g, 3)
        out = refine_to_good(g, p)
        assert out.partition == p
        assert sorted(counted) == sorted([g.full_mask, p.parts[0].bits, p.b.bits])

    def test_part_count_other_than_the_constants_is_a_miss(self):
        # One part peels off ex2 plus an edge inside A; constants made for
        # s = 2 are refused, not replaced by the scales for s = 1.
        g = ex2_plus(240, 160, 161)
        p, s = peel_partition(g, 3)
        assert s == 1
        with pytest.raises(PreconditionError) as err:
            refine_to_good(g, p, default_constants(3).for_s(2))
        assert str(err.value) == "constants set s = 2, but peeling found s = 1"
        c = decide_kr_factor(g, 3, cfg=default_constants(3).for_s(2))
        assert "structured route: constants set s = 2, but peeling found s = 1" in c.notes

    def test_constants_for_the_peeled_count_are_kept(self):
        g = ex2_plus(240, 160, 161)
        p, _ = peel_partition(g, 3)
        cfg = replace(default_constants(3).for_s(1), beta=Fraction(1, 400))
        out = refine_to_good(g, p, cfg)
        assert out.constants is cfg
        assert out.thin.delta == Fraction(1, 800)


def graded(g, p, rescue, cfg):
    """A GoodPartition of p carrying its three grades."""
    thin, crowded, cls = classify(g, p, _grade_thresholds(cfg))
    return GoodPartition(p, cls, thin, crowded, rescue, cfg)


class TestValidate:
    def test_clean_output_passes(self):
        g = build_ex2(9, 3, 1)
        p, _ = peel_partition(g, 3)
        out = refine_to_good(g, p)
        assert validate_good(g, out) == []

    def test_edge_heavy_part_reported_with_count(self):
        # In K_9 the part's 3 edges break (A1) and crowd its vertices; less
        # the edge 0-3, vertex 3 is also not excellent toward the part.
        cfg = default_constants(3).for_s(1)
        p = RsPartition((vs(0, 1, 2),), vs(3, 4, 5, 6, 7, 8))
        heavy = ["(A1) part 1 induces 3 edges", "(A3) part 1 has 3 crowded vertices"]
        dented = heavy + ["(A3) part 1 has 1 non-excellent vertices"]
        dent = without_edge(Graph.complete(9), 0, 3)
        for g, want in ((Graph.complete(9), heavy), (dent, dented)):
            q = graded(g, p, (Matching(()),), cfg)
            assert _violations(g, q) == want
            assert validate_good(g, q) == want

    def test_overlapping_rescue_matchings_flagged(self):
        g = Graph.from_edges(12, [(0, 6), (0, 9)])
        cfg = default_constants(4).for_s(2)
        p = RsPartition((vs(6, 7, 8), vs(9, 10, 11)), vs(0, 1, 2, 3, 4, 5))
        q = graded(g, p, (Matching(((0, 6),)), Matching(((0, 9),))), cfg)
        report = validate_good(g, q)
        assert any("overlaps" in line for line in report)

    def test_rescue_matchings_built_by_refinement(self):
        # In the odd split at n = 750 with an edge inside A = {500..749} and
        # vertex 5 of B1 cut off from A, vertex 501 is left in B, thin toward
        # the part at beta/2, and its A edge to 500 is its rescue edge.
        # The package no longer reads (A4)'s rescue clauses back; the
        # reference reads each one, and each break is caught.
        g = cut_split(750)
        p, _ = peel_partition(g, 3)
        out = refine_to_good(g, p)
        assert [m.pairs for m in out.rescue] == [((500, 501),)]
        assert validate_good(g, out) == []
        broken = {
            "(A4) expected 1 rescue matchings, got 0": (),
            "(A4) rescue matching 1 misses thin vertices": (Matching(()),),
            "(A4) rescue matching 1 is not a matching of G": (Matching(((501, 502),)),),
            "(A4) edge 1,501 of rescue matching 1 leaves its lane": (Matching(((1, 501),)),),
        }
        for clause, rescue in broken.items():
            assert clause in rescue_problems(g, out._replace(rescue=rescue))

    def test_rescue_pairs_keep_the_matching_order(self):
        # A rescue pair is built as (thin vertex, part vertex); here thin
        # vertex 501's partner is 500, so the pair must be turned round to
        # keep Matching's (min, max) pairs in sorted order.
        g = cut_split(750)
        p, _ = peel_partition(g, 3)
        for m in refine_to_good(g, p).rescue:
            assert all(u < v for u, v in m.pairs)
            assert list(m.pairs) == sorted(m.pairs)

    def test_grade_at_the_wrong_threshold_flagged(self):
        g = build_ex2(9, 3, 1)
        p, _ = peel_partition(g, 3)
        out = refine_to_good(g, p, DESK_CFG)
        cfg = out.constants
        # The thin grade taken at 2*beta instead of beta/2.
        (wrong,) = classify(g, out.partition, (2 * cfg.beta,))
        report = validate_good(g, out._replace(thin=wrong))
        assert report == [f"(grades) thin differs from the grade at delta = {cfg.beta / 2}"]
