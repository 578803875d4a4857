"""Instance families: delegation, determinism, and the degree-sum floor."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equitiler import PreconditionError
from equitiler.extremal import build_ex1_like, build_ex2, build_obstruction
from equitiler.generators import FAMILIES, generate, random_gnp, random_ore
from equitiler.graphs import Graph, as_fraction, sigma

from _brute import seed_random_gnp, seed_random_ore


FIRST_DRAW = random.Random(0).random()


def edge_count(g: Graph) -> int:
    return sum(1 for _ in g.edges())


def boundary_examples(test):
    """The boundary family random_ore(n, 3, 1/n, seed) at n <= 120."""
    for n in (60, 90, 120):
        for seed in range(4):
            test = example(n, 3, Fraction(1, n), seed)(test)
    return test


class TestFixedFamilies:
    def test_ex1_delegates(self):
        assert generate("ex1", n=9, r=3).content_hash() == build_ex1_like(9, 3).content_hash()

    def test_ex2_delegates(self):
        assert generate("ex2", n=12, r=3, s=3).content_hash() == build_ex2(12, 3, 3).content_hash()

    def test_kclique_is_complete(self):
        g = generate("kclique", k=4)
        assert g.n == 5
        assert g.content_hash() == Graph.complete(5).content_hash()

    def test_biclique_degrees(self):
        g = generate("biclique", k=3, m=1)
        assert g.n == 6
        assert sorted(g.degrees()) == [1, 1, 1, 1, 1, 5]
        assert g.content_hash() == build_obstruction(3, 1).content_hash()

    def test_missing_parameter_named(self):
        with pytest.raises(PreconditionError, match="needs.*r"):
            generate("ex1", n=9)

    def test_unknown_family(self):
        with pytest.raises(PreconditionError, match="unknown family"):
            generate("moebius", n=8)


class TestGnp:
    def test_extreme_probabilities(self):
        assert edge_count(random_gnp(8, 0.0, 1)) == 0
        assert random_gnp(8, 1.0, 1).content_hash() == Graph.complete(8).content_hash()

    def test_frozen_sample(self):
        # Pinned against the sampling order (u, v) ascending; a change in
        # iteration order or RNG consumption shows up here first.
        g = random_gnp(12, 0.5, 3)
        assert edge_count(g) == 26
        assert g.content_hash().startswith("b3cc9ef97e39fe26")

    def test_seed_sensitivity(self):
        assert random_gnp(12, 0.5, 3).content_hash() != random_gnp(12, 0.5, 4).content_hash()

    def test_probability_range_checked(self):
        with pytest.raises(PreconditionError):
            random_gnp(5, 1.5, 0)
        with pytest.raises(PreconditionError):
            random_gnp(-1, 0.5, 0)

    @given(st.integers(0, 10), st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_deterministic_under_seed(self, n, seed):
        assert random_gnp(n, 0.4, seed).content_hash() == random_gnp(n, 0.4, seed).content_hash()

    @given(st.integers(0, 60), st.floats(0, 1), st.integers(0, 2**30))
    @settings(max_examples=60, deadline=None)
    # Pairs whose draw shares its top byte with p, settled from the whole
    # draw: each of these two catches a draw that makes every such pair an
    # edge, or none.
    @example(40, 0.3, 0)
    @example(40, 2 / 3, 1)
    # p equal to seed 0's first draw, whose pair is then no edge, and its
    # neighbours on either side.
    @example(40, FIRST_DRAW, 0)
    @example(40, math.nextafter(FIRST_DRAW, 0), 0)
    @example(40, math.nextafter(FIRST_DRAW, 1), 0)
    @example(40, 5e-324, 0)
    @example(40, 1 - 2**-53, 0)
    @example(40, 0.0, 0)
    @example(40, 1.0, 0)
    def test_matches_pairwise_draw(self, n, p, seed):
        # Reading each draw from the generator's words keeps the pair-by-pair
        # loop's random() calls and comparisons, so the graph is the same.
        assert random_gnp(n, p, seed).adj == seed_random_gnp(n, p, seed).adj

    def test_benchmark_graph_pinned(self):
        # benchmarks/expected.json, case gnp(n=960,p=0.9)/r=3.
        assert random_gnp(960, 0.9, 0).content_hash() == (
            "8e12c59e1adf9b011e5b9f428b33c71b5c0edc2e2f97ba070c7d02a7ce4345ce"
        )


class TestRandomOre:
    def test_floor_holds_on_output(self):
        g = generate("random-ore", n=30, r=3, alpha=0.02, seed=7)
        floor = 2 * (1 - Fraction(1, 3) - as_fraction(0.02)) * 30
        assert sigma(g).sigma >= floor

    def test_repair_was_exercised(self):
        # The seed-7 base graph starts below the floor (sigma 28 < 38.8) and
        # needs 16 added edges; the pinned totals keep the repair path covered.
        g = random_ore(30, 3, 0.02, seed=7)
        assert sigma(g).sigma == 39
        assert edge_count(g) == 319
        assert g.content_hash().startswith("acad166201c563a4")
        base = random_gnp(30, 1 - 1 / 3, 7)
        assert sigma(base).sigma == 28

    def test_deterministic(self):
        a = random_ore(20, 3, 0.05, seed=11)
        b = random_ore(20, 3, 0.05, seed=11)
        assert a.content_hash() == b.content_hash()

    @given(st.integers(2, 4), st.integers(0, 2**20))
    @settings(max_examples=20, deadline=None)
    def test_floor_always_met(self, r, seed):
        n = 6 * r
        g = random_ore(n, r, Fraction(1, 50), seed=seed)
        floor = 2 * (1 - Fraction(1, r) - Fraction(1, 50)) * n
        st_ = sigma(g)
        assert st_.sigma >= floor

    @given(
        st.integers(0, 40),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([0, Fraction(1, 100), Fraction(1, 50)]),
        st.integers(0, 2**30),
    )
    @settings(max_examples=60, deadline=None)
    @boundary_examples
    def test_matches_full_recount(self, n, r, alpha, seed):
        # The queued lower bounds and the degrees kept across repairs pick
        # the witness sigma picks afresh.
        assert random_ore(n, r, alpha, seed).adj == seed_random_ore(n, r, alpha, seed).adj

    def test_benchmark_graph_pinned(self):
        # benchmarks/expected.json, case ore(n=240,a=0)/r=3.
        assert random_ore(240, 3, 0, 0).content_hash() == (
            "5c5b38db4240fcc20a39170e85e50e840927709d5d7b2a7538675954986584f2"
        )

    def test_parameter_checks(self):
        with pytest.raises(PreconditionError):
            random_ore(10, 1, 0.1)
        with pytest.raises(PreconditionError):
            random_ore(10, 3, -0.1)


def test_family_list_covers_dispatch():
    assert set(FAMILIES) == {"ex1", "ex2", "kclique", "biclique", "random-ore", "random-gnp"}
