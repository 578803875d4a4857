from __future__ import annotations

import hashlib
import sys
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _brute
from equitiler import oracle
from equitiler.extremal import build_ex1_like, build_ex2
from equitiler.generators import random_gnp
from equitiler.graphs import Graph, VertexSet, iter_bits
from equitiler.oracle import (
    Coloring,
    Tiling,
    _backtrack,
    _class_profile,
    _classes,
    _covers,
    equitable_coloring_exact,
    kr_factor_exact,
)

from _brute import (
    brute_count_absorbers,
    brute_equitable_colorable,
    brute_independence_number,
    brute_induced,
    brute_kr_factor_exists,
    brute_layered_profile,
    count_absorbers_exact,
    full_pass_backtrack,
    is_absorber_set,
    layered_factor_exact,
    seed_backtrack,
    seed_classes,
    seed_equitable_coloring_exact,
)
from conftest import cycle, random_graph


def _search_args(g: Graph, k: int):
    """The class sizes and vertex order `equitable_coloring_exact` hands
    its backtracking."""
    degs = g.degrees()
    return _class_profile(g.n, k), sorted(range(g.n), key=degs.__getitem__, reverse=True)


def _place_frames(module, search):
    """The result of `search()` and the number of frames of the `place`
    function defined in `module` that it entered: the search's node count."""
    scope = vars(module)
    nodes = 0

    def count(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "place" and frame.f_globals is scope:
            nodes += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = search()
    finally:
        sys.setprofile(previous)
    return result, nodes


def _seed_search_result_kept(g: Graph, k: int) -> bool:
    got = equitable_coloring_exact(g, k)
    want = seed_equitable_coloring_exact(g, k)
    if want is None:
        return got is None
    return got is not None and got.classes == want.classes


class TestKrFactor:
    def test_matches_reference_random(self, rng):
        for _ in range(150):
            r = rng.choice([2, 2, 3, 3, 4])
            n = r * rng.randrange(1, 4)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7, 0.9]))
            got = kr_factor_exact(g, r)
            want = brute_kr_factor_exists(n, list(g.edges()), r)
            assert (got is not None) == want
            if got is not None:
                assert got.verify(g)

    def test_inside_matches_the_induced_copy(self, rng):
        # A mask keeps vertex order, so the search on it finds the factor the
        # relabelled copy gives, clique for clique.
        for _ in range(120):
            r = rng.choice([1, 2, 3, 3, 4])
            n = rng.randrange(r, 16)
            g = random_graph(rng, n, rng.choice([0.5, 0.8, 0.95]))
            verts = rng.sample(range(n), r * rng.randrange(1, n // r + 1))
            mask = VertexSet(verts).bits
            sub, labels = g.induced(mask)
            want = kr_factor_exact(sub, r)
            got = kr_factor_exact(g, r, mask)
            if want is None:
                assert got is None
            else:
                assert got == Tiling(
                    r, tuple(VertexSet(labels[v] for v in c) for c in want.cliques)
                )

    def test_requires_divisibility(self):
        with pytest.raises(ValueError, match="divide"):
            kr_factor_exact(Graph.empty(5), 3)
        with pytest.raises(ValueError, match="divide"):
            kr_factor_exact(Graph.complete(6), 3, 0b1111)

    def test_r1_always_succeeds(self):
        t = kr_factor_exact(Graph.empty(4), 1)
        assert t is not None and t.verify(Graph.empty(4))

    def test_complete_graph(self):
        g = Graph.complete(6)
        for r in (1, 2, 3, 6):
            t = kr_factor_exact(g, r)
            assert t is not None and t.verify(g)

    def test_odd_split_has_no_factor(self):
        for n, r, s in [(9, 3, 1), (9, 3, 3), (12, 3, 3), (12, 4, 1), (16, 4, 1)]:
            assert kr_factor_exact(build_ex2(n, r, s), r) is None

    def test_near_independent_has_no_factor(self):
        for n, r in [(9, 3), (12, 3), (12, 4)]:
            assert kr_factor_exact(build_ex1_like(n, r), r) is None

    def test_odd_split_plus_cross_edge_has_factor(self):
        # One edge between the clique pair repairs the parity obstruction.
        g = build_ex2(12, 3, 3)
        g.add_edge(0, 3)
        t = kr_factor_exact(g, 3)
        assert t is not None and t.verify(g)

    def test_deterministic_witness(self):
        g = Graph.complete(6)
        a = kr_factor_exact(g, 2)
        b = kr_factor_exact(g.copy(), 2)
        assert a == b == Tiling(2, (VertexSet([0, 3]), VertexSet([1, 4]), VertexSet([2, 5])))

    def test_large_obstructed_instances_fast(self):
        # These would be hopeless without the colouring search's checks: its
        # (k+1)-clique check of the complement finds the third input's
        # independent set, and its prunes cut the two odd splits.
        assert kr_factor_exact(build_ex2(36, 3, 1), 3) is None
        assert kr_factor_exact(build_ex2(36, 3, 3), 3) is None
        assert kr_factor_exact(build_ex1_like(36, 3), 3) is None


class TestEquitableColoring:
    def test_matches_reference_random(self, rng):
        for _ in range(120):
            n = rng.randrange(1, 9)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            for k in range(1, n + 2):
                got = equitable_coloring_exact(g, k)
                want = brute_equitable_colorable(n, list(g.edges()), k)
                assert (got is not None) == want, (list(g.edges()), n, k)
                if got is not None:
                    assert got.verify(g)

    def test_class_sizes(self):
        g = Graph.empty(7)
        col = equitable_coloring_exact(g, 3)
        sizes = sorted(len(c) for c in col.classes)
        assert sizes == [2, 2, 3]

    def test_complete_needs_n_colors(self):
        g = Graph.complete(5)
        assert equitable_coloring_exact(g, 4) is None
        assert equitable_coloring_exact(g, 5) is not None

    def test_k_exceeding_n(self):
        g = Graph.complete(3)
        col = equitable_coloring_exact(g, 5)
        assert col is not None and col.k == 5 and col.verify(g)

    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            equitable_coloring_exact(Graph.empty(2), 0)

    def test_proper_but_not_equitable_detected(self):
        # Star: proper 2-coloring exists, but the center cannot share a class,
        # so no class profile without a singleton works.
        g = Graph.from_edges(6, [(0, v) for v in range(1, 6)])
        assert equitable_coloring_exact(g, 2) is None
        assert equitable_coloring_exact(g, 3) is None
        assert equitable_coloring_exact(g, 4) is not None

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=16),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_prunes_keep_the_seed_search_result(self, n, p, seed):
        # The fill and cover prunes cut only subtrees without a colouring,
        # and a committed forced vertex lies in its class in every colouring
        # below; the visiting order stays, so the first colouring found is
        # the one the unpruned search returns, class by class.
        g = random_gnp(n, p, seed)
        for k in range(1, n + 1):
            assert _seed_search_result_kept(g, k), k

    def test_every_small_graph_keeps_the_seed_search_result(self):
        for n in range(1, 6):
            pairs = list(combinations(range(n), 2))
            for m in range(1 << len(pairs)):
                g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if m >> i & 1])
                for k in range(1, n + 1):
                    assert _seed_search_result_kept(g, k), (n, m, k)

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=16, max_value=30),
        st.floats(min_value=0.15, max_value=0.5),
        st.integers(min_value=3, max_value=7),
        st.integers(min_value=0, max_value=2**32),
    )
    # The first two examples reach a failure exit of the tight-class
    # commit: in the first, two tight classes share a vertex (the second
    # then fails fill); in the second, a tight free set is not independent.
    # In the third the independence check cuts the search from 987 nodes
    # to 49.
    @example(n=30, p=0.3416692820962327, k=7, seed=1007773001)
    @example(n=24, p=0.22759208319556226, k=6, seed=4033691631)
    @example(n=27, p=0.3123575580408078, k=6, seed=1646540641)
    def test_commits_keep_the_seed_backtrack_result(self, n, p, k, seed):
        # At these sizes and densities the greedy often gets stuck and the
        # search arms, so the commits run; the search is called directly,
        # past the greedy and the clique short-circuit.
        g = random_gnp(n, p, seed)
        caps, order = _search_args(g, k)
        assert _backtrack(g.adj, g.full_mask, caps, order) == seed_backtrack(g, caps, order)

    @pytest.mark.parametrize(
        "n, p, seed, k, ceiling",
        [
            # 275,551 nodes with the forced-vertex commit alone, 49 with the
            # tight-class commit.
            (30, 0.3417478994805067, 1162061540, 7, 100),
            # 15,685 nodes, then 44.
            (46, 0.2, 57, 6, 90),
            # 41 nodes; 1,051 when a second tight class may take a vertex a
            # first one already took, since the child then fails only once
            # every class is full.
            (30, 0.3416692820962327, 1007773001, 7, 80),
            # 2,613 nodes with both commit rules, 688 with the independence
            # check at slack <= 2 and 660 at slack <= 3.
            (40, 0.5, 7, 9, 800),
            # 115,602 nodes with both commit rules, 47 with the independence
            # check.
            (29, 0.35143125846499734, 3709406659, 7, 90),
            # The two slowest searches of the benchmark's exact workload, at
            # 498 and 342 nodes.
            (44, 0.3, 146, 6, 498),
            (48, 0.3, 227, 6, 342),
        ],
    )
    def test_search_stays_within_its_node_count(self, n, p, seed, k, ceiling):
        # The commits change no answer, so only the count of `place` frames
        # shows that one is missing.
        g = random_gnp(n, p, seed)
        caps, order = _search_args(g, k)
        _, nodes = _place_frames(oracle, lambda: _backtrack(g.adj, g.full_mask, caps, order))
        assert 0 < nodes <= ceiling

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=16, max_value=40),
        st.floats(min_value=0.15, max_value=0.45),
        st.integers(min_value=3, max_value=9),
        st.integers(min_value=0, max_value=2**32),
    )
    # The deepest search of 3,000 seeded draws under 1 s: 4,263 nodes.
    @example(n=37, p=0.3335274253843153, k=7, seed=3890044653)
    def test_kept_free_sets_keep_the_full_pass_search(self, n, p, k, seed):
        # Keeping the settled free sets changes only which classes a round
        # recomputes, not the fixpoint a child reaches, so the search visits
        # the same nodes as the one that recomputed every class in every
        # round, and returns the same colouring.  Only draws on which the
        # greedy gets stuck reach the search.
        g = random_gnp(n, p, seed)
        _, nodes = _place_frames(oracle, lambda: _classes(g.adj, g.full_mask, k))
        if not nodes:
            return
        caps, order = _search_args(g, k)
        want, want_nodes = _place_frames(
            _brute, lambda: full_pass_backtrack(g.adj, g.full_mask, caps, order)
        )
        got = _backtrack(g.adj, g.full_mask, caps, order)
        assert (got, nodes) == (want, want_nodes)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**10 - 1),
        st.integers(min_value=0, max_value=3),
    )
    def test_covers_matches_the_independence_number(self, n, p, seed, free, slack):
        # G[free] has a vertex cover of `slack` vertices exactly when it has
        # an independent set of all the others.
        g = random_gnp(n, p, seed)
        free &= g.full_mask
        size, edges, _ = brute_induced(n, g.edges(), free)
        want = brute_independence_number(size, edges) >= size - slack
        assert _covers(g.adj, free, slack) is want

    def test_covers_on_every_small_graph(self):
        for n in range(6):
            pairs = list(combinations(range(n), 2))
            for m in range(1 << len(pairs)):
                edges = [e for i, e in enumerate(pairs) if m >> i & 1]
                g = Graph.from_edges(n, edges)
                alpha = brute_independence_number(n, edges)
                for slack in range(4):
                    want = alpha >= n - slack
                    assert _covers(g.adj, g.full_mask, slack) is want, (m, slack)

    @pytest.mark.parametrize(
        "n, p, seed, k, digest",
        [
            (44, 0.3, 146, 6, "71f988a7a1909459ea050e638a939f908a6a72694c4ecfbcda0f0aec071daa23"),
            (45, 0.3, 830, 6, "a66171db59b91c379d5815ce3d903d022f044d0c3dc9bac5f25f4a3416b2acab"),
            (40, 0.5, 7, 9, "4d0f9ee5b4710e07a827414bc7f129d8a93d124843f0d2910b3039ca9d4597a0"),
            (42, 0.2, 799, 5, "231bf65e9ca92847ce6996d38c0d0fde6922904292ac113c2033afaba91b8d74"),
            (46, 0.2, 57, 6, "683df71509f91dc746c1552fe379f9cbe642d54ebb63412e37eeb5e16f52772d"),
            (30, 0.3417478994805067, 1162061540, 7, "8eafbb7f02f2c3a2944ded3513dead6bd46c1eb7b74feb26c1010dc7c81dd942"),
            (48, 0.3, 227, 6, None),
        ],
    )
    def test_slow_inputs_keep_their_colourings(self, n, p, seed, k, digest):
        # sha256 of the class bitmasks, comma-joined in class order.
        col = equitable_coloring_exact(random_gnp(n, p, seed), k)
        if digest is None:
            assert col is None
        else:
            bits = ",".join(str(c.bits) for c in col.classes)
            assert hashlib.sha256(bits.encode()).hexdigest() == digest

    def test_named_slow_inputs_decide(self):
        # Without the prunes the k = 7 search runs for tens of seconds.
        assert equitable_coloring_exact(random_gnp(48, 0.3, 7), 6) is None
        for (n, p, seed), k in (((48, 0.3, 7), 7), ((40, 0.5, 7), 9)):
            g = random_gnp(n, p, seed)
            col = equitable_coloring_exact(g, k)
            assert col is not None and col.k == k and col.verify(g)


def _complement_rows(g: Graph, mask: int):
    """The rows `kr_factor_exact` hands the colouring search for G[mask]."""
    return {v: mask & ~g.adj[v] ^ (1 << v) for v in iter_bits(mask)}


class TestSearchEntry:
    """`_classes` returns the list its earlier entry and greedy returned."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**12 - 1),
    )
    def test_keeps_the_seed_classes(self, n, p, seed, inside):
        g = random_gnp(n, p, seed)
        for k in range(1, n + 2):
            assert _classes(g.adj, g.full_mask, k) == seed_classes(g.adj, g.full_mask, k), k
        mask = inside & g.full_mask
        rows = _complement_rows(g, mask)
        for k in range(1, mask.bit_count() + 2):
            assert _classes(rows, mask, k) == seed_classes(rows, mask, k), (mask, k)

    def test_wide_masks_keep_the_seed_singletons(self):
        # r = 1 on a wide mask, dense or sparse, as the factor table's
        # trivial step and the leftover block at d = 1 ask for it.
        g = random_gnp(200, 0.5, 3)
        for mask in (g.full_mask, g.full_mask & ~(1 << 7), (1 << 199) | (1 << 130) | 5):
            rows = _complement_rows(g, mask)
            n = mask.bit_count()
            for k in (n, n + 2):
                assert _classes(rows, mask, k) == seed_classes(rows, mask, k)
        assert kr_factor_exact(g, 1).cliques == tuple(VertexSet([v]) for v in range(200))


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


class TestAbsorbers:
    def test_counts_match_reference(self, rng):
        for _ in range(12):
            n = rng.randrange(12, 14)
            g = random_graph(rng, n, 0.8)
            q = VertexSet(rng.sample(range(n), 3))
            count, found = count_absorbers_exact(g, q, 3)
            assert count == brute_count_absorbers(n, list(g.edges()), q.members(), 3)
            if found is not None:
                for s in found:
                    assert is_absorber_set(g, s.bits, q.bits, 3)

    def test_cap_suppresses_listing(self):
        g = Graph.complete(13)
        q = VertexSet([0, 1, 2])
        count, found = count_absorbers_exact(g, q, 3, cap=2)
        assert count == 10 and found is None
        count2, found2 = count_absorbers_exact(g, q, 3, cap=10)
        assert count2 == 10 and found2 is not None and len(found2) == 10

    def test_q_size_checked(self):
        with pytest.raises(ValueError, match=r"\|Q\|"):
            count_absorbers_exact(Graph.complete(13), VertexSet([0, 1]), 3)


class TestResultTypes:
    def test_tiling_verify_rejects_overlap(self):
        g = Graph.complete(4)
        bad = Tiling(2, (VertexSet([0, 1]), VertexSet([1, 2])))
        assert not bad.verify(g)

    def test_tiling_verify_rejects_non_clique(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert Tiling(2, (VertexSet([0, 2]), VertexSet([1, 3]))).verify(g) is False

    def test_partial_tiling_allowed(self):
        g = Graph.complete(4)
        part = Tiling(2, (VertexSet([0, 1]),))
        assert part.verify(g, require_factor=False)
        assert not part.verify(g)

    def test_coloring_verify_rejects_imbalance(self):
        g = Graph.empty(4)
        bad = Coloring((VertexSet([0, 1, 2]), VertexSet([3])))
        assert not bad.verify(g)
        assert bad.verify(g, equitable=False)
