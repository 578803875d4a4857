"""Decision ladder: padding, lifting, branch selection, honest fallbacks."""

import hashlib
import json
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from equitiler import (
    BicliqueObstruction,
    CliqueObstruction,
    Coloring,
    DecisionCertificate,
    Ex1Witness,
    Ex2Witness,
    Graph,
    InternalContradiction,
    PreconditionError,
    Tiling,
    VertexSet,
    build_ex1_like,
    build_ex2,
    coloring_obstruction,
    complement,
    decide_equitable,
    decide_kr_factor,
    default_constants,
    equitable_coloring_exact,
    kr_factor_exact,
    lift_coloring,
    ore_edge_bound,
    pad_to_divisible,
    random_gnp,
    random_ore,
)
from equitiler import decide as decide_module
from equitiler import graphs as graphs_module
from equitiler import oracle as oracle_module
from equitiler.certificates import (
    biclique_holds,
    certificate_to_json,
    clique_holds,
    payload_clauses,
    tiling_holds,
    tutte_barrier_holds,
    verify_certificate,
)
from equitiler.matching import TutteBarrier, maximum_matching
from equitiler.smallgraphs import iter_labeled_graphs_inplace

from _brute import barrier_surplus
from conftest import cut_split, random_graph, without_edge
from test_regime import sparse_draw


def vs(*vals):
    return VertexSet(vals)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


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


def disjoint_cliques(count, size):
    blocks = (range(b, b + size) for b in range(0, count * size, size))
    return Graph.from_edges(count * size, [e for block in blocks for e in combinations(block, 2)])


def bridged_cliques():
    """Three disjoint K_17 and the edge 0-17 between two of them: Δ = 17."""
    g = disjoint_cliques(3, 17)
    g.add_edge(0, 17)
    return g


def sparse60():
    """A scoreboard-style sparse draw at n = 60 with Δ = 3: at k = 3
    procedure P leaves vertex 55 with a neighbour in each class, and every
    other route misses too."""
    return sparse_draw(random.Random(0), 60, 3)


def thinned(g, v, d):
    """g with v's highest neighbours cut off until v has degree d.  At
    d < n - n/r the Hajnal–Szemerédi gate fails at v."""
    out = g.copy()
    while out.degree(v) > d:
        u = out.adj[v].bit_length() - 1
        out.adj[v] &= ~(1 << u)
        out.adj[u] &= ~(1 << v)
    return out


def dense60():
    """random_graph(60, 0.9) with vertex 0 cut to degree 39 < 40: the
    Hajnal–Szemerédi gate fails there, no sparse part peels, and procedure
    P tiles it past the cap."""
    return thinned(random_graph(random.Random(0xE0A1), 60, 0.9), 0, 39)


def tripartite(m):
    """K_{m,m,m} without the edge 0-m: one row below 2m, so the
    Hajnal–Szemerédi gate fails and the later routes run."""
    return without_edge(multipartite((m, m, m)), 0, m)


def split_plus_singletons():
    """K_{20,20} joined to 20 singletons, without the edge 0-20: the
    structured route's small input outside the Hajnal–Szemerédi gate."""
    return without_edge(multipartite((20, 20) + (1,) * 20), 0, 20)


# Ladder window sized so peeling at n=36 accepts a once-perturbed part and
# nothing else; the refinement scales derive as 2x/4x/8x the first rung.
DESK36 = replace(
    default_constants(3),
    gamma=Fraction(1, 600),
    gammas=(Fraction(1, 300), Fraction(1, 25), Fraction(1, 3), Fraction(1, 3)),
    ladder_ratio=Fraction(1),
)


class TestPad:
    def test_seven_three(self):
        g, q = pad_to_divisible(Graph.empty(7), 3)
        assert (g.n, q) == (9, 2)
        assert g.has_edge(7, 8)
        assert all(not g.has_edge(v, 7) and not g.has_edge(v, 8) for v in range(7))

    def test_divisible_passthrough(self):
        k6 = Graph.complete(6)
        g, q = pad_to_divisible(k6, 3)
        assert q == 0 and g is k6

    def test_padded_k4_still_blocked(self):
        g, q = pad_to_divisible(Graph.complete(4), 3)
        assert q == 2
        assert equitable_coloring_exact(g, 3) is None

    def test_degree_bound_preserved(self):
        g = cycle(7)
        padded, _ = pad_to_divisible(g, 3)
        assert ore_edge_bound(padded, 3)[0] == ore_edge_bound(g, 3)[0]

    def test_k_out_of_range(self):
        with pytest.raises(PreconditionError):
            pad_to_divisible(Graph.complete(4), 5)
        with pytest.raises(PreconditionError):
            pad_to_divisible(Graph.complete(4), 0)


class TestLift:
    def test_two_disjoint_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        t = kr_factor_exact(complement(g), 2)
        col = lift_coloring(t, 0, 2)
        assert payload_clauses(g, col, 2, "coloring") == []
        assert set(c.bits for c in col.classes) == {vs(0, 2).bits, vs(1, 3).bits}

    def test_padded_cycle(self):
        # n=7, k=3: two padding vertices must come out of distinct classes,
        # leaving sizes 3,2,2.
        g = cycle(7)
        padded, q = pad_to_divisible(g, 3)
        t = kr_factor_exact(complement(padded), 3)
        assert t is not None
        col = lift_coloring(t, q, 3)
        assert payload_clauses(g, col, 3, "coloring") == []
        assert sorted(len(c) for c in col.classes) == [2, 2, 3]

    def test_wrong_clique_count(self):
        t = Tiling(2, (vs(0, 1), vs(2, 3)))
        with pytest.raises(PreconditionError):
            lift_coloring(t, 0, 3)

    def test_padding_pair_in_one_class(self):
        t = Tiling(2, (vs(4, 5), vs(0, 1), vs(2, 3)))
        with pytest.raises(InternalContradiction):
            lift_coloring(t, 2, 3)


class TestColoringObstruction:
    def test_clique_first(self):
        w = coloring_obstruction(Graph.complete(5), 4)
        assert isinstance(w, CliqueObstruction)
        assert len(w.vertices) == 5

    def test_balanced_biclique(self):
        g = multipartite((3, 3))
        w = coloring_obstruction(g, 3)
        assert isinstance(w, BicliqueObstruction)
        assert min(len(w.side_a), len(w.side_b)) == 3

    def test_star_is_an_m1_biclique(self):
        s5 = Graph.from_edges(6, [(0, v) for v in range(1, 6)])
        w = coloring_obstruction(s5, 3)
        assert isinstance(w, BicliqueObstruction)
        assert w.side_a == vs(0)
        assert w.side_b == vs(1, 2, 3, 4, 5)

    def test_even_square_has_none(self):
        assert coloring_obstruction(cycle(4), 2) is None


class TestFactorLadder:
    def test_odd_split_recognized(self):
        c = decide_kr_factor(build_ex2(9, 3, 1), 3)
        assert (c.kind, c.answer, c.provenance) == ("obstructed", False, "recognizer")
        assert isinstance(c.witness, Ex2Witness)
        assert payload_clauses(build_ex2(9, 3, 1), c.witness, 3, "factor") == []

    def test_complete_graph(self):
        # K_9 is inside the Hajnal–Szemerédi gate, so the `equitable` step
        # answers; the exact oracle, called directly, tiles it too.
        c = decide_kr_factor(Graph.complete(9), 3)
        assert (c.kind, c.answer, c.provenance) == ("factorable", True, "pipeline")
        assert [stage for stage, _ in c.timings] == ["equitable"]
        assert len(c.certificate.cliques) == 3
        assert tiling_holds(Graph.complete(9), c.certificate)
        t = kr_factor_exact(Graph.complete(9), 3)
        assert len(t.cliques) == 3 and tiling_holds(Graph.complete(9), t)

    def test_r_one_and_empty(self):
        c = decide_kr_factor(Graph.empty(30), 1)
        assert c.answer is True and len(c.certificate.cliques) == 30
        c = decide_kr_factor(Graph.empty(0), 3)
        assert c.answer is True and c.certificate.cliques == ()

    def test_divisibility_guard(self):
        with pytest.raises(PreconditionError):
            decide_kr_factor(Graph.complete(7), 3)
        with pytest.raises(PreconditionError):
            decide_kr_factor(Graph.complete(6), 0)

    def test_even_cycle_matching(self):
        c = decide_kr_factor(cycle(30), 2)
        assert (c.kind, c.answer, c.provenance) == ("factorable", True, "pipeline")
        assert tiling_holds(cycle(30), c.certificate)

    def test_star_yields_centre_barrier(self):
        star = Graph.from_edges(30, [(0, v) for v in range(1, 30)])
        c = decide_kr_factor(star, 2)
        assert (c.kind, c.answer, c.provenance) == ("obstructed", False, "pipeline")
        assert c.witness == TutteBarrier(vs(0))
        assert barrier_surplus(c.witness, star) == 28

    def test_two_odd_cliques_give_empty_barrier(self):
        g = Graph.empty(30)
        for base in (0, 15):
            for u in range(base, base + 15):
                for v in range(u + 1, base + 15):
                    g.add_edge(u, v)
        c = decide_kr_factor(g, 2)
        assert (c.kind, c.answer, c.provenance) == ("obstructed", False, "pipeline")
        assert c.witness == TutteBarrier(vs())
        assert tutte_barrier_holds(g, c.witness, 2)

    def test_every_pair_no_is_a_barrier(self, rng):
        # Small inputs too: r = 2 never reaches the oracle or the recognizers.
        seen = 0
        for _ in range(60):
            g = random_graph(rng, 2 * rng.randrange(1, 9), rng.choice([0.1, 0.25, 0.4]))
            c = decide_kr_factor(g, 2)
            assert c.provenance == "pipeline"
            if c.answer is False:
                seen += 1
                assert c.kind == "obstructed" and isinstance(c.witness, TutteBarrier)
                assert verify_certificate(g, c, "factor", 2) == []
        assert seen

    def test_dense_even_graph_matches(self):
        rng = random.Random(3)
        g = random_graph(rng, 26, 0.85)
        c = decide_kr_factor(g, 2)
        assert (c.kind, c.answer, c.provenance) == ("factorable", True, "pipeline")


class TestFactorPipelines:
    def test_dense_inputs_end_at_the_equitable_step(self):
        # Outside the Hajnal–Szemerédi gate with no sparse n/r-set to peel,
        # a dense input past the cap is tiled by procedure P at any degree.
        for g in (dense60(), thinned(random_gnp(240, 0.9, 0), 0, 159)):
            c = decide_kr_factor(g, 3)
            assert (c.kind, c.answer, c.provenance) == ("factorable", True, "pipeline")
            assert tiling_holds(g, c.certificate)
            assert [stage for stage, _ in c.timings] == [
                "recognize", "pipeline", "equitable",
            ]
            assert c.notes == ("structured route: no sparse parts peeled",)

    def test_medium_dense_falls_back_honestly(self):
        # No sparse part peels at n=30, so the decider lands on the exact
        # search and says so.  Vertex 0 at degree 19 < 20 closes the
        # Hajnal–Szemerédi gate.
        g = thinned(random_graph(random.Random(0xE0A1), 30, 0.9), 0, 19)
        c = decide_kr_factor(g, 3)
        assert (c.kind, c.answer, c.provenance) == ("factorable", True, "oracle")
        assert c.notes == ("structured route: no sparse parts peeled",)

    def test_odd_split_families_at_36(self):
        for (n, r, s) in ((36, 3, 1), (36, 3, 3), (36, 4, 1)):
            c = decide_kr_factor(build_ex2(n, r, s), r)
            assert (c.kind, c.answer, c.provenance) == ("obstructed", False, "recognizer")

    def test_perturbed_split_through_pipeline(self):
        g = build_ex2(36, 3, 1)
        g.add_edge(24, 25)
        c = decide_kr_factor(g, 3, cfg=DESK36)
        assert (c.kind, c.answer, c.provenance) == ("factorable", True, "pipeline")
        assert tiling_holds(g, c.certificate)

    def test_leftover_block_matched_once(self, monkeypatch):
        # Record the vertex mask every maximum matching runs on, wrapping the
        # matching where its callers look it up.
        n, m = 240, 80
        g = build_ex2(n, 3, 1)
        g.add_edge(2 * m, 2 * m + 1)
        matched = []

        def tracked_matching(h, inside=None):
            if h is g:
                matched.append(inside)
            return maximum_matching(h, inside)

        for mod in ("matching", "tiling"):
            monkeypatch.setattr(f"equitiler.{mod}.maximum_matching", tracked_matching)
        c = decide_kr_factor(g, 3)
        assert (c.kind, c.answer, c.provenance) == ("factorable", True, "pipeline")
        assert tiling_holds(g, c.certificate)
        # The leftover block lies inside the clique pair, vertices 0..2m-1.
        leftover = [mask for mask in matched if mask and not mask >> (2 * m)]
        assert leftover
        assert len(leftover) == len(set(leftover))

    def assert_pipeline_factor(self, g):
        c = decide_kr_factor(g, 3)
        assert (c.kind, c.answer, c.provenance) == ("factorable", True, "pipeline")
        assert tiling_holds(g, c.certificate)
        return c

    # Each of the next five inputs reaches one structured-route path by name.
    # The scoreboard's `cut` family (tests/test_regime.py) also runs the
    # first three; no other test and no benchmark case runs the last two.

    def test_cut_endpoint_gets_a_leftover_block_seed(self):
        # The peel takes the cut vertex 5 into the part and leaves 321, an
        # endpoint of the A edge, in B.  321 is not excellent toward the part,
        # but not thin toward it at beta/2 either, so refinement builds no
        # rescue edge; the non-excellent cover plants the leftover-block seed
        # {0, 321}, which grows into {0, 320, 321}.
        self.assert_pipeline_factor(cut_split(480))

    def test_rescue_matchings_are_built(self):
        # From n = 750 that endpoint, 501, is thin toward the part at beta/2
        # and gets its A edge as a rescue edge (partition._rescue_matchings).
        self.assert_pipeline_factor(cut_split(750))

    def test_thin_low_vertex_gets_a_pair_seed(self):
        # Without the edge 0-5, vertex 5 is thin toward the part and of low
        # degree: the thin cover packs it into a small clique and pairs that
        # with a companion clique of the part (tiling._companions).
        self.assert_pipeline_factor(cut_split(480, join_b0=False))

    def test_singleton_leftover_block(self):
        # K_{20,20} joined to K_20, less one edge, so the Hajnal–Szemerédi
        # gate fails: both sides peel off as parts and the leftover K_20 is
        # tiled by its single vertices (d = 1).
        c = self.assert_pipeline_factor(split_plus_singletons())
        assert [stage for stage, _ in c.timings] == ["recognize", "pipeline"]

    def test_part_vertex_miss_falls_to_the_equitable_step(self):
        # Part vertex 92 loses its edge to 71 and is not excellent, so the
        # non-excellent cover misses with a note, and procedure P on the
        # complement tiles the input.
        g = build_ex2(120, 3, 5)
        g.add_edge(92, 116)
        c = self.assert_pipeline_factor(without_edge(g, 71, 92))
        assert [stage for stage, _ in c.timings] == ["recognize", "pipeline", "equitable"]
        assert c.notes == ("structured route: vertex 92: non-excellent inside part 0",)

    def test_weakened_split_stays_negative(self):
        g = without_edge(build_ex2(36, 3, 1), 5, 6)
        c = decide_kr_factor(g, 3)
        assert (c.kind, c.answer, c.provenance) == ("exact", False, "oracle")

    def test_tripartite_resolves_by_fallback(self):
        # All three parts peel, so no leftover block is left to tile: the
        # route misses, a PreconditionError that leaves a note and falls
        # through.  The structured route never answers NO.
        c = decide_kr_factor(tripartite(9), 3)
        assert (c.kind, c.answer, c.provenance) == ("factorable", True, "oracle")
        assert tiling_holds(tripartite(9), c.certificate)
        assert c.notes == ("structured route: 3 parts against r=3 leave no leftover block",)

    def test_structured_runs_before_absorption(self):
        # An extremal input is decided by the structured route, with no
        # miss note: no absorption step runs before or after it.
        c = decide_kr_factor(ex2_plus(240, 160, 161), 3)
        assert (c.kind, c.provenance) == ("factorable", "pipeline")
        assert [stage for stage, _ in c.timings] == ["recognize", "pipeline"]
        assert c.notes == ()

    def test_structured_contradiction_propagates(self, monkeypatch):
        # A contradiction is a bug, not a miss: it must not become a note.
        def planted(g, blocks):
            raise InternalContradiction("planted")

        monkeypatch.setattr(decide_module, "multipartite_factor", planted)
        with pytest.raises(InternalContradiction, match="planted"):
            decide_kr_factor(split_plus_singletons(), 3)

    def test_failed_final_verification_propagates(self, monkeypatch):
        # The seed tiling and the multipartite factor are disjoint and cover
        # V by construction, so a final tiling that fails its check is a bug.
        monkeypatch.setattr(
            decide_module, "multipartite_factor", lambda g, blocks: Tiling(3, ())
        )
        with pytest.raises(InternalContradiction, match="structured route answer failed verification"):
            decide_kr_factor(split_plus_singletons(), 3)

    def test_non_clique_leftover_pair_propagates(self, monkeypatch):
        # Neither the contraction nor the multipartite finish re-checks that
        # the leftover block's pairs are edges, so a repair that hands over
        # a non-edge is caught once, on the final tiling, as a bug and not
        # as a miss note.  In ex2+B0B1 at n = 240 the repair pairs 0-1 (the
        # added B0-B1 edge) and 2-3; re-pairing them as 0-2 and 1-3 keeps the
        # block covered and leaves one non-edge, which every part vertex
        # still joins.
        real = decide_module.parity_repair

        def planted(g, q, tiling):
            seeds, ts = real(g, q, tiling)
            pairs = list(ts.cliques)
            assert pairs[:2] == [vs(0, 1), vs(2, 3)]
            assert not g.has_edge(0, 2) and g.has_edge(1, 3)
            pairs[:2] = [vs(0, 2), vs(1, 3)]
            return seeds, Tiling(2, tuple(pairs))

        monkeypatch.setattr(decide_module, "parity_repair", planted)
        with pytest.raises(InternalContradiction, match="structured route answer failed verification"):
            decide_kr_factor(ex2_plus(240, 0, 1), 3)

    def test_midrange_density_is_unresolved(self):
        # At p = 0.5 procedure P tiles this draw; at p = 0.3 its repair
        # finds no solo move.
        rng = random.Random(0xE0A1)
        g = random_graph(rng, 60, 0.3)
        c = decide_kr_factor(g, 3)
        assert (c.kind, c.answer, c.verified) == ("unresolved", None, False)
        assert c.notes == (
            "structured route: no sparse parts peeled",
            "equitable route: procedure P found no solo move: 1 classes reach a hole, 19 do not",
            "instance beyond the exact fallback cap",
        )


def ex2_plus(n, u, v):
    g = build_ex2(n, 3, 1)
    g.add_edge(u, v)
    return g


class TestStructuredCertificates:
    """Certificate JSON, timings dropped, of three near-extremal inputs that
    take the structured route, at n = 240 and 480, pinned by hash: a speedup
    that changes a tiling or a note fails here.  At n = 480 the layers of
    the multipartite finish hold 160 units."""

    # m = n/3: vertex 0 is B0, 1..2m-1 is B1, 2m..3m-1 is A.
    CASES = {
        "ex2+A": (
            lambda: decide_kr_factor(ex2_plus(240, 160, 161), 3),
            "5150d8789bd49bbf3c22f2b8d47a25f63263f672d3c3395cf41dc6c74a714cda",
        ),
        "ex2+B0B1": (
            lambda: decide_kr_factor(ex2_plus(240, 0, 1), 3),
            "f2251274dbd4c043f11632c72e911b7f92689e9d9d9242c8aed8fa1af99a0c82",
        ),
        "co(ex2+A)": (
            lambda: decide_equitable(complement(ex2_plus(240, 160, 161)), 80),
            "944672ea37fec22ae6a2a215ff85b471c04fe088165a0e31924721b314aa885e",
        ),
        "ex2+A/n=480": (
            lambda: decide_kr_factor(ex2_plus(480, 320, 321), 3),
            "4a30556f04131a35abf152f83e750a10840fb8dc4be65c3edab0ad69612815dd",
        ),
        "ex2+B0B1/n=480": (
            lambda: decide_kr_factor(ex2_plus(480, 0, 1), 3),
            "73f62629668681e4a9014f25a4d6e4b1166e1595364dc2a01fc2f8f5cb766f6e",
        ),
        "co(ex2+A)/n=480": (
            lambda: decide_equitable(complement(ex2_plus(480, 320, 321)), 160),
            "79275617f8df0d86daa17122d1c53e3afee625338b0ca1f37f6843cd32e6047a",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_certificate_hash(self, name):
        decide, want = self.CASES[name]
        cert = decide()
        assert (cert.provenance, cert.verified) == ("pipeline", True)
        doc = certificate_to_json(cert)
        del doc["timings"]
        text = json.dumps(doc, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == want


class TestDenseCertificates:
    """Certificate JSON, timings dropped, of two dense inputs, pinned by hash
    as in TestStructuredCertificates.  Both lie inside the Hajnal–Szemerédi
    gate, so the decision is the `equitable` step's tiling."""

    CASES = {
        "gate/gnp(n=240,p=0.9)": (
            lambda: decide_kr_factor(random_gnp(240, 0.9, 0), 3),
            "0e54076a4411203829874a9a9f94d96fbb6dedd8ff87bf290a21e84688838c3f",
        ),
        "gate/ore(n=240,a=0)": (
            lambda: decide_kr_factor(random_ore(240, 3, 0, 0), 3),
            "c0552a2adbb0612351609138b12499eca4b5586f00cd16ef1ab77f65bf9a4838",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_certificate_hash(self, name):
        decide, want = self.CASES[name]
        cert = decide()
        assert (cert.kind, cert.provenance, cert.verified) == ("factorable", "pipeline", True)
        doc = certificate_to_json(cert)
        del doc["timings"]
        text = json.dumps(doc, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == want


def edited_ex2(n, s, add=(), drop=()):
    g = build_ex2(n, 3, s)
    for u, v in add:
        g.add_edge(u, v)
    for u, v in drop:
        g = without_edge(g, u, v)
    return g


class TestMissNotes:
    """The full notes of inputs on which a route misses: each miss reaches
    the decision as one PreconditionError, whose text is the note.  Past
    the cap procedure P tiles the three inputs at n = 60 and 120 that the
    structured route misses."""

    CASES = {
        "tripartite-9": (
            lambda: tripartite(9),
            ("structured route: 3 parts against r=3 leave no leftover block",),
        ),
        "parity-repair": (
            lambda: edited_ex2(36, 1, drop=[(5, 6)]),
            (
                "structured route: parity repair gave out: no reachable tiling"
                " leaves a matchable leftover block",
            ),
        ),
        "part-vertex": (
            lambda: edited_ex2(120, 1, add=[(0, 24), (110, 106)], drop=[(10, 95)]),
            (
                "structured route: vertex 95: non-excellent inside part 0",
            ),
        ),
        "refinement-stalled": (
            lambda: edited_ex2(120, 5, add=[(114, 108), (103, 110)]),
            (
                "structured route: refinement stalled: (A3) part 1 has 4 crowded vertices",
            ),
        ),
        "no-sparse-parts": (
            lambda: random_ore(60, 3, Fraction(1, 50), 0),
            (
                "structured route: no sparse parts peeled",
            ),
        ),
        "tripartite-12": (
            lambda: tripartite(12),
            ("structured route: 3 parts against r=3 leave no leftover block",),
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_notes(self, name):
        build, want = self.CASES[name]
        assert decide_kr_factor(build(), 3).notes == want


class TestRefutedSearches:
    """Two dense inputs in the exact regime, at most 64 vertices, with no
    n/r + 1 independent set and no sparse n/r-set: a greedy clique cover
    refutes the recognizer's search and both of peel's, so no
    branch-and-bound search runs, and the decision keeps its stages and
    its note."""

    CASES = {
        "ore-60": (lambda: random_ore(60, 3, Fraction(1, 50), 0), 3),
        "gnp-64": (lambda: random_gnp(64, 0.85, 2), 4),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_no_clique_search(self, name, monkeypatch):
        build, r = self.CASES[name]
        g = build()
        calls = []
        search = graphs_module.max_clique

        def counted(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(graphs_module, "max_clique", counted)
        c = decide_kr_factor(g, r)
        assert calls == []
        assert [stage for stage, _ in c.timings] == ["recognize", "pipeline", "equitable"]
        assert c.notes == ("structured route: no sparse parts peeled",)
        assert (c.kind, c.provenance) == ("factorable", "pipeline")
        assert verify_certificate(g, c, "factor", r) == []


class TestEquitable:
    def test_clique_obstruction(self):
        c = decide_equitable(Graph.complete(4), 3)
        assert (c.kind, c.answer) == ("obstructed", False)
        assert isinstance(c.witness, CliqueObstruction)
        assert clique_holds(Graph.complete(4), c.witness, 3)

    def test_balanced_biclique_obstruction(self):
        g = multipartite((3, 3))
        c = decide_equitable(g, 3)
        assert (c.kind, c.answer) == ("obstructed", False)
        assert isinstance(c.witness, BicliqueObstruction)
        assert (c.witness.side_a, c.witness.side_b) == (vs(0, 1, 2), vs(3, 4, 5))

    def test_five_cycle(self):
        c = decide_equitable(cycle(5), 3)
        assert (c.kind, c.answer) == ("colorable", True)
        assert sorted(len(cl) for cl in c.certificate.classes) == [1, 2, 2]
        assert payload_clauses(cycle(5), c.certificate, 3, "coloring") == []

    def test_padded_seven_cycle(self):
        c = decide_equitable(cycle(7), 3)
        assert c.answer is True
        assert sorted(len(cl) for cl in c.certificate.classes) == [2, 2, 3]

    def test_more_colors_than_vertices(self):
        c = decide_equitable(Graph.complete(5), 7)
        assert c.answer is True
        assert payload_clauses(Graph.complete(5), c.certificate, 7, "coloring") == []

    def test_k_must_be_positive(self):
        with pytest.raises(PreconditionError):
            decide_equitable(Graph.complete(4), 0)

    def test_degree_bound_reported(self):
        c = decide_equitable(cycle(5), 3)
        assert any("holds" in note for note in c.notes)
        c = decide_equitable(Graph.complete(5), 2)
        assert any("fails at" in note for note in c.notes)

    def test_split_complement_witness(self):
        # The complement of the 9-vertex odd split: the recognizer settles the
        # factor side, but its clique pair is a K_{1,5} on 6 of the 9
        # vertices, which proves nothing, so the NO goes out without a witness.
        g = complement(build_ex2(9, 3, 1))
        c = decide_equitable(g, 3)
        assert (c.kind, c.answer, c.provenance) == ("exact", False, "recognizer")
        assert c.witness is None
        assert not biclique_holds(g, BicliqueObstruction(vs(0), vs(1, 2, 3, 4, 5)), 3)

    def test_odd_balanced_biclique_decides_at_once(self):
        # K_{23,23} at k = 23 is the Chen–Lih–Wu exception: every edge sums
        # to 2k and no equitable colouring exists.  Exact search ran for
        # minutes on it; the obstruction scan answers from the edge bound.
        g = multipartite((23, 23))
        t0 = time.perf_counter()
        c = decide_equitable(g, 23)
        assert time.perf_counter() - t0 <= 0.1
        assert (c.kind, c.answer, c.provenance) == ("obstructed", False, "recognizer")
        assert c.witness == BicliqueObstruction(vs(*range(23)), vs(*range(23, 46)))

    def test_every_odd_balanced_biclique_is_obstructed(self):
        for a in range(3, 102, 2):
            g = multipartite((a, a))
            c = decide_equitable(g, a)
            assert (c.kind, c.provenance) == ("obstructed", "recognizer"), a
            assert verify_certificate(g, c, "coloring", a) == [], a

    def test_obstruction_scan_matches_the_hunt(self):
        # Under the edge bound the scan's witness is the one
        # `coloring_obstruction` hunts for, and at k >= 3 every NO has one.
        for n in range(1, 6):
            for _, g in iter_labeled_graphs_inplace(n):
                for k in range(1, n + 1):
                    if not ore_edge_bound(g, k)[0]:
                        continue
                    c = decide_module._paper_obstruction(g, k)
                    assert (None if c is None else c.witness) == coloring_obstruction(g, k), (g.adj, k)
                    if c is None and k >= 3:
                        assert equitable_coloring_exact(g, k) is not None, (g.adj, k)

    def test_no_hunt_under_the_edge_bound(self, monkeypatch):
        # Under the bound the scan above is complete, so a NO it did not
        # settle hunts for no witness: the complement of the odd split at
        # n = 36 is the recognizer's NO, with the bound holding.
        def refuse(g, k):
            raise AssertionError("witness hunt under the edge bound")

        monkeypatch.setattr(decide_module, "coloring_obstruction", refuse)
        c = decide_equitable(complement(build_ex2(36, 3, 1)), 12)
        assert (c.kind, c.answer, c.provenance) == ("exact", False, "recognizer")
        assert c.notes == ("edge degree-sum bound holds", "no subgraph witness surfaced")
        # The five-cycle at k = 2 is the exact search's NO under the bound,
        # after procedure P's miss.
        c = decide_equitable(cycle(5), 2)
        assert (c.kind, c.answer, c.provenance) == ("exact", False, "oracle")
        assert c.notes == (
            "edge degree-sum bound holds",
            "equitable route: vertex 4 has a neighbour in each of the 2 classes",
            "no subgraph witness surfaced",
        )

    def test_even_or_unbalanced_bicliques_pass_the_scan(self):
        # K_{4,4} at k = 4 colours by pairs; K_{2,6} at k = 4 has an even
        # side; K_{3,5} at k = 4 is the paper's odd K_{m,2k-m}, its smaller
        # side first wherever vertex 0 lies.
        assert decide_equitable(multipartite((4, 4)), 4).answer is True
        assert decide_equitable(multipartite((2, 6)), 4).answer is True
        c = decide_equitable(multipartite((3, 5)), 4)
        assert (c.kind, c.provenance) == ("obstructed", "recognizer")
        assert c.witness == BicliqueObstruction(vs(0, 1, 2), vs(3, 4, 5, 6, 7))
        c = decide_equitable(multipartite((5, 3)), 4)
        assert c.witness == BicliqueObstruction(vs(5, 6, 7), vs(0, 1, 2, 3, 4))

    def test_random_agreement(self):
        rng = random.Random(5)
        for _ in range(150):
            n = rng.randint(2, 12)
            g = random_graph(rng, n, rng.random())
            k = rng.randint(1, n)
            c = decide_equitable(g, k)
            assert c.answer is (equitable_coloring_exact(g, k) is not None)
            if c.answer:
                assert payload_clauses(g, c.certificate, k, "coloring") == []

    def test_between_caps_colors_at_source_scale(self):
        # n=19, k=7 pads to 21 vertices, and procedure P misses.  The
        # wrapper must not hand this to the 21-vertex clique search; the
        # source-scale colouring oracle settles it right after the miss.
        g = random_gnp(19, 0.5, 96)
        c = decide_equitable(g, 7)
        assert (c.kind, c.provenance) == ("colorable", "oracle")
        assert [stage for stage, _ in c.timings] == ["equitable", "oracle"]
        assert payload_clauses(g, c.certificate, 7, "coloring") == []

        c = decide_equitable(Graph.complete(26), 5)
        assert (c.kind, c.answer, c.provenance) == ("obstructed", False, "oracle")
        assert isinstance(c.witness, CliqueObstruction)
        assert clique_holds(Graph.complete(26), c.witness, 5)

    def test_failed_oracle_colouring_raises(self, monkeypatch):
        # The exact colouring is checked by a raise, not an assert, so that
        # `python -O` cannot let an unverified colouring out as a YES.
        monkeypatch.setattr(
            decide_module,
            "equitable_coloring_exact",
            lambda g, k: Coloring((vs(0, 1), vs(2), vs())),
        )
        with pytest.raises(InternalContradiction, match="oracle route answer failed verification"):
            decide_equitable(Graph.complete(3), 3)

    @pytest.mark.parametrize(
        "p, seed, ceiling",
        [
            # 2,328 nodes.
            (0.4348700725361976, 1675, 2500),
            # 30,007 nodes.
            (0.41629179691869356, 2587, 32000),
        ],
    )
    def test_delegate_colours_within_its_node_count(self, p, seed, ceiling):
        # n = 17 pads to 24 vertices at k = 8.  The factor search on the
        # padded complement is the colouring search on its complement.  A
        # clique-by-clique factor search of the padded complement took 2.3 s
        # and 1.5 s on these inputs.
        padded, _ = pad_to_divisible(random_gnp(17, p, seed), 8)
        h = complement(padded)
        module = vars(oracle_module)
        nodes = 0

        def count(frame, event, arg):
            nonlocal nodes
            if event == "call" and frame.f_code.co_name == "place" and frame.f_globals is module:
                nodes += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            t = kr_factor_exact(h, 3)
        finally:
            sys.setprofile(previous)
        assert t is not None and tiling_holds(h, t)
        assert 0 < nodes <= ceiling

    def test_unresolved_exit(self):
        # Three disjoint K_17 at k = 17 have Δ(G) = 16 < k: inside the
        # delegate's Hajnal–Szemerédi gate, its `equitable` step colours
        # them.  One edge between two of the cliques makes Δ(G) = k, outside
        # the gate, and procedure P still colours them.  The sparse draw also has Δ(G) = k; n = 60 is
        # past the exact fallback cap and every route misses, so
        # decide_equitable gives up.
        g = disjoint_cliques(3, 17)
        c = decide_equitable(g, 17)
        assert (c.kind, c.answer, c.provenance) == ("colorable", True, "pipeline")
        assert verify_certificate(g, c, "coloring", 17) == []
        g = bridged_cliques()
        c = decide_equitable(g, 17)
        assert (c.kind, c.answer, c.provenance) == ("colorable", True, "pipeline")
        assert verify_certificate(g, c, "coloring", 17) == []
        g = sparse60()
        c = decide_equitable(g, 3)
        assert (c.kind, c.answer) == ("unresolved", None)
        assert verify_certificate(g, c, "coloring", 3) == []


class TestStepTables:
    """One input per exit of the two decision tables, so every step is
    reached, with the answer it gives and the exact stages it times."""

    CASES = {
        # Factor table.
        "trivial": (lambda: Graph.empty(30), "factor", 1, None,
                    ("factorable", "oracle"), ["oracle"]),
        "matching": (lambda: cycle(30), "factor", 2, None,
                     ("factorable", "pipeline"), ["matching"]),
        "recognizer/odd-split": (lambda: build_ex2(36, 3, 1), "factor", 3, None,
                                 ("obstructed", "recognizer"), ["recognize"]),
        # The recognizer answers before any search, at every n, once the
        # Hajnal–Szemerédi gate has failed at its first short row.
        "recognizer/independent-set": (lambda: build_ex1_like(12, 3), "factor", 3, None,
                                       ("obstructed", "recognizer"), ["recognize"]),
        # Every row of K_{9,9,9} has n - n/3 bits: inside the gate only the
        # `equitable` step runs.
        "gate": (lambda: multipartite((9, 9, 9)), "factor", 3, None,
                 ("factorable", "pipeline"), ["equitable"]),
        "equitable/dense": (dense60, "factor", 3, None, ("factorable", "pipeline"),
                            ["recognize", "pipeline", "equitable"]),
        "structured": (split_plus_singletons, "factor", 3, None, ("factorable", "pipeline"),
                       ["recognize", "pipeline"]),
        "fallback-oracle": (lambda: tripartite(9), "factor", 3, None,
                            ("factorable", "oracle"), ["recognize", "pipeline", "oracle"]),
        # Past the cap, procedure P on the complement at any degree.
        "equitable/factor": (lambda: random_graph(random.Random(0xE0A1), 60, 0.5), "factor", 3,
                             None, ("factorable", "pipeline"),
                             ["recognize", "pipeline", "equitable"]),
        "unresolved": (lambda: random_graph(random.Random(0xE0A1), 60, 0.3), "factor", 3, None,
                       ("unresolved", "pipeline"), ["recognize", "pipeline", "equitable"]),
        # Colouring table: under the edge bound the untimed obstruction scan
        # answers first; up to the cap procedure P, then the oracle, colours
        # G itself; beyond it the delegate reports the factor side's stages.
        "obstruction/clique": (lambda: Graph.complete(4), "coloring", 3, None,
                               ("obstructed", "recognizer"), []),
        "obstruction/biclique": (lambda: multipartite((23, 23)), "coloring", 23, None,
                                 ("obstructed", "recognizer"), []),
        "k>=n": (lambda: Graph.complete(5), "coloring", 7, None,
                 ("colorable", "oracle"), ["oracle"]),
        "equitable": (lambda: random_gnp(19, 0.5, 414), "coloring", 9, None,
                      ("colorable", "pipeline"), ["equitable"]),
        "between-the-caps": (lambda: random_gnp(19, 0.5, 96), "coloring", 7, None,
                             ("colorable", "oracle"), ["equitable", "oracle"]),
        # The exact colouring search would take about 0.65 s to this NO.
        "between-the-caps/odd-split": (lambda: complement(build_ex2(28, 4, 3)), "coloring", 7,
                                       None, ("exact", "recognizer"), ["recognize"]),
        # K_5 at k = 3 breaks the edge bound, so the oracle's NO hunts for
        # its K_4.
        "oracle/hunt": (lambda: Graph.complete(5), "coloring", 3, None,
                        ("obstructed", "oracle"), ["equitable", "oracle"]),
        "delegate": (lambda: cycle(50), "coloring", 25, None,
                     ("colorable", "pipeline"), ["matching"]),
        "delegate/odd-split": (lambda: complement(build_ex2(54, 3, 1)), "coloring", 18, None,
                               ("exact", "recognizer"), ["recognize"]),
        # Δ(G) = 16 < k: inside the delegate's Hajnal–Szemerédi gate, its
        # `equitable` step colours the complement of its complement.
        "delegate/gate": (lambda: disjoint_cliques(3, 17), "coloring", 17, None,
                          ("colorable", "pipeline"), ["equitable"]),
        # Δ(G) = k = 17: the delegate's factor table tiles the complement
        # of its complement with procedure P, at the end of its table.
        "delegate/equitable": (bridged_cliques, "coloring", 17, None,
                               ("colorable", "pipeline"),
                               ["recognize", "pipeline", "equitable"]),
        "delegate/unresolved": (sparse60, "coloring", 3, None,
                                ("unresolved", "pipeline"),
                                ["recognize", "pipeline", "equitable"]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exit(self, name):
        build, mode, value, cfg, want, stages = self.CASES[name]
        g = build()
        decide = decide_kr_factor if mode == "factor" else decide_equitable
        c = decide(g, value, cfg)
        assert (c.kind, c.provenance) == want
        assert [stage for stage, _ in c.timings] == stages
        assert verify_certificate(g, c, mode, value) == []

    def test_colouring_delegates_only_beyond_the_cap(self, monkeypatch):
        class Delegated(Exception):
            pass

        def delegated(*args, **kwargs):
            raise Delegated

        monkeypatch.setattr(decide_module, "decide_kr_factor", delegated)
        for n in range(1, 6):
            for _, g in iter_labeled_graphs_inplace(n):
                for k in range(1, n + 1):
                    decide_equitable(g, k)
        with pytest.raises(Delegated):
            decide_equitable(cycle(49), 3)

    def test_unverified_recognizer_witness_raises(self, monkeypatch):
        # Every answer is checked where the table returns it: a recognizer
        # witness that is not independent is a bug, not a miss that the
        # later steps paper over.  The 6-cycle fails the Hajnal–Szemerédi
        # gate at vertex 0, so the recognizer runs.
        monkeypatch.setattr(
            decide_module, "recognize_extremal", lambda g, r: Ex1Witness(VertexSet([0, 1, 2]))
        )
        with pytest.raises(
            InternalContradiction, match="recognizer route answer failed verification"
        ):
            decide_kr_factor(cycle(6), 3)

    def test_unverified_delegated_witness_raises(self, monkeypatch):
        # An independent set of the padded complement carries over as a
        # clique of G; one that is not a clique of G is not an exact NO.
        bogus = DecisionCertificate(
            "obstructed", False, None, Ex1Witness(VertexSet(range(6))), "recognizer", True
        )
        monkeypatch.setattr(decide_module, "decide_kr_factor", lambda *args: bogus)
        with pytest.raises(
            InternalContradiction, match="delegate route answer failed verification"
        ):
            decide_equitable(Graph.empty(50), 5)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_no_odd_split_complements_a_padded_graph(self, r):
        # The colouring recognizer runs only when k divides n.  A padded
        # graph's complement has q < k = m padding vertices, each missing
        # exactly the others; no vertex set of an odd split is like that.
        for m in range(1, 7):
            for s in range(1, m + 1, 2):
                h = build_ex2(r * m, r, s)
                for v in range(h.n):
                    pad = h.full_mask & ~h.adj[v]
                    assert pad.bit_count() >= m or any(
                        h.full_mask & ~h.adj[u] != pad for u in VertexSet(pad)
                    )
