"""Certificate JSON codec and the independent re-verification clauses."""

import json
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equitiler import DecisionCertificate, PreconditionError
from equitiler.certificates import (
    SCHEMA,
    _independent_cover,
    biclique_holds,
    certificate_from_json,
    certificate_to_json,
    clique_holds,
    clique_tiles_cover,
    coloring_holds,
    independent_set_holds,
    odd_split_holds,
    payload_clauses,
    tiling_holds,
    tutte_barrier_holds,
    verify_certificate,
    vertex_sets_from_json,
)
from equitiler.decide import decide_equitable, decide_kr_factor
from equitiler.extremal import (
    BicliqueObstruction,
    CliqueObstruction,
    Ex1Witness,
    Ex2Witness,
    build_ex1_like,
    build_ex2,
    build_obstruction,
    ex2_witness,
)
from equitiler.generators import random_gnp
from equitiler.graphs import Graph, VertexSet, complement
from equitiler.matching import TutteBarrier
from equitiler.oracle import Coloring, Tiling, equitable_coloring_exact

from _brute import (
    adj_sets,
    brute_equitable_colorable,
    brute_kr_factor_exists,
    brute_odd_components,
    is_clique_set,
    is_independent_set,
    seed_clique_tiles_cover,
    seed_independent_cover,
)

def ex2_plus(n, u, v):
    g = build_ex2(n, 3, 1)
    g.add_edge(u, v)
    return g


def vs(*vals):
    return VertexSet(vals)


def cycle(n):
    adj = [0] * n
    for i in range(n):
        j = (i + 1) % n
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, adj)


def two_triangles():
    adj = [0] * 6
    for block in (range(3), range(3, 6)):
        for u in block:
            for v in block:
                if u != v:
                    adj[u] |= 1 << v
    return Graph(6, adj)


class TestRoundtrip:
    def roundtrip(self, cert):
        text = json.dumps(certificate_to_json(cert), sort_keys=True)
        return certificate_from_json(json.loads(text))

    def test_factorable(self):
        cert = DecisionCertificate(
            kind="factorable",
            answer=True,
            certificate=Tiling(3, (vs(0, 1, 2), vs(3, 4, 5))),
            witness=None,
            provenance="oracle",
            verified=True,
            timings=(("oracle", 0.25),),
        )
        assert self.roundtrip(cert) == cert

    def test_colorable_with_notes(self):
        cert = DecisionCertificate(
            kind="colorable",
            answer=True,
            certificate=Coloring((vs(0, 3), vs(1, 4), vs(2, 5))),
            witness=None,
            provenance="pipeline",
            verified=True,
            notes=("edge degree-sum bound holds",),
        )
        back = self.roundtrip(cert)
        assert back == cert
        assert back.notes == cert.notes

    def test_obstructed(self):
        cert = DecisionCertificate(
            kind="obstructed",
            answer=False,
            certificate=None,
            witness=CliqueObstruction(vs(0, 1, 2, 3)),
            provenance="recognizer",
            verified=True,
        )
        assert self.roundtrip(cert) == cert

    def test_exact_negative(self):
        cert = DecisionCertificate(
            kind="exact",
            answer=False,
            certificate=None,
            witness=None,
            provenance="oracle",
            verified=False,
            notes=("maximum matching covers 28 of 30 vertices",),
        )
        assert self.roundtrip(cert) == cert

    def test_unresolved(self):
        cert = DecisionCertificate(
            kind="unresolved",
            answer=None,
            certificate=None,
            witness=None,
            provenance="pipeline",
            verified=False,
        )
        assert self.roundtrip(cert) == cert


class TestPayloadCodecs:
    def cert(self, obj):
        return DecisionCertificate(
            kind="obstructed",
            answer=False,
            certificate=None,
            witness=obj,
            provenance="pipeline",
            verified=True,
        )

    def roundtrip_payload(self, obj):
        return certificate_from_json(certificate_to_json(self.cert(obj))).witness

    def test_independent_set(self):
        w = Ex1Witness(vs(0, 1, 2, 3))
        assert self.roundtrip_payload(w) == w

    def test_odd_split(self):
        w = ex2_witness(9, 3, 1)
        assert self.roundtrip_payload(w) == w

    def test_biclique(self):
        w = BicliqueObstruction(vs(0, 1, 2), vs(3, 4, 5))
        assert self.roundtrip_payload(w) == w

    def test_tutte_barrier(self):
        w = TutteBarrier(vs(0, 3))
        assert self.roundtrip_payload(w) == w
        assert certificate_to_json(self.cert(w))["witness"] == {
            "type": "tutte-barrier", "vertices": [0, 3],
        }

    # The two r = 2 shapes the Tutte barrier replaced no longer decode.
    def test_near_independent_set(self):
        doc = certificate_to_json(self.cert(TutteBarrier(vs())))
        doc["witness"] = {"type": "near-independent-set", "vertices": [0, 2], "exposed_pair": [0, 2]}
        with pytest.raises(PreconditionError, match="unknown payload type"):
            certificate_from_json(doc)

    def test_two_odd_components(self):
        doc = certificate_to_json(self.cert(TutteBarrier(vs())))
        doc["witness"] = {
            "type": "two-odd-components", "sides": [[0, 1, 2], [3, 4, 5]],
            "clique_sides": [True, True],
        }
        with pytest.raises(PreconditionError, match="unknown payload type"):
            certificate_from_json(doc)


class TestStrictDecode:
    def base_doc(self):
        return {
            "schema": SCHEMA,
            "kind": "unresolved",
            "answer": None,
            "certificate": None,
            "witness": None,
            "provenance": "pipeline",
            "verified": False,
            "notes": [],
            "timings": {},
        }

    def test_schema_pinned(self):
        doc = self.base_doc()
        doc["schema"] = "equitiler.certificate/2"
        with pytest.raises(PreconditionError, match="schema"):
            certificate_from_json(doc)

    def test_kind_whitelisted(self):
        doc = self.base_doc()
        doc["kind"] = "maybe"
        with pytest.raises(PreconditionError, match="kind"):
            certificate_from_json(doc)

    def test_answer_not_stringly(self):
        doc = self.base_doc()
        doc["answer"] = "yes"
        with pytest.raises(PreconditionError, match="answer"):
            certificate_from_json(doc)

    def test_timings_must_be_object(self):
        doc = self.base_doc()
        doc["timings"] = [["oracle", 0.1]]
        with pytest.raises(PreconditionError, match="timings"):
            certificate_from_json(doc)

    def test_absent_timings_tolerated(self):
        doc = self.base_doc()
        del doc["timings"]
        assert certificate_from_json(doc).timings == ()

    def test_payload_needs_type_tag(self):
        doc = self.base_doc()
        doc["witness"] = {"vertices": [0, 1]}
        with pytest.raises(PreconditionError, match="type tag"):
            certificate_from_json(doc)

    def test_unknown_payload_type(self):
        doc = self.base_doc()
        doc["witness"] = {"type": "hypergraph"}
        with pytest.raises(PreconditionError, match="unknown payload"):
            certificate_from_json(doc)

    def test_repeated_vertex_rejected(self):
        doc = self.base_doc()
        doc["witness"] = {"type": "clique", "vertices": [0, 1, 1]}
        with pytest.raises(PreconditionError, match="repeated"):
            certificate_from_json(doc)

    def test_negative_vertex_rejected(self):
        with pytest.raises(PreconditionError, match="vertex list"):
            vertex_sets_from_json([[0, -2]])

    def test_payload_lists_only(self):
        with pytest.raises(PreconditionError, match="list of vertex lists"):
            vertex_sets_from_json({"a": [0]})


class TestVerify:
    def ok(self, g, cert, mode, value):
        assert verify_certificate(g, cert, mode, value) == []

    def test_positive_factor_passes(self):
        cert = DecisionCertificate(
            kind="factorable",
            answer=True,
            certificate=Tiling(3, (vs(0, 1, 2), vs(3, 4, 5))),
            witness=None,
            provenance="oracle",
            verified=True,
        )
        self.ok(Graph.complete(6), cert, "factor", 3)

    def test_tampered_tiling_flagged(self):
        cert = DecisionCertificate(
            kind="factorable",
            answer=True,
            certificate=Tiling(3, (vs(0, 1, 2), vs(2, 3, 4))),
            witness=None,
            provenance="oracle",
            verified=True,
        )
        clauses = verify_certificate(Graph.complete(6), cert, "factor", 3)
        assert clauses == ["tiling is not a clique factor of the graph"]

    def test_positive_needs_matching_payload(self):
        cert = DecisionCertificate(
            kind="colorable",
            answer=True,
            certificate=None,
            witness=None,
            provenance="oracle",
            verified=True,
        )
        clauses = verify_certificate(cycle(6), cert, "coloring", 3)
        assert clauses == ["positive answer without a coloring"]

    def test_independence_clause(self):
        cert = DecisionCertificate(
            kind="colorable",
            answer=True,
            certificate=Coloring((vs(0, 1), vs(2, 3), vs(4, 5))),
            witness=None,
            provenance="oracle",
            verified=True,
        )
        clauses = verify_certificate(cycle(6), cert, "coloring", 3)
        assert len(clauses) == 1
        assert "independence" in clauses[0]

    def test_equitability_clause(self):
        g = Graph(5, [0] * 5)
        cert = DecisionCertificate(
            kind="colorable",
            answer=True,
            certificate=Coloring((vs(0, 1, 2), vs(3), vs(4))),
            witness=None,
            provenance="oracle",
            verified=True,
        )
        clauses = verify_certificate(g, cert, "coloring", 3)
        assert len(clauses) == 1
        assert "equitability" in clauses[0]

    def test_class_count_clause(self):
        cert = DecisionCertificate(
            kind="colorable",
            answer=True,
            certificate=Coloring((vs(0, 1, 2, 3, 4, 5),)),
            witness=None,
            provenance="oracle",
            verified=True,
        )
        clauses = verify_certificate(Graph(6, [0] * 6), cert, "coloring", 3)
        assert any("1 classes, expected 3" in c for c in clauses)

    def test_obstructed_passes(self):
        cert = DecisionCertificate(
            kind="obstructed",
            answer=False,
            certificate=None,
            witness=CliqueObstruction(vs(0, 1, 2, 3)),
            provenance="recognizer",
            verified=True,
        )
        self.ok(Graph.complete(4), cert, "coloring", 3)

    def test_obstructed_without_witness(self):
        cert = DecisionCertificate(
            kind="obstructed",
            answer=False,
            certificate=None,
            witness=None,
            provenance="pipeline",
            verified=False,
        )
        clauses = verify_certificate(Graph.complete(4), cert, "coloring", 3)
        assert clauses == ["obstructed certificate without a witness"]

    def test_clique_witness_must_exist_in_graph(self):
        cert = DecisionCertificate(
            kind="obstructed",
            answer=False,
            certificate=None,
            witness=CliqueObstruction(vs(0, 1, 2, 3)),
            provenance="recognizer",
            verified=True,
        )
        clauses = verify_certificate(cycle(4), cert, "coloring", 3)
        assert clauses == ["clique witness fails"]

    def test_exact_negative_passes_bare(self):
        cert = DecisionCertificate(
            kind="exact",
            answer=False,
            certificate=None,
            witness=None,
            provenance="oracle",
            verified=False,
        )
        self.ok(Graph.complete(4), cert, "coloring", 3)

    @pytest.mark.parametrize("kind", ["colorable", "factorable", "bogus", ""])
    def test_negative_of_another_kind_flagged(self, kind):
        # random_gnp(10, 0.2, 1) has an equitable 3-coloring: a bare NO of a
        # kind that is neither obstructed nor exact must not pass.
        cert = DecisionCertificate(kind, False, None, None, "oracle", True)
        clauses = verify_certificate(random_gnp(10, 0.2, 1), cert, "coloring", 3)
        assert clauses == [f"negative answer of kind {kind!r}: a NO is obstructed or exact"]

    @pytest.mark.parametrize("kind", ["obstructed", "exact", "factorable"])
    def test_positive_of_another_kind_flagged(self, kind):
        # The colouring is correct; only its label is wrong for the mode.
        g = random_gnp(10, 0.2, 1)
        col = equitable_coloring_exact(g, 3)
        assert verify_certificate(
            g, DecisionCertificate("colorable", True, col, None, "oracle", True), "coloring", 3
        ) == []
        cert = DecisionCertificate(kind, True, col, None, "oracle", True)
        clauses = verify_certificate(g, cert, "coloring", 3)
        assert clauses == [
            f"positive answer of kind {kind!r}: a YES in coloring mode is colorable"
        ]

    @pytest.mark.parametrize("kind", ["obstructed", "exact", "colorable"])
    def test_factor_positive_of_another_kind_flagged(self, kind):
        tiling = Tiling(3, (vs(0, 1, 2), vs(3, 4, 5)))
        cert = DecisionCertificate(kind, True, tiling, None, "oracle", True)
        clauses = verify_certificate(two_triangles(), cert, "factor", 3)
        assert clauses == [
            f"positive answer of kind {kind!r}: a YES in factor mode is factorable"
        ]

    def test_tiling_of_another_clique_size_flagged(self):
        # A perfect matching of C_6 is a K_2-factor; it proves nothing at r = 3.
        matching = Tiling(2, (vs(0, 1), vs(2, 3), vs(4, 5)))
        cert = DecisionCertificate("factorable", True, matching, None, "pipeline", True)
        self.ok(cycle(6), cert, "factor", 2)
        assert verify_certificate(cycle(6), cert, "factor", 3) == [
            "tiling is of K_2, expected K_3"
        ]

    @pytest.mark.parametrize(
        "witness, mode, value",
        [
            (Tiling(3, (vs(0, 1, 2), vs(3, 4, 5))), "factor", 3),
            (Coloring(tuple(vs(v) for v in range(6))), "coloring", 6),
        ],
    )
    def test_answer_payload_cannot_witness_a_no(self, witness, mode, value):
        # Each payload verifies as a YES on K_6; as the witness of a NO it
        # proves nothing.
        cert = DecisionCertificate("obstructed", False, None, witness, "recognizer", True)
        clauses = verify_certificate(Graph.complete(6), cert, mode, value)
        assert clauses == [f"a {type(witness).__name__} cannot witness a NO"]

    def test_unresolved_must_stay_silent(self):
        cert = DecisionCertificate(
            kind="unresolved",
            answer=True,
            certificate=None,
            witness=None,
            provenance="pipeline",
            verified=False,
        )
        clauses = verify_certificate(Graph.complete(4), cert, "coloring", 3)
        assert clauses == ["unresolved certificate carries an answer"]

    def test_mode_checked(self):
        cert = DecisionCertificate(
            kind="unresolved",
            answer=None,
            certificate=None,
            witness=None,
            provenance="pipeline",
            verified=False,
        )
        with pytest.raises(PreconditionError, match="mode"):
            verify_certificate(Graph.complete(4), cert, "tiling", 3)


class TestPayloadClauses:
    BARRIER_FAILS = ["Tutte barrier fails: it needs r = 2 and more odd components than vertices"]

    def test_two_odd_components_pass(self):
        # The empty barrier leaves the two triangles: two odd components.
        w = TutteBarrier(vs())
        assert payload_clauses(two_triangles(), w, 2, "factor") == []

    def test_two_odd_components_crossing_edges(self):
        # With every crossing edge present the six vertices form one even
        # component, so the empty barrier proves nothing.
        w = TutteBarrier(vs())
        assert payload_clauses(Graph.complete(6), w, 2, "factor") == self.BARRIER_FAILS

    def test_forged_barriers_on_k4_rejected(self):
        g = Graph.complete(4)
        for forged in (TutteBarrier(vs()), TutteBarrier(vs(0))):
            cert = DecisionCertificate("obstructed", False, None, forged, "pipeline", True)
            assert verify_certificate(g, cert, "factor", 2) == self.BARRIER_FAILS

    def test_barrier_checked_only_for_pairs(self):
        g = two_triangles()
        w = TutteBarrier(vs())
        assert payload_clauses(g, w, 3, "factor") == self.BARRIER_FAILS
        assert payload_clauses(g, w, 2, "coloring") == self.BARRIER_FAILS
        assert payload_clauses(g, TutteBarrier(vs(6)), 2, "factor") == self.BARRIER_FAILS

    def test_factor_witness_rejected_for_a_coloring(self):
        # Three independent vertices block a perfect matching of four
        # isolated vertices, but those colour equitably with two colours.
        g = Graph.empty(4)
        cert = DecisionCertificate(
            "obstructed", False, None, Ex1Witness(vs(0, 1, 2)), "pipeline", True
        )
        assert verify_certificate(g, cert, "factor", 2) == []
        assert verify_certificate(g, cert, "coloring", 2) == [
            "independent set does not block the factor"
        ]

    def test_coloring_witness_rejected_for_a_factor(self):
        g = Graph.complete(4)
        w = CliqueObstruction(vs(0, 1, 2, 3))
        assert payload_clauses(g, w, 3, "coloring") == []
        assert payload_clauses(g, w, 3, "factor") == ["clique witness fails"]

    def test_biclique_must_span_the_graph(self):
        # K_{1,5} plus 6 isolated vertices colours equitably with 3 colours,
        # so its star proves nothing; on K_{1,5} alone the star is the NO.
        star = [(0, v) for v in range(1, 6)]
        w = BicliqueObstruction(vs(0), vs(1, 2, 3, 4, 5))
        padded = Graph.from_edges(12, star)
        cert = DecisionCertificate("obstructed", False, None, w, "oracle", True)
        assert verify_certificate(padded, cert, "coloring", 3) == ["biclique witness fails"]
        assert verify_certificate(Graph.from_edges(6, star), cert, "coloring", 3) == []

    def test_ex1_blocks_its_construction(self):
        g = build_ex1_like(9, 3)
        w = Ex1Witness(vs(0, 1, 2, 3))
        assert payload_clauses(g, w, 3, "factor") == []
        assert payload_clauses(Graph.complete(9), w, 3, "factor") == [
            "independent set does not block the factor"
        ]

    @pytest.mark.parametrize(
        "obj, mode, clause",
        [
            (Coloring((vs(0, 2), vs(1, 5))), "coloring",
             "class independence breaks, or the classes do not partition the vertices"),
            (Tiling(2, (vs(0, 1), vs(2, 5))), "factor", "tiling is not a clique factor of the graph"),
            (CliqueObstruction(vs(0, 5)), "coloring", "clique witness fails"),
        ],
    )
    def test_vertex_outside_the_graph_is_a_clause(self, obj, mode, clause):
        # Vertex 5 of a 3-vertex graph has no row to read.
        g = Graph.from_edges(3, [(0, 1)])
        assert payload_clauses(g, obj, 2, mode) == [clause]

    def test_independent_set_outside_the_graph_is_a_clause(self):
        w = Ex1Witness(vs(0, 1, 7))
        assert payload_clauses(Graph.empty(6), w, 3, "factor") == [
            "independent set does not block the factor"
        ]

    def test_independent_set_at_r_zero_is_a_clause(self):
        # payload_clauses is public: at r = 0 there is no factor to block,
        # and the check says so instead of dividing by r.
        w = Ex1Witness(vs(0, 1, 2))
        assert payload_clauses(Graph.empty(6), w, 0, "factor") == [
            "independent set does not block the factor"
        ]

    def test_odd_split_sides_in_either_order(self):
        # The decider names the smaller side b0; a witness naming the larger
        # side first describes the same odd split.
        w = ex2_witness(9, 3, 1)
        swapped = Ex2Witness(w.a_parts, w.b1, w.b0)
        assert payload_clauses(build_ex2(9, 3, 1), swapped, 3, "factor") == []
        assert payload_clauses(build_ex2(9, 3, 3), swapped, 3, "factor") == [
            "odd-split witness does not match the graph"
        ]

    @pytest.mark.parametrize("mode, name", [("factor", "r"), ("coloring", "k")])
    @pytest.mark.parametrize("value", [0, -2])
    def test_value_below_one_is_the_clause(self, mode, name, value):
        cert = DecisionCertificate(
            "obstructed", False, None, Ex1Witness(vs(0, 1, 2)), "recognizer", True
        )
        assert verify_certificate(Graph.empty(6), cert, mode, value) == [
            f"{name} must be positive, got {value}"
        ]


# ---------------------------------------------------------------------------
# each payload check against a set-based reference


@st.composite
def _graph_and_sets(draw):
    """A graph on at most 12 vertices, up to four vertex sets, the r or k
    to check them at, and a mode.

    A set names vertices in [0, n + 1], so some fall outside the graph, and
    one vertex may sit in several sets.  Half the time the sets are a
    shuffled partition of V instead, and then the first set may take one
    vertex of the last as well.  The edges inside the sets are all
    present, all absent or drawn like the rest, so that cliques,
    independent sets and complete bipartite pairs turn up; the rest are
    drawn at a density of one to nine tenths.
    """
    n = draw(st.integers(min_value=0, max_value=12))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        # Two parts most often, the shape of a biclique.
        count = draw(st.sampled_from([1, 1, 1, 0, 2, 3]))
        cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=n), min_size=count, max_size=count)))
        sets = [order[i:j] for i, j in zip([0] + cuts, cuts + [n])]
        if sets[-1] and draw(st.booleans()):
            sets[0] = sets[0] + sets[-1][:1]
    else:
        vertex = st.integers(min_value=0, max_value=n + 1)
        sets = draw(st.lists(st.lists(vertex, unique=True, max_size=7), max_size=4))
    pairs = list(combinations(range(n), 2))
    density = draw(st.integers(min_value=1, max_value=9))
    coins = [level < density for level in draw(
        st.lists(st.integers(min_value=0, max_value=9), min_size=len(pairs), max_size=len(pairs))
    )]
    inside = draw(st.sampled_from(["join", "split", "drawn"]))
    across = draw(st.sampled_from(["join", "drawn"]))
    edges = []
    for (u, v), coin in zip(pairs, coins):
        same = any(u in s and v in s for s in sets)
        rule = inside if same else across if sets and (u in sets[0]) != (v in sets[0]) else "drawn"
        if rule == "join" or (rule == "drawn" and coin):
            edges.append((u, v))
    value = draw(st.integers(min_value=1, max_value=n + 2))
    return n, edges, sets, value, draw(st.sampled_from(["factor", "coloring"]))


def _ref_cover(sets, fits):
    """The union of `sets` when they are pairwise disjoint and each fits,
    else None."""
    seen = set()
    for s in sets:
        if seen & s or not fits(s):
            return None
        seen |= s
    return seen


def _split_edge(parts, b0, b1, u, v):
    """Whether the split on these sets joins u and v: all pairs but those
    inside one independent part and those across the clique pair."""
    if any(u in p and v in p for p in parts):
        return False
    return not ({u, v} <= b0 | b1 and (u in b0) != (v in b0))


@st.composite
def _odd_splits(draw):
    """A split on at most 12 vertices under a shuffled labelling, its
    witness, the r to check it at, a mode, and at most one flaw: a vertex
    moved to another set before the graph is built on the sets, so that
    only their sizes are wrong; an edge flipped; a vertex moved to another
    set; a vertex of one set put in
    place of one of another, so that the two share it; a vertex replaced
    by one outside the graph; or r changed.  r is 2, 3 or 4,
    and the side b0 has any size s <= 2m, odd or even: a witness may name
    either side first."""
    r = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(min_value=1, max_value=12 // r))
    s = draw(st.integers(min_value=0, max_value=2 * m))
    n = r * m
    perm = draw(st.permutations(range(n)))
    cuts = [0, s, 2 * m] + [2 * m + i * m for i in range(1, r - 1)]
    sets = [perm[i:j] for i, j in zip(cuts, cuts[1:])]
    sets = sets[2:] + sets[:2]
    flaw = draw(st.sampled_from(["none", "resize", "edge", "move", "share", "outside", "r"]))
    if flaw == "resize":
        i, j = draw(st.permutations(range(len(sets))))[:2]
        if sets[i]:
            sets[j].append(sets[i].pop())
    parts, b0, b1 = [set(p) for p in sets[:-2]], set(sets[-2]), set(sets[-1])
    g = Graph.from_edges(n, [e for e in combinations(range(n), 2) if _split_edge(parts, b0, b1, *e)])
    if flaw == "edge" and n > 1:
        u, v = draw(st.sampled_from(list(combinations(range(n), 2))))
        g.adj[u] ^= 1 << v
        g.adj[v] ^= 1 << u
    elif flaw in ("move", "share"):
        i, j = draw(st.permutations(range(len(sets))))[:2]
        if sets[i] and flaw == "move":
            sets[j].append(sets[i].pop())
        elif sets[i] and sets[j]:
            sets[j][0] = sets[i][0]
    elif flaw == "outside":
        i = draw(st.sampled_from([i for i, p in enumerate(sets) if p]))
        sets[i][0] = draw(st.sampled_from([n, n + 1]))
    elif flaw == "r":
        r = draw(st.sampled_from([v for v in range(1, 7) if v != r]))
    parts = tuple(VertexSet(p) for p in sets)
    return g, Ex2Witness(parts[:-2], parts[-2], parts[-1]), r, draw(st.sampled_from(["factor", "coloring"]))


class TestChecksMatchSetReferences:
    @settings(max_examples=400, deadline=None)
    @given(_graph_and_sets())
    def test_each_check_matches_its_reference(self, case):
        # Each check, and payload_clauses on its payload in either mode,
        # agrees with a reference on sets of vertices built from the edge
        # list alone.  Tilings and witnesses are checked at the drawn value
        # and at each value their sizes can make them hold at.
        n, edges, sets, value, mode = case
        g, adj = Graph.from_edges(n, edges), adj_sets(n, edges)
        sets = [set(s) for s in sets]
        masks = tuple(VertexSet(s) for s in sets)
        a, b = (sets + [set(), set()])[:2]
        full = set(range(n))

        def inside(s):
            return all(v < n for v in s)

        classes = _ref_cover(sets, lambda s: inside(s) and is_independent_set(adj, s))
        assert coloring_holds(g, Coloring(masks)) is (classes == full)
        small, large = sorted((a, b), key=len)
        spanning = not a & b and a | b == full
        ex1_values = [r for r in range(1, n + 1) if n % r == 0 and n // r + 1 == len(a)]
        for k in {value, 2, max(len(a) - 1, 1), max(len(a), 1), max(n // 2, 1), *ex1_values}:
            tiles = _ref_cover(sets, lambda s: inside(s) and len(s) == k and is_clique_set(adj, s))
            assert clique_tiles_cover(g, k, masks) == (None if tiles is None else sum(1 << v for v in tiles))
            assert tiling_holds(g, Tiling(k, masks)) is (tiles == full)
            cases = [
                (Ex1Witness(VertexSet(a)), independent_set_holds, "factor",
                 n % k == 0 and len(a) == n // k + 1 and inside(a) and is_independent_set(adj, a)),
                (CliqueObstruction(VertexSet(a)), clique_holds, "coloring",
                 len(a) == k + 1 and inside(a) and is_clique_set(adj, a)),
                (BicliqueObstruction(VertexSet(a), VertexSet(b)), biclique_holds, "coloring",
                 spanning and len(small) % 2 == 1 and n == 2 * k
                 and all(v in adj[u] for u in small for v in large)),
                (TutteBarrier(VertexSet(a)), tutte_barrier_holds, "factor",
                 k == 2 and inside(a) and brute_odd_components(adj, a) > len(a)),
            ]
            for w, holds, own, want in cases:
                assert holds(g, w, k) is want, (type(w).__name__, k)
                assert (payload_clauses(g, w, k, mode) == []) is (want and mode == own)

    @settings(max_examples=300, deadline=None)
    @given(_odd_splits())
    def test_odd_split_matches_its_reference(self, case):
        g, w, r, mode = case
        n = g.n
        adj = adj_sets(n, g.edges())
        sets = [set(p) for p in (*w.a_parts, w.b0, w.b1)]
        parts, b0, b1 = sets[:-2], sets[-2], sets[-1]
        m = n // r
        shape = (
            n % r == 0 and len(parts) == r - 2 and all(len(p) == m for p in parts)
            and len(b0) % 2 == 1 and len(b1) == 2 * m - len(b0)
            and _ref_cover(sets, lambda s: True) == set(range(n))
        )
        want = shape and all(
            (v in adj[u]) == _split_edge(parts, b0, b1, u, v) for u, v in combinations(range(n), 2)
        )
        assert odd_split_holds(g, w, r) is want
        assert (payload_clauses(g, w, r, mode) == []) is (want and mode == "factor")

    def test_r1_split_is_refused(self):
        # At r = 1 there are no independent parts to fill, and the two sides
        # may both be V; the empty graph has a K_1-factor all the same.
        v = VertexSet(range(3))
        assert not odd_split_holds(Graph.empty(3), Ex2Witness((), v, v), 1)

    def test_independence_on_wide_masks(self):
        # A wide, well-filled set and a sparse one on 960 vertices: each
        # must see an edge between its last two members and ignore an edge
        # that leaves it.
        n = 960
        for step, r in ((3, 3), (40, 40)):
            members = [1] + list(range(0, n, step))
            w = Ex1Witness(VertexSet(members))
            assert len(members) == n // r + 1
            assert independent_set_holds(Graph.from_edges(n, [(members[-1], members[-1] + 1)]), w, r)
            assert not independent_set_holds(Graph.from_edges(n, [(members[-2], members[-1])]), w, r)


class TestCoversMatchTheSeedChecks:
    """`clique_tiles_cover` and `_independent_cover` read each pair of a set
    once, from its higher member's row, and test disjointness once, on the
    union; the seed checks read every member's row against its whole set
    and each set against the union so far.  On a symmetric graph they must
    return the same mask, or None, on every family of sets."""

    @settings(max_examples=500, deadline=None)
    @given(_graph_and_sets())
    # Two equal triangles; an empty set beside vertices n and n + 1; one
    # vertex in two sets that are cliques and independent sets alike; only
    # empty sets, which r = 0 tiles.
    @example((3, [(0, 1), (0, 2), (1, 2)], [[0, 1, 2], [0, 1, 2]], 3, "factor"))
    @example((4, [(0, 1)], [[], [4], [2, 5]], 1, "coloring"))
    @example((4, [], [[0], [1], [1], [3]], 1, "coloring"))
    @example((3, [], [[], []], 1, "factor"))
    def test_agree_with_the_seed_checks(self, case):
        # The strategy names vertices n and n + 1, lets sets overlap and
        # draws empty ones; r runs over 0, the drawn value and every set's
        # size, so that the size test passes for some set.
        n, edges, sets, value, _ = case
        g = Graph.from_edges(n, edges)
        masks = tuple(VertexSet(s) for s in sets)
        assert _independent_cover(g, masks) == seed_independent_cover(g, masks)
        for r in {0, value, *map(len, sets)}:
            assert clique_tiles_cover(g, r, masks) == seed_clique_tiles_cover(g, r, masks), r

    @staticmethod
    def _mutants(g, sets, holds):
        """Each named flaw of the family `sets` of g, as (name, graph, sets):
        a vertex shared by two sets that each still hold, vertex n, a set one
        short, and the edge between the two highest and between the two
        lowest members of the set holding vertex n - 1 or vertex 0 flipped."""
        n = g.n
        j, i, v = next(
            (j, i, v)
            for v in sets[0]
            for j in range(len(sets) - 1, 0, -1)
            for i in range(len(sets[j]))
            if holds(sets[j][:i] + [v] + sets[j][i + 1:])
        )
        out = [("shared", g, sets[:j] + [sets[j][:i] + [v] + sets[j][i + 1:]] + sets[j + 1:])]
        out.append(("vertex n", g, [sets[0][:-1] + [n]] + sets[1:]))
        out.append(("one short", g, [sets[0][:-1]] + sets[1:]))
        for end in (n - 1, 0):
            s = next(s for s in sets if end in s)
            for u, w in (s[-2:], s[:2]):
                h = g.copy()
                h.adj[u] ^= 1 << w
                h.adj[w] ^= 1 << u
                out.append((f"edge {u}-{w}", h, sets))
        return out

    def test_wide_masks_at_n960(self):
        # The factor of G(960, 0.9) at r = 3, and the equitable colouring of
        # its complement at k = 240 (classes of 4): each is accepted, and
        # each flaw rejected, however far up the rows it sits.
        g = random_gnp(960, 0.9, 0)
        h = complement(g)
        tiling = decide_kr_factor(g, 3).certificate
        coloring = decide_equitable(h, 240).certificate
        cliques = [sorted(c) for c in tiling.cliques]
        classes = [sorted(c) for c in coloring.classes]
        assert tiling_holds(g, tiling) and coloring_holds(h, coloring)
        full = (1 << 960) - 1
        assert clique_tiles_cover(g, 3, tiling.cliques) == full
        assert _independent_cover(h, coloring.classes) == full
        for what, gm, sets in self._mutants(g, cliques, lambda s: g.is_clique(sum(1 << v for v in s))):
            masks = tuple(VertexSet(s) for s in sets)
            assert clique_tiles_cover(gm, 3, masks) is None, what
            assert seed_clique_tiles_cover(gm, 3, masks) is None, what
            assert not tiling_holds(gm, Tiling(3, masks)), what
        # A class is independent in h exactly when it is a clique of g.
        for what, hm, sets in self._mutants(h, classes, lambda s: g.is_clique(sum(1 << v for v in s))):
            masks = tuple(VertexSet(s) for s in sets)
            got = _independent_cover(hm, masks)
            assert got == seed_independent_cover(hm, masks), what
            assert got != full and not coloring_holds(hm, Coloring(masks)), what


class TestWitnessVerifyMethods:
    """`Ex1Witness.verify` and `Ex2Witness.verify` stay because
    benchmarks/make_expected.py checks the stored constructions with them;
    each is the checker's own function."""

    @pytest.mark.parametrize("n, r", [(9, 3), (12, 3), (12, 4)])
    def test_ex1_verify_agrees_with_payload_clauses(self, n, r):
        for g in (build_ex1_like(n, r), Graph.empty(n), Graph.complete(n)):
            for size in (n // r, n // r + 1):
                w = Ex1Witness(VertexSet(range(size)))
                for value in (r, r + 1):
                    assert w.verify(g, value) is (payload_clauses(g, w, value, "factor") == [])

    @pytest.mark.parametrize("n, r, s", [(9, 3, 1), (9, 3, 3), (12, 4, 1)])
    def test_ex2_verify_agrees_with_payload_clauses(self, n, r, s):
        w = ex2_witness(n, r, s)
        crossed = build_ex2(n, r, s)
        crossed.add_edge(0, s)
        for g in (build_ex2(n, r, s), crossed, Graph.complete(n)):
            for value in (r, r + 1):
                assert w.verify(g, value) is (payload_clauses(g, w, value, "factor") == [])


def _fuzz_doc(kind, answer, payload):
    return {
        "schema": SCHEMA, "kind": kind, "answer": answer, "certificate": payload,
        "witness": payload, "provenance": "fuzz", "verified": True, "notes": [], "timings": {},
    }


@st.composite
def _documents(draw):
    """A graph on at most 7 vertices, a certificate document whose payloads
    name vertices in [-1, n + 1], and the mode and value to check it at.

    One payload fills both the certificate and the witness field
    (`_fuzz_doc`), so the check reads it whatever the answer.  A -1, or a
    vertex repeated in one list, fails decoding, so -1 is drawn seldom and
    a list holds distinct vertices; n and n + 1 name vertices outside the
    graph.
    """
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, kept in zip(pairs, keep) if kept]
    vertex = st.sampled_from([-1] + [v for v in range(n + 2) for _ in range(6)])
    ids = st.lists(vertex, max_size=n + 2, unique=True)
    sets = st.lists(ids, max_size=4)
    value = st.integers(min_value=-1, max_value=n + 1)

    def typed(name, **fields):
        return st.fixed_dictionaries({"type": st.just(name), **fields})

    payload = st.one_of(
        st.none(),
        typed("tiling", r=value, cliques=sets),
        typed("coloring", classes=sets),
        typed("independent-set", vertices=ids),
        typed("odd-split", a_parts=sets, b0=ids, b1=ids),
        typed("clique", vertices=ids),
        typed("biclique", side_a=ids, side_b=ids),
        typed("tutte-barrier", vertices=ids),
    )
    kinds = ["factorable", "colorable", "obstructed", "exact", "unresolved"]
    kind, answer = draw(
        st.sampled_from(
            [("factorable", True), ("colorable", True), ("obstructed", False), ("exact", False), ("unresolved", None)]
        )
        | st.tuples(st.sampled_from(kinds), st.sampled_from([True, False, None]))
    )
    doc = _fuzz_doc(kind, answer, draw(payload))
    return n, edges, doc, draw(st.sampled_from(["factor", "coloring"])), draw(value)


class TestVerifyFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_documents())
    # The two documents that once crashed the check: a class naming vertex
    # 5 of 3, which has no row to read, and an independent-set NO at r = 0.
    @example(case=(3, [(0, 1)], _fuzz_doc("colorable", True, {"type": "coloring", "classes": [[0, 2], [1, 5]]}), "coloring", 2))
    @example(case=(6, [], _fuzz_doc("obstructed", False, {"type": "independent-set", "vertices": [0, 1, 2]}), "factor", 0))
    def test_random_documents_only_fail_preconditions(self, case):
        # Whatever a document holds, decoding and checking it either raise
        # PreconditionError or return clauses; and an accepted YES or
        # obstructed NO agrees with exhaustive search.
        n, edges, doc, mode, value = case
        g = Graph.from_edges(n, edges)
        try:
            clauses = verify_certificate(g, certificate_from_json(doc), mode, value)
        except PreconditionError:
            return
        if clauses or doc["answer"] is None or doc["kind"] == "exact":
            return
        if mode == "coloring":
            yes = brute_equitable_colorable(n, edges, value)
        else:
            yes = n % value == 0 and brute_kr_factor_exists(n, edges, value)
        assert yes is doc["answer"]


# ---------------------------------------------------------------------------
# mutants of genuine decisions

# The fields of each payload type that hold vertex lists, in order; the
# nested ones hold one list per set.
_FIELDS = {
    "tiling": ("cliques",),
    "coloring": ("classes",),
    "independent-set": ("vertices",),
    "odd-split": ("a_parts", "b0", "b1"),
    "clique": ("vertices",),
    "biclique": ("side_a", "side_b"),
    "tutte-barrier": ("vertices",),
}
_NESTED = ("cliques", "classes", "a_parts")
_KINDS = ("factorable", "colorable", "obstructed", "exact", "unresolved")


def _sets(payload):
    out = []
    for name in _FIELDS[payload["type"]]:
        out.extend(payload[name] if name in _NESTED else [payload[name]])
    return out


def _payload(kind, sets, r):
    """A payload of type `kind` holding `sets`, filled into its fields in
    order: a single-list type takes the first set, the odd split's pair the
    last two, and a biclique's second side every set after the first."""
    if kind == "tiling":
        return {"type": kind, "r": r, "cliques": sets}
    if kind == "coloring":
        return {"type": kind, "classes": sets}
    if kind == "odd-split":
        b0, b1 = sets[-2:] if len(sets) > 1 else (sets[0], [])
        return {"type": kind, "a_parts": sets[:-2], "b0": b0, "b1": b1}
    if kind == "biclique":
        return {"type": kind, "side_a": sets[0], "side_b": sorted(v for s in sets[1:] for v in s)}
    return {"type": kind, "vertices": sets[0]}


def _mutants(doc, mode, value, n):
    """(what, document, mode, value) for each mutant of a genuine decision:
    a set dropped; a vertex dropped, moved to another set, or replaced by a
    vertex outside its set; two vertices of two sets traded; r or k
    changed, or the mode; kind and answer swapped, with the payload in
    either field; the payload retyped."""
    field = "certificate" if doc["answer"] else "witness"
    payload = doc[field]
    r = payload.get("r", value)

    def with_payload(p, field=field, **envelope):
        out = dict(doc, certificate=None, witness=None, **envelope)
        out[field] = p
        return out

    def with_sets(sets):
        return with_payload(_payload(payload["type"], sets, r))

    sets = _sets(payload)
    for i in sorted({0, len(sets) // 2, len(sets) - 1}):
        if len(sets) > 1:
            yield "drop", with_sets(sets[:i] + sets[i + 1:]), mode, value
        for v in sorted({sets[i][0], sets[i][-1]}):
            kept = [u for u in sets[i] if u != v]
            yield "drop", with_sets(sets[:i] + [kept] + sets[i + 1:]), mode, value
            outside = next(u for u in range(n + 1) if u not in sets[i])
            moved = sorted(kept + [outside])
            yield "move", with_sets(sets[:i] + [moved] + sets[i + 1:]), mode, value
            if len(sets) > 1:
                j = (i + 1) % len(sets)
                grown = sorted(sets[j] + [v])
                new = [kept if h == i else grown if h == j else s for h, s in enumerate(sets)]
                yield "move", with_sets(new), mode, value
                w = sets[j][0]
                swapped = [
                    sorted(kept + [w]) if h == i else sorted(set(s) - {w} | {v}) if h == j else s
                    for h, s in enumerate(sets)
                ]
                yield "swap", with_sets(swapped), mode, value
    for v2 in (value - 1, value + 1, 2 * value):
        if v2 >= 1:
            yield "value", doc, mode, v2
            if payload["type"] == "tiling":
                yield "value", with_payload(dict(payload, r=v2)), mode, v2
    yield "mode", doc, "coloring" if mode == "factor" else "factor", value
    for kind in _KINDS:
        for answer in (True, False, None):
            if (kind, answer) != (doc["kind"], doc["answer"]):
                for place in ("certificate", "witness"):
                    yield "kind", with_payload(payload, place, kind=kind, answer=answer), mode, value
    for kind in _FIELDS:
        if kind != payload["type"]:
            yield "type", with_payload(_payload(kind, sets, r)), mode, value


def _is_factor(g, sets, r):
    """Naive check that `sets` are disjoint r-cliques covering V."""
    flat = [v for s in sets for v in s]
    return (
        sorted(flat) == list(range(g.n))
        and all(len(s) == r for s in sets)
        and all(g.has_edge(u, v) for s in sets for u, v in combinations(s, 2))
    )


def _is_equitable(g, sets, k):
    """Naive check that `sets` are k independent classes of V within one in size."""
    flat = [v for s in sets for v in s]
    sizes = [len(s) for s in sets]
    return (
        sorted(flat) == list(range(g.n))
        and len(sets) == k
        and max(sizes) - min(sizes) <= 1
        and not any(g.has_edge(u, v) for s in sets for u, v in combinations(s, 2))
    )


class TestGenuineMutants:
    """Mutants of genuine decisions: each is rejected by
    `verify_certificate`, or what it claims is still true.  Only a YES may
    be accepted, and its payload must pass a naive check.  An exact NO or
    an unresolved answer claims nothing the checker reads, as in
    TestVerifyFuzz.  The decider's own check on every answer is this
    checker, whose checks read only the graph's rows.  It is the only check
    of a structured tiling, of the cliques a seed grows into and of the
    witness a colouring NO hunts down."""

    CASES = {
        "structured": (lambda: ex2_plus(240, 160, 161), "factor", 3, "pipeline"),
        "gate": (lambda: random_gnp(240, 0.9, 0), "factor", 3, "pipeline"),
        # Procedure P misses this draw, so the exact search colours it.
        "exact-coloring": (lambda: random_gnp(30, 0.2, 7), "coloring", 6, "oracle"),
        "ex1": (lambda: build_ex1_like(240, 3), "factor", 3, "recognizer"),
        "ex2": (lambda: build_ex2(240, 3, 1), "factor", 3, "recognizer"),
        "biclique": (lambda: build_obstruction(9, 5), "coloring", 9, "recognizer"),
    }
    WITNESS = {
        "structured": "tiling", "gate": "tiling", "exact-coloring": "coloring",
        "ex1": "independent-set", "ex2": "odd-split", "biclique": "biclique",
    }
    # Mutants accepted as true: a swap that keeps every clique a clique, or
    # every class independent.
    ACCEPTED = {"structured": 1, "gate": 3, "exact-coloring": 1}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_mutant_is_rejected_or_true(self, name):
        build, mode, value, provenance = self.CASES[name]
        g = build()
        decide = decide_kr_factor if mode == "factor" else decide_equitable
        cert = decide(g, value)
        assert cert.provenance == provenance
        doc = certificate_to_json(cert)
        field = "certificate" if cert.answer else "witness"
        assert doc[field]["type"] == self.WITNESS[name]
        seen = set()
        accepted = 0
        for what, mutant, m, v in _mutants(doc, mode, value, g.n):
            seen.add(what)
            try:
                got = certificate_from_json(mutant)
            except PreconditionError:
                continue
            if verify_certificate(g, got, m, v) or got.answer is None or got.kind == "exact":
                continue
            assert got.answer, (what, m, v)
            if m == "factor":
                assert _is_factor(g, [sorted(c) for c in got.certificate.cliques], v), what
            else:
                assert _is_equitable(g, [sorted(c) for c in got.certificate.classes], v), what
            accepted += 1
        assert seen >= {"drop", "move", "value", "mode", "kind", "type"}
        assert accepted == self.ACCEPTED.get(name, 0)
