"""Certificate JSON codec and the independent re-verification clauses."""

import json

import pytest

from equitiler import DecisionCertificate, PreconditionError
from equitiler.certificates import (
    SCHEMA,
    certificate_from_json,
    certificate_to_json,
    payload_clauses,
    verify_certificate,
    vertex_sets_from_json,
)
from equitiler.extremal import (
    BicliqueObstruction,
    CliqueObstruction,
    Ex1Witness,
    build_ex1_like,
    ex2_witness,
)
from equitiler.generators import random_gnp
from equitiler.graphs import Graph, VertexSet
from equitiler.matching import TutteBarrier
from equitiler.oracle import Coloring, Tiling


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
