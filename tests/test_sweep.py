"""Sweep harness on the small layers; full-scale runs live in the acceptance suite."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equitiler import PreconditionError
from equitiler.generators import random_gnp
from equitiler.graphs import Graph
from equitiler.smallgraphs import iter_labeled_graphs_inplace
from equitiler.sweep import (
    CHECKS,
    SweepReport,
    _clique_factor_exists,
    _worst_edge_sum,
    resolve_threads,
    sweep,
)

from _brute import adj_sets, brute_induced, brute_kr_factor_exists, graph_edges
from conftest import random_graph


class TestResolveThreads:
    def test_explicit_wins(self):
        assert resolve_threads(3) == 3

    def test_default_single(self):
        assert resolve_threads(None) == 1

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            resolve_threads(0)


class TestEquivalence:
    def test_single_vertex(self):
        r = sweep(1, "equivalence")
        assert (r.instances, r.no_instances) == (1, 0)
        assert r.clean

    def test_through_five(self):
        # Counts pinned from the oracle-vs-oracle run: 2261 (graph, k) pairs
        # with k | n, of which 1121 admit no equitable coloring.
        r = sweep(5, "equivalence")
        assert r.instances == 2261
        assert r.no_instances == 1121
        assert r.witnesses == 0
        assert r.clean
        assert r.enumeration == "labeled"


class TestReferenceWalk:
    """The equivalence sweep compares the colouring search with this walk
    alone, so the walk is checked against the brute-force factor search."""

    def test_matches_brute_force(self, rng):
        answers = set()
        for _ in range(400):
            r = rng.choice([2, 3, 4])
            n = rng.randint(r, 9)
            g = random_graph(rng, n, rng.choice([0.3, 0.6, 0.85]))
            if n % r == 0 and rng.random() < 0.5:
                mask = g.full_mask
            else:
                inside = rng.sample(range(n), r * rng.randint(1, n // r))
                mask = sum(1 << v for v in inside)
            size, edges, _ = brute_induced(n, g.edges(), mask)
            want = brute_kr_factor_exists(size, edges, r)
            assert _clique_factor_exists(g.adj, mask, r) is want, (n, list(g.edges()), mask, r)
            answers.add((r, mask == g.full_mask, want))
        assert len(answers) == 12

    def test_empty_set_and_singletons(self, rng):
        g = random_graph(rng, 5, 0.5)
        assert _clique_factor_exists(g.adj, 0, 3)
        assert _clique_factor_exists(g.adj, g.full_mask, 1)


def _brute_worst_edge_sum(g: Graph) -> int:
    adj = adj_sets(g.n, graph_edges(g))
    return max((len(adj[u]) + len(adj[v]) for u, v in graph_edges(g)), default=0)


class TestWorstEdgeSum:
    def test_every_five_vertex_graph(self):
        count = 0
        for _, g in iter_labeled_graphs_inplace(5):
            assert _worst_edge_sum(g) == _brute_worst_edge_sum(g), g.adj
            count += 1
        assert count == 1024

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_matches_brute_force(self, n, p, seed):
        g = random_gnp(n, p, seed)
        assert _worst_edge_sum(g) == _brute_worst_edge_sum(g)

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_edgeless_is_zero(self, n):
        assert _worst_edge_sum(Graph.empty(n)) == 0


class TestEdgeBound:
    def test_through_five(self):
        r = sweep(5, "edge-bound")
        assert r.instances == 3870
        assert r.no_instances == 0
        assert r.clean


class TestDichotomy:
    def test_through_five(self):
        # The seven NO-instances under the edge cap: K_4 at n=4, the five
        # placements of K_4 beside an isolated vertex at n=5, and K_5.
        r = sweep(5, "dichotomy")
        assert r.no_instances == 7
        assert r.witnesses == 7
        assert r.clean


class TestNoSet:
    def test_through_six(self):
        # NO-list so far: K_4, K_5, K_6, and the odd biclique K_{3,3}.
        r = sweep(6, "no-set")
        assert r.enumeration == "connected"
        assert r.instances == 444
        assert r.no_instances == 4
        assert r.witnesses == 4
        assert r.clean

    def test_through_four_has_single_member(self):
        r = sweep(4, "no-set")
        assert r.no_instances == 1
        assert r.clean


class TestExistenceOnly:
    def test_tallies_build_no_colouring(self, monkeypatch):
        # The tallies ask the search core whether a colouring exists; only
        # the dichotomy's NO re-checks go through the decider, and a NO holds
        # no colouring.  The counts are the pins above.
        def refuse(*args):
            raise AssertionError("a sweep tally built a Coloring")

        monkeypatch.setattr("equitiler.oracle.Coloring", refuse)

        def counts(r):
            return (r.instances, r.no_instances, r.witnesses, r.clean)

        got = {c: counts(sweep(5, c)) for c in ("dichotomy", "equivalence", "edge-bound")}
        got["no-set"] = counts(sweep(6, "no-set"))
        assert got == {
            "dichotomy": (3002, 7, 7, True),
            "equivalence": (2261, 1121, 0, True),
            "edge-bound": (3870, 0, 0, True),
            "no-set": (444, 4, 4, True),
        }


class TestSharding:
    @pytest.mark.parametrize("check", ["equivalence", "edge-bound", "dichotomy"])
    def test_two_workers_match_inline(self, check):
        # At n = 5 every layer from n = 3 up goes through the process pool.
        def counts(r):
            return (r.instances, r.no_instances, r.witnesses, r.anomalies)

        assert counts(sweep(5, check, threads=2)) == counts(sweep(5, check, threads=1))

    def test_three_workers_dichotomy(self):
        inline = sweep(4, "dichotomy", threads=1)
        forked = sweep(4, "dichotomy", threads=3)
        assert (forked.instances, forked.no_instances, forked.witnesses) == (
            inline.instances,
            inline.no_instances,
            inline.witnesses,
        )


class TestValidation:
    def test_unknown_check(self):
        with pytest.raises(PreconditionError, match="unknown check"):
            sweep(5, "four-color")

    def test_labeled_cap(self):
        with pytest.raises(PreconditionError):
            sweep(8, "equivalence")

    def test_connected_cap(self):
        with pytest.raises(PreconditionError):
            sweep(9, "no-set")

    def test_check_list_is_public(self):
        assert set(CHECKS) == {"equivalence", "edge-bound", "dichotomy", "no-set"}


def test_report_json_shape():
    r = sweep(3, "equivalence")
    doc = r.to_json()
    assert doc["schema"] == "equitiler.sweep/1"
    assert doc["check"] == "equivalence"
    assert doc["anomalies"] == []
    assert isinstance(doc["wall_seconds"], float)
    assert isinstance(r, SweepReport)
