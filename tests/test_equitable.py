"""Procedure P: equitable colourings of graphs with Δ(G) < k, the factor
table's Hajnal–Szemerédi gate, under which P's classes of the complement of
a dense H are the factor, and the `equitable` step that runs the same
procedure at any degree."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equitiler import (
    Coloring,
    Graph,
    InternalContradiction,
    PreconditionError,
    VertexSet,
    complement,
    decide_equitable,
    decide_kr_factor,
    equitable_coloring_exact,
    kr_factor_exact,
    random_gnp,
)
from equitiler import decide as decide_module
from equitiler import equitable as equitable_module
from equitiler.certificates import payload_clauses, tiling_holds, verify_certificate
from equitiler.equitable import equitable_attempt
from equitiler.extremal import build_ex1_like, build_ex2, recognize_extremal

# A 3-regular graph on 12 vertices, found by a seeded search that counted
# the solo moves of its colouring at k = 4: first-fit leaves vertex 11
# out, three classes reach the hole, and none of them takes 11, so the
# colouring needs one solo move.
SOLO_EDGES = [
    (0, 1), (0, 3), (0, 9), (1, 2), (1, 5), (2, 3), (2, 7), (3, 9), (4, 5),
    (4, 8), (4, 11), (5, 8), (6, 7), (6, 10), (6, 11), (7, 8), (9, 10), (10, 11),
]


def holds(g, k, classes):
    """Whether `classes` are an equitable k-colouring of g: with k dividing
    n, k classes of n/k vertices each."""
    return payload_clauses(g, Coloring(tuple(map(VertexSet, classes))), k, "coloring") == []


@st.composite
def capped_graphs(draw, max_n=18, min_m=1):
    """(G, k): k divides n <= max_n, classes of at least min_m vertices, and
    a drawn share of the pairs tried in a drawn order, each kept when both
    ends still have degree below k - 1."""
    m = draw(st.integers(min_value=min_m, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=max_n // m))
    n = k * m
    pairs = draw(st.permutations(list(combinations(range(n), 2))))
    share = draw(st.floats(0.0, 1.0))
    g = Graph.empty(n)
    for u, v in pairs[: int(share * len(pairs))]:
        if g.degree(u) < k - 1 and g.degree(v) < k - 1:
            g.add_edge(u, v)
    return g, k


@st.composite
def any_graphs(draw, max_n=16):
    """(G, k), 1 <= k < n <= max_n: a drawn share of the pairs, in a drawn
    order, with no degree cap."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    pairs = draw(st.permutations(list(combinations(range(n), 2))))
    share = draw(st.floats(0.0, 1.0))
    return Graph.from_edges(n, pairs[: int(share * len(pairs))]), k


class TestEquitableClasses:
    """`equitable_attempt` under Δ(G) < k, where the classes always exist,
    so a stuck procedure is a bug."""

    @settings(max_examples=300, deadline=None)
    @given(capped_graphs(max_n=24))
    def test_classes_exist_whenever_degrees_are_below_k(self, case):
        g, k = case
        assert holds(g, k, equitable_attempt(g.adj, k))

    def test_disjoint_cliques_at_their_size(self):
        # 3K_17 at k = 17: every vertex has degree 16, first-fit alone.
        g = Graph.empty(51)
        for b in range(0, 51, 17):
            for u, v in combinations(range(b, b + 17), 2):
                g.add_edge(u, v)
        assert holds(g, 17, equitable_attempt(g.adj, 17))

    def test_solo_move(self, monkeypatch):
        g = Graph.from_edges(12, SOLO_EDGES)
        real = equitable_module._Repair._solo_move
        calls = []

        def counted(self, family, order, parent, witness):
            calls.append((len(family), len(order)))
            return real(self, family, order, parent, witness)

        monkeypatch.setattr(equitable_module._Repair, "_solo_move", counted)
        assert holds(g, 4, equitable_attempt(g.adj, 4))
        assert calls == [(4, 3)]

    def test_missed_solo_move_raises(self, monkeypatch):
        # With every reached class counted as on every other's path to the
        # hole, no solo move is left.  Every row has fewer than k bits, so
        # that is a bug of the procedure, raised, not a miss; the factor
        # table's gate holds on the complement, and its `equitable` step
        # raises the same.
        monkeypatch.setattr(
            equitable_module, "_subtrees", lambda order, parent: {c: -1 for c in order}
        )
        g = Graph.from_edges(12, SOLO_EDGES)
        with pytest.raises(InternalContradiction, match="no solo move"):
            equitable_attempt(g.adj, 4)
        with pytest.raises(InternalContradiction, match="no solo move"):
            decide_kr_factor(complement(g), 3)

    def test_degree_at_k_can_leave_no_class(self):
        # K_4 at k = 2 breaks the hypothesis: vertex 2 meets both classes,
        # a miss outside the theorem.
        with pytest.raises(PreconditionError, match="neighbour in each of the 2 classes"):
            equitable_attempt(Graph.complete(4).adj, 2)

    def test_stuck_colouring_step_raises(self, monkeypatch):
        # The colouring table's `equitable` step below the cap: Δ(G) = 3 < 4,
        # so a repair forced stuck is a bug there too, not a note that the
        # oracle papers over.
        def stuck(self, family, order, parent, witness):
            raise PreconditionError("procedure P found no solo move: forced")

        monkeypatch.setattr(equitable_module._Repair, "_solo_move", stuck)
        with pytest.raises(InternalContradiction, match="no solo move: forced"):
            decide_equitable(Graph.from_edges(12, SOLO_EDGES), 4)


class TestFactorStep:
    """The factor table's Hajnal–Szemerédi gate: every row of H has at least
    n - n/r bits.  Under it only the `equitable` step runs."""

    @settings(max_examples=300, deadline=None)
    @given(capped_graphs(max_n=18, min_m=3))
    def test_tiles_every_input_inside_its_gate(self, case):
        # H = complement(G) has δ(H) >= n - n/r at r = n/k >= 3: the
        # `equitable` step always answers, its tiling holds, and the exact
        # search agrees.  So no witness of a NO exists, and the recognizer,
        # skipped under the gate, would have had nothing to find.
        g, k = case
        h = complement(g)
        r = h.n // k
        c = decide_kr_factor(h, r)
        assert (c.kind, c.provenance) == ("factorable", "pipeline")
        assert tiling_holds(h, c.certificate)
        assert [stage for stage, _ in c.timings] == ["equitable"]
        assert kr_factor_exact(h, r) is not None
        assert recognize_extremal(h, r) is None

    @pytest.mark.parametrize(
        "build", [lambda: build_ex2(240, 3, 1), lambda: build_ex1_like(240, 3)], ids=["ex2", "ex1"]
    )
    def test_extremal_nos_fail_the_gate_at_vertex_0(self, build):
        # The gate stops at the first short row, vertex 0 on both shapes,
        # and the recognizer still gives their NO.
        h = build()
        assert h.degree(0) < 240 - 80
        c = decide_kr_factor(h, 3)
        assert (c.kind, c.provenance) == ("obstructed", "recognizer")
        assert [stage for stage, _ in c.timings] == ["recognize"]

    def test_one_short_row_closes_the_gate(self):
        # K_{3,3,3} has every row at n - n/3 = 6; without the edge 0-3,
        # rows 0 and 3 have 5 and the skipped steps run again.
        h = Graph.complete(9)
        for part in ((0, 1, 2), (3, 4, 5), (6, 7, 8)):
            for u, v in combinations(part, 2):
                h.adj[u] ^= 1 << v
                h.adj[v] ^= 1 << u
        c = decide_kr_factor(h, 3)
        assert [stage for stage, _ in c.timings] == ["equitable"]
        h.adj[0] ^= 1 << 3
        h.adj[3] ^= 1 << 0
        c = decide_kr_factor(h, 3)
        assert [stage for stage, _ in c.timings] == ["recognize", "pipeline", "oracle"]


class TestEquitableStep:
    """Procedure P at any degree: a colouring it returns is equitable, and a
    stuck procedure is a miss, noted, not a bug."""

    @settings(max_examples=300, deadline=None)
    @given(any_graphs())
    def test_every_colouring_it_returns_holds(self, case):
        g, k = case
        try:
            got = decide_module._equitable_coloring(g, k)
        except PreconditionError:
            return
        assert payload_clauses(g, got.certificate, k, "coloring") == []
        assert equitable_coloring_exact(g, k) is not None

    def test_colours_without_exact_search(self):
        # The exact colouring search took about 180 s on this draw.
        g = random_gnp(40, 0.7736946096493875, 264)
        c = decide_equitable(g, 19)
        assert (c.kind, c.provenance) == ("colorable", "pipeline")
        assert [stage for stage, _ in c.timings] == ["equitable"]
        assert verify_certificate(g, c, "coloring", 19) == []

    def test_miss_is_a_note(self):
        # K_4 at k = 2: vertex 2 meets both classes, and the oracle's NO
        # hunts down a triangle.
        c = decide_equitable(Graph.complete(4), 2)
        assert (c.kind, c.provenance) == ("obstructed", "oracle")
        assert c.notes == (
            "edge degree-sum bound fails at (0, 1); dichotomy guarantee lapses",
            "equitable route: vertex 2 has a neighbour in each of the 2 classes",
        )
        assert [stage for stage, _ in c.timings] == ["equitable", "oracle"]

    def test_attempt_raises_precondition_errors(self, monkeypatch):
        with pytest.raises(PreconditionError, match="neighbour in each of the 2 classes"):
            equitable_attempt(Graph.complete(4).adj, 2)
        # The edge 0-6 gives two rows k = 4 bits, outside the theorem, so
        # the repair left with no solo move is a miss.
        monkeypatch.setattr(
            equitable_module, "_subtrees", lambda order, parent: {c: -1 for c in order}
        )
        with pytest.raises(PreconditionError, match="no solo move"):
            equitable_attempt(Graph.from_edges(12, SOLO_EDGES + [(0, 6)]).adj, 4)
