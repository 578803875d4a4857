"""Regime scoreboard: seeded families in and around the paper's hypothesis.

In colouring terms the hypothesis is sigma_G <= 2k; on the factor side it
reads sigma_H >= 2(1 - 1/r)n - 2 for the complement H of the padded G.  Each
family is decided in full.  Every YES must re-verify and every NO must carry
a verified witness or be an `exact` NO.  Two floors per family count what
the ladder settles today: every decided input, and the inputs decided by a
polynomial step (provenance other than `oracle`).  A change may raise a
floor, never lower it.  Every input here has n > FALLBACK_CAP, so no exact
search answers and the two floors agree.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, List, Tuple

import pytest

from equitiler import (
    FALLBACK_CAP,
    Graph,
    build_ex2,
    complement,
    decide_equitable,
    decide_kr_factor,
    random_ore,
    sigma,
)
from equitiler.certificates import verify_certificate
from equitiler.decide import _paper_obstruction

# (graph, mode, r or k)
Instance = Tuple[Graph, str, int]


def boundary() -> List[Instance]:
    """random_ore at alpha = 1/n: sigma_H meets 2(1 - 1/3 - 1/n)n, the
    factor form of sigma_G = 2k."""
    return [
        (random_ore(n, 3, Fraction(1, n), seed), "factor", 3)
        for n in range(60, 301, 30)
        for seed in range(4)
    ]


def disjoint_cliques(parts: int, m: int) -> Graph:
    g = Graph.empty(parts * m)
    for p in range(parts):
        block = ((1 << m) - 1) << (p * m)
        for v in range(p * m, (p + 1) * m):
            g.adj[v] = block & ~(1 << v)
    return g


def tripartite() -> List[Instance]:
    """K_{m,m,m} in factor mode and 3K_m at k = m, the simplest YES."""
    out: List[Instance] = []
    for m in (17, 30, 100):
        three = disjoint_cliques(3, m)
        out.append((complement(three), "factor", 3))
        out.append((three, "coloring", m))
    return out


def perturbed_odd_splits() -> List[Instance]:
    """build_ex2(n, 3, 1) with one or two non-edges added and up to two
    edges removed, kept when sigma >= 4n/3 - 2."""
    rng = random.Random(7)
    out: List[Instance] = []
    for n in (120, 240, 360):
        base = build_ex2(n, 3, 1)
        edges = list(base.edges())
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not base.has_edge(u, v)]
        for _ in range(30):
            g = base.copy()
            for u, v in rng.sample(non_edges, rng.randint(1, 2)):
                g.add_edge(u, v)
            for u, v in rng.sample(edges, rng.randint(0, 2)):
                g.adj[u] &= ~(1 << v)
                g.adj[v] &= ~(1 << u)
            if 3 * sigma(g).sigma >= 4 * n - 6:
                out.append((g, "factor", 3))
    return out


def sparse_draw(rng: random.Random, n: int, d: int) -> Graph:
    """n*d random pairs are tried; a pair is added when it is not an edge
    yet and both its ends have degree below d."""
    g = Graph.empty(n)
    for _ in range(n * d):
        u, v = rng.sample(range(n), 2)
        if g.degree(u) < d and g.degree(v) < d and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


def sparse() -> List[Instance]:
    """Small k, far from k >= cn: two draws per (k, n) with degrees below
    k (Hajnal–Szemerédi: YES) and two with degrees up to k (Chen–Lih–Wu)."""
    rng = random.Random(3)
    out: List[Instance] = []
    for d_less in (1, 0):
        for k in (3, 4, 5):
            for n in (60, 120, 240, 480):
                for _ in range(2):
                    g = sparse_draw(rng, n, k - d_less)
                    assert max(g.degrees()) == k - d_less
                    out.append((g, "coloring", k))
    return out


def ore() -> List[Instance]:
    """Degrees below k plus up to three hubs of degree k, each hub's new
    neighbour kept clear of every other hub: sigma_G <= 2k - 1 with
    Delta(G) = k (Kierstead–Kostochka's Ore-type theorem: YES)."""
    rng = random.Random(5)
    out: List[Instance] = []
    for k in (3, 4, 5):
        for n in (60, 120, 240, 480):
            for _ in range(2):
                g = sparse_draw(rng, n, k - 1)
                hubs = near = 0  # near: the hubs and their neighbours
                for _ in range(3):
                    us = [v for v in range(n) if g.degree(v) == k - 1 and not g.adj[v] & hubs]
                    if not us:
                        break
                    u = rng.choice(us)
                    ws = [
                        w
                        for w in range(n)
                        if w != u and not g.has_edge(u, w) and g.degree(w) <= k - 2 and not near >> w & 1
                    ]
                    if not ws:
                        break
                    g.add_edge(u, rng.choice(ws))
                    hubs |= 1 << u
                    near |= hubs | g.adj[u]
                assert max(g.degree(u) + g.degree(v) for u, v in g.edges()) <= 2 * k - 1
                assert max(g.degrees()) >= k
                out.append((g, "coloring", k))
    return out


def paper_only() -> List[Instance]:
    """Hubs beyond k that only the source paper covers: n = 3k, h hubs of
    degree k + t (t in {1, 2}), each joined to k + t vertices capped at
    degree k - t, every other vertex capped at degree k.  n*k random pairs
    of non-hubs are tried; a pair is added when it is not an edge yet and
    both its ends are below their caps.  Every edge's caps sum to at
    most 2k, so sigma_G <= 2k with Delta(G) = k + t > k."""
    rng = random.Random(11)
    out: List[Instance] = []
    for n in (60, 120, 240, 480):
        k = n // 3
        for t in (1, 2):
            for h in (1, 2, 3):
                g = Graph.empty(n)
                hubs = rng.sample(range(n), h)
                rest = [v for v in range(n) if v not in hubs]
                cap = [k] * n
                for u in hubs:
                    for v in rng.sample(rest, k + t):
                        g.add_edge(u, v)
                        cap[v] = k - t
                deg = g.degrees()
                for _ in range(n * k):
                    u, v = rng.choice(rest), rng.choice(rest)
                    if u != v and deg[u] < cap[u] and deg[v] < cap[v] and not g.adj[u] >> v & 1:
                        g.add_edge(u, v)
                        deg[u] += 1
                        deg[v] += 1
                assert max(g.degree(u) + g.degree(v) for u, v in g.edges()) <= 2 * k
                assert max(g.degrees()) == k + t
                assert _paper_obstruction(g, k) is None
                out.append((g, "coloring", k))
    return out


def cut_splits() -> List[Instance]:
    """build_ex2(n, 3, 1) with one random edge inside A = {2m, ..., 3m - 1}
    and one random vertex w of B1 cut off from all of A, once as it is and
    once with the edge from w to B0 = {0}: the structured route's inputs
    that a peel leaves thin toward its part, so refinement and the thin
    cover have work to do."""
    rng = random.Random(11)
    out: List[Instance] = []
    for n in (240, 480, 750):
        m = n // 3
        a = ((1 << m) - 1) << (2 * m)
        for _ in range(3):
            u, v = rng.sample(range(2 * m, 3 * m), 2)
            w = rng.randrange(1, 2 * m)
            g = build_ex2(n, 3, 1)
            g.add_edge(u, v)
            g.adj[w] &= ~a
            for x in range(2 * m, 3 * m):
                g.adj[x] &= ~(1 << w)
            joined = g.copy()
            joined.add_edge(0, w)
            out += [(g, "factor", 3), (joined, "factor", 3)]
    return out


def singletons() -> List[Instance]:
    """The complete multipartite graph on parts m, m and m singletons, less
    one random edge between the two big parts, twice for each m in 20, 40
    and 80, at r = 3: the one short row closes the Hajnal–Szemerédi gate,
    both big parts peel, and the structured route tiles the leftover
    block by its single vertices (d = 1)."""
    rng = random.Random(13)
    out: List[Instance] = []
    for m in (20, 40, 80):
        full = (1 << 3 * m) - 1
        a, b = (1 << m) - 1, ((1 << m) - 1) << m
        for _ in range(2):
            rows = [full ^ a] * m + [full ^ b] * m + [full ^ (1 << v) for v in range(2 * m, 3 * m)]
            g = Graph(3 * m, rows)
            u, v = rng.randrange(m), rng.randrange(m, 2 * m)
            g.adj[u] ^= 1 << v
            g.adj[v] ^= 1 << u
            out.append((g, "factor", 3))
    return out


# One copy of an 8-vertex graph with a perfect matching (0-4, 1-3, 2-7,
# 5-6) that the greedy start and the three-edge augmenting paths of
# `maximum_matching` leave short: the last augmenting path needs the
# blossom search (`matching._augment_once`, with `lca` and `mark_path`).
BLOSSOM_EDGES = ((0, 1), (0, 4), (1, 3), (1, 4), (2, 6), (2, 7), (3, 6), (4, 7), (5, 6), (5, 7))


def blossoms() -> List[Instance]:
    """7 and 13 disjoint copies of the blossom graph at vertex offsets of 8,
    at r = 2: the matching step's YES by the blossom search."""
    out: List[Instance] = []
    for copies in (7, 13):
        g = Graph.empty(8 * copies)
        for c in range(copies):
            for u, v in BLOSSOM_EDGES:
                g.add_edge(8 * c + u, 8 * c + v)
        out.append((g, "factor", 2))
    return out


# family: (draw, size, decided floor, polynomial floor)
FAMILIES: dict = {
    "blossom": (blossoms, 2, 2, 2),
    "boundary": (boundary, 36, 36, 36),
    "cut": (cut_splits, 18, 12, 12),
    "tripartite": (tripartite, 6, 6, 6),
    "perturbed": (perturbed_odd_splits, 36, 34, 34),
    "singletons": (singletons, 6, 6, 6),
    "sparse": (sparse, 48, 38, 38),
    "ore": (ore, 24, 24, 24),
    "paper_only": (paper_only, 24, 24, 24),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_floors(name):
    draw, size, decided_floor, polynomial_floor = FAMILIES[name]
    instances = draw()
    assert len(instances) == size
    decided = polynomial = 0
    for g, mode, value in instances:
        assert g.n > FALLBACK_CAP
        decide: Callable = decide_kr_factor if mode == "factor" else decide_equitable
        c = decide(g, value)
        assert verify_certificate(g, c, mode, value) == [], (name, g.n, value, c.kind)
        if c.answer is not None:
            decided += 1
            polynomial += c.provenance != "oracle"
    assert decided >= decided_floor
    assert polynomial >= polynomial_floor
