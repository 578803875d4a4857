from __future__ import annotations

import random

import pytest

from equitiler.extremal import build_ex2
from equitiler.graphs import Graph

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
]


@pytest.fixture
def petersen() -> Graph:
    return Graph.from_edges(10, PETERSEN_EDGES)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xE0A1)


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    g = Graph.empty(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def without_edge(g, u, v):
    out = g.copy()
    out.adj[u] &= ~(1 << v)
    out.adj[v] &= ~(1 << u)
    return out


def cut_split(n, join_b0=True):
    """build_ex2(n, 3, 1) with an edge inside A and vertex 5 of B1 cut off
    from A; `join_b0` also joins vertex 5 to B0 = {0}."""
    m = n // 3
    g = build_ex2(n, 3, 1)
    g.add_edge(2 * m, 2 * m + 1)
    for v in range(2 * m, 3 * m):
        g = without_edge(g, 5, v)
    if join_b0:
        g.add_edge(0, 5)
    return g
