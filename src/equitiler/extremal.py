"""Extremal families that block clique factors, their recognizers, and the
clique/biclique obstructions that block equitable colorings.

The two factor-blocking shapes on n = r*m vertices:

  * near-independent: an independent set of m + 1 vertices (every r-clique
    uses at most one of them, and there are only m cliques);
  * odd-split: r - 2 independent m-sets joined to everything else, plus a
    clique pair K_s, K_{2m - s} with s odd, no edges between the pair, both
    joined to all the m-sets.  Every r-clique must take exactly two vertices
    from the clique pair and from the same side, so one side keeps odd parity.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from .graphs import (
    Graph,
    VertexSet,
    _clique_cover_count,
    iter_bits,
    lowest_vertices,
    max_independent_set,
)

__all__ = [
    "Ex1Witness",
    "Ex2Witness",
    "CliqueObstruction",
    "BicliqueObstruction",
    "ExtremalWitness",
    "ColoringObstruction",
    "build_ex1_like",
    "build_ex2",
    "build_obstruction",
    "independent_set_of_size",
    "recognize_extremal",
    "find_biclique",
]

# Masks of at most this many vertices are searched exactly: an independent
# set by branch and bound, a sparse set (`partition._sparse_set`) after it.
EXACT_LIMIT = 64


class Ex1Witness(NamedTuple):
    """Independent set one larger than the clique count of any factor."""

    independent_set: VertexSet

    def verify(self, g: Graph, r: int) -> bool:
        from .certificates import independent_set_holds
        return independent_set_holds(g, self, r)


class Ex2Witness(NamedTuple):
    """The odd-split shape; s = |b0| is odd so no factor balances the pair."""

    a_parts: Tuple[VertexSet, ...]
    b0: VertexSet
    b1: VertexSet

    def verify(self, g: Graph, r: int) -> bool:
        from .certificates import odd_split_holds
        return odd_split_holds(g, self, r)


ExtremalWitness = Union[Ex1Witness, Ex2Witness]


class CliqueObstruction(NamedTuple):
    """K_{k+1} subgraph: one more mutually-adjacent vertex than colors."""

    vertices: VertexSet


class BicliqueObstruction(NamedTuple):
    """K_{m, 2k-m} with m odd whose two sides cover all of V, so n = 2k.

    Only cross edges are required.  Every class of an equitable k-colouring
    of 2k vertices is then a pair inside one side, and the odd side cannot
    be split into pairs.  A biclique that leaves vertices out proves nothing.
    """

    side_a: VertexSet
    side_b: VertexSet


ColoringObstruction = Union[CliqueObstruction, BicliqueObstruction]


def build_ex2(n: int, r: int, s: int) -> Graph:
    """The odd-split extremal graph; vertices 0..s-1 are the small clique side,
    s..2n/r-1 the large side, then the r-2 independent parts."""
    if r < 3:
        raise ValueError("need r >= 3")
    if n % r != 0:
        raise ValueError(f"r={r} must divide n={n}")
    m = n // r
    if s % 2 == 0 or not (1 <= s <= m):
        raise ValueError(f"s={s} must be odd with 1 <= s <= {m}")
    b0 = (1 << s) - 1
    b1 = ((1 << (2 * m)) - 1) ^ b0
    full = (1 << n) - 1
    adj = [full ^ (b1 if v < s else b0) ^ (1 << v) for v in range(2 * m)]
    for i in range(r - 2):
        adj.extend([full ^ (((1 << m) - 1) << (2 * m + i * m))] * m)
    return Graph(n, adj)


def ex2_witness(n: int, r: int, s: int) -> Ex2Witness:
    """Witness matching build_ex2's labeling."""
    m = n // r
    b0 = VertexSet((1 << s) - 1)
    b1 = VertexSet(((1 << (2 * m)) - 1) ^ b0.bits)
    parts = tuple(VertexSet(((1 << m) - 1) << (2 * m + i * m)) for i in range(r - 2))
    return Ex2Witness(parts, b0, b1)


def build_ex1_like(n: int, r: int) -> Graph:
    """Independent set of n/r + 1 low vertices joined to a clique on the rest."""
    if r < 2:
        raise ValueError("need r >= 2")
    if n % r != 0:
        raise ValueError(f"r={r} must divide n={n}")
    size = n // r + 1
    if size > n:
        raise ValueError("independent part larger than the graph")
    full = (1 << n) - 1
    imask = (1 << size) - 1
    adj = [0] * n
    for v in range(n):
        if v < size:
            adj[v] = full & ~imask
        else:
            adj[v] = full & ~(1 << v)
    return Graph(n, adj)


def build_obstruction(k: int, m: Optional[int] = None) -> Graph:
    """K_{k+1} when m is None, otherwise the biclique K_{m, 2k-m} (m odd)."""
    if k < 1:
        raise ValueError("need k >= 1")
    if m is None:
        return Graph.complete(k + 1)
    if m % 2 == 0 or not (1 <= m <= k):
        raise ValueError(f"m={m} must be odd with 1 <= m <= {k}")
    n = 2 * k
    a = (1 << m) - 1
    b = ((1 << n) - 1) ^ a
    adj = [0] * n
    for v in range(n):
        adj[v] = b if v < m else a
    return Graph(n, adj)


def _few_degrees(g: Graph) -> bool:
    """Whether the degrees of G take at most three values.

    An odd split has three: n - m on its independent parts, and n - 2m + s
    - 1 and n - s - 1 on the two sides of its clique pair; its complement
    has m - 1, 2m - s and s.  One set of the n row counts rules out any
    other graph.
    """
    return len(set(map(int.bit_count, g.adj))) <= 3


def _complement_components(g: Graph) -> Iterator[int]:
    """Masks of the components of G's complement, by ascending lowest vertex,
    each drawn only when asked for.  A search step takes a vertex's
    non-neighbours among the unvisited vertices straight from its row of G,
    so the complement is never built."""
    adj = g.adj
    rest = g.full_mask
    while rest:
        comp = frontier = rest & -rest
        rest ^= frontier
        while frontier:
            reached = 0
            for x in iter_bits(frontier):
                hit = rest & ~adj[x]
                if hit:
                    rest ^= hit
                    reached |= hit
            comp |= reached
            frontier = reached
        yield comp


def _recognize_ex2(g: Graph, r: int) -> Optional[Ex2Witness]:
    from .certificates import odd_split_holds

    n = g.n
    if r < 3 or n == 0 or n % r != 0 or not _few_degrees(g):
        return None
    m = n // r
    # In the complement the shape splits into r-2 clique components of size m
    # and one complete-bipartite one on the clique pair; r drawn show a surplus.
    comps = list(islice(_complement_components(g), r))
    if len(comps) != r - 1:
        return None
    a_parts: List[VertexSet] = []
    b_comp = 0
    for c in comps:
        if c.bit_count() == m:
            a_parts.append(VertexSet(c))
        elif c.bit_count() == 2 * m and not b_comp:
            b_comp = c
        else:
            return None
    if not b_comp or len(a_parts) != r - 2:
        return None
    # The lowest vertex of the pair, with its neighbours in G, is one side.
    low = b_comp & -b_comp
    side0 = b_comp & g.adj[low.bit_length() - 1] | low
    side1 = b_comp ^ side0
    if side0.bit_count() % 2 == 0 or side1.bit_count() % 2 == 0:
        return None
    if side0.bit_count() > side1.bit_count():
        side0, side1 = side1, side0
    s = side0.bit_count()
    if not (1 <= s <= m):
        return None
    w = Ex2Witness(tuple(a_parts), VertexSet(side0), VertexSet(side1))
    return w if odd_split_holds(g, w, r) else None


def _independent_heuristic(
    g: Graph, size: int, mask: int, degs: Optional[List[int]] = None
) -> Optional[VertexSet]:
    # Greedy by ascending degree inside the mask (ties by index), stopping
    # at `size` vertices, with one round of plateau swaps when it falls
    # short.  `degs` lists the degrees inside the mask of its vertices, in
    # ascending vertex order, when the caller has already counted them.
    verts = list(iter_bits(mask))
    if degs is None:
        degs = [(g.adj[v] & mask).bit_count() for v in verts]
    # A member of an independent `size`-set misses the other size - 1
    # members, so its degree inside the mask is at most |mask| - size.  The
    # count needs no order; the greedy's order is sorted only past it.
    if sum(map((len(verts) - size).__ge__, degs)) < size:
        return None
    order = [verts[i] for i in sorted(range(len(verts)), key=degs.__getitem__)]
    chosen = 0
    for v in order:
        if not (g.adj[v] & chosen):
            chosen |= 1 << v
            if chosen.bit_count() == size:
                return VertexSet(chosen)

    def lone(chosen: int) -> Dict[int, int]:
        # w -> mask of the unchosen vertices whose only chosen neighbor is w.
        masks: Dict[int, int] = {}
        for u in iter_bits(mask & ~chosen):
            c = g.adj[u] & chosen
            if c & (c - 1) == 0:
                w = c.bit_length() - 1
                masks[w] = masks.get(w, 0) | (1 << u)
        return masks

    # `chosen` stays maximal, so after swapping v in for its one chosen
    # neighbor w only the vertices whose lone chosen neighbor is w can join,
    # and the first of them not adjacent to v always does.  So the swap
    # gains exactly when such a vertex exists, and only then is it built.
    lone_of = lone(chosen)
    for v in order:
        if (chosen >> v) & 1:
            continue
        conflicts = g.adj[v] & chosen
        if conflicts.bit_count() == 1:
            w = conflicts.bit_length() - 1
            if lone_of[w] & ~g.adj[v] & ~(1 << v):
                trial = (chosen & ~conflicts) | (1 << v)
                for u in order:
                    if not ((trial >> u) & 1) and not (g.adj[u] & trial):
                        trial |= 1 << u
                chosen = trial
                lone_of = lone(chosen)
        if chosen.bit_count() >= size:
            return VertexSet(lowest_vertices(chosen, size))
    return None


def independent_set_of_size(
    g: Graph, size: int, inside: Optional[int] = None
) -> Optional[VertexSet]:
    """An independent set of exactly `size` vertices of `inside`, or None.

    `inside` is a vertex mask, all of V by default.  The search is exact
    up to 64 vertices of the mask (branch and bound, the result trimmed to
    its `size` lowest members) and greedy with plateau swaps beyond, so a
    None answer is only conclusive in the exact regime.  There a greedy
    clique cover of fewer than `size` cliques answers None before the
    search: no independent set meets a clique twice, so the search would
    find fewer than `size` vertices and return None too.
    """
    if size <= 0:
        return VertexSet(0)
    mask = g.full_mask if inside is None else inside
    if mask.bit_count() > EXACT_LIMIT:
        return _independent_heuristic(g, size, mask)
    if _clique_cover_count(g, mask, size) < size:
        return None
    found = max_independent_set(g, mask)
    return VertexSet(lowest_vertices(found.bits, size)) if len(found) >= size else None


def recognize_extremal(g: Graph, r: int) -> Optional[ExtremalWitness]:
    """Exact odd-split match, else an n/r + 1 independent set when one exists.

    The independent-set search is exact up to 64 vertices of the mask (here
    all of V) and greedy beyond, so a None answer is only conclusive at
    small n.  There the None often comes from a greedy clique cover of
    fewer than n/r + 1 cliques, before any search: an independent set meets
    each clique once at most, so the search's own answer would be None.
    """
    if g.n % r != 0 or r < 2:
        return None
    w2 = _recognize_ex2(g, r) if r >= 3 else None
    if w2 is not None:
        return w2
    cand = independent_set_of_size(g, g.n // r + 1)
    if cand is not None:
        return Ex1Witness(cand)
    return None


def find_biclique(g: Graph, a: int, b: int) -> Optional[Tuple[VertexSet, VertexSet]]:
    """Lexicographically first K_{a,b} subgraph (cross edges only), or None."""
    if a < 1 or b < 1 or a + b > g.n:
        return None
    swapped = a > b
    if swapped:
        a, b = b, a
    n = g.n

    def rec(start: int, chosen: int, count: int, common: int) -> Optional[Tuple[int, int]]:
        if count == a:
            pool = common & ~chosen
            if pool.bit_count() < b:
                return None
            side_b = 0
            for v in iter_bits(pool):
                side_b |= 1 << v
                if side_b.bit_count() == b:
                    break
            return chosen, side_b
        for v in range(start, n):
            if n - v < a - count:
                return None
            new_common = common & g.adj[v]
            new_chosen = chosen | (1 << v)
            if (new_common & ~new_chosen).bit_count() < b:
                continue
            hit = rec(v + 1, new_chosen, count + 1, new_common)
            if hit is not None:
                return hit
        return None

    hit = rec(0, 0, 0, g.full_mask)
    if hit is None:
        return None
    sa, sb = hit
    if swapped:
        sa, sb = sb, sa
    return VertexSet(sa), VertexSet(sb)
