"""Maximum matchings (blossom algorithm), covering matchings, and the
structured perfect-matching trichotomy for graphs with large degree-sum floor.

The blossom search processes exposed roots in ascending order and scans
neighbors in ascending order, so results are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .errors import InternalContradiction, PreconditionError
from .graphs import (
    Graph,
    VertexSet,
    as_fraction,
    connected_components,
    gamma_independent,
    induced_edge_count,
    iter_bits,
    sigma,
)

__all__ = [
    "Matching",
    "maximum_matching",
    "covering_matching",
    "sn_sets",
    "PerfectMatching",
    "NearIndependentSet",
    "TwoOddComponents",
    "PMOutcome",
    "pm_or_structure",
]


@dataclass(frozen=True)
class Matching:
    """Vertex-disjoint edge set, pairs normalized as (min, max) and sorted."""

    pairs: Tuple[Tuple[int, int], ...]

    @staticmethod
    def from_array(match: List[int]) -> "Matching":
        pairs = sorted((v, match[v]) for v in range(len(match)) if 0 <= match[v] and v < match[v])
        return Matching(tuple(pairs))

    def to_array(self, n: int) -> List[int]:
        match = [-1] * n
        for u, v in self.pairs:
            match[u] = v
            match[v] = u
        return match

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def covered(self) -> VertexSet:
        bits = 0
        for u, v in self.pairs:
            bits |= (1 << u) | (1 << v)
        return VertexSet(bits)

    def partner(self, v: int) -> Optional[int]:
        for a, b in self.pairs:
            if a == v:
                return b
            if b == v:
                return a
        return None

    def verify(self, g: Graph) -> bool:
        seen = 0
        for u, v in self.pairs:
            e = (1 << u) | (1 << v)
            if seen & e or not g.has_edge(u, v):
                return False
            seen |= e
        return True


def _augment_once(g: Graph, match: List[int], root: int) -> bool:
    """Grow `match` by one edge via an alternating tree from exposed `root`."""
    n = g.n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_queue[root] = True
    q = deque([root])

    def lca(a: int, b: int) -> int:
        up = [False] * n
        x = a
        while True:
            x = base[x]
            up[x] = True
            if match[x] == -1:
                break
            x = base[parent[match[x]]]
        y = b
        while not up[base[y]]:
            y = base[parent[match[y]]]
        return base[y]

    def mark_path(v: int, b: int, child: int, blossom: List[bool]) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    finish = -1
    while q and finish == -1:
        v = q.popleft()
        for u in iter_bits(g.adj[v]):
            if base[v] == base[u] or match[v] == u:
                continue
            if u == root or (match[u] != -1 and parent[match[u]] != -1):
                b = lca(v, u)
                blossom = [False] * n
                mark_path(v, b, u, blossom)
                mark_path(u, b, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = b
                        if not in_queue[i]:
                            in_queue[i] = True
                            q.append(i)
            elif parent[u] == -1:
                parent[u] = v
                if match[u] == -1:
                    finish = u
                    break
                w = match[u]
                if not in_queue[w]:
                    in_queue[w] = True
                    q.append(w)
    if finish == -1:
        return False
    u = finish
    while u != -1:
        pv = parent[u]
        nxt = match[pv]
        match[u] = pv
        match[pv] = u
        u = nxt
    return True


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching: greedy seed, then blossom augmentation.

    The seed matches each exposed vertex, in ascending order, to its lowest
    exposed neighbor; a running mask of covered vertices keeps it at O(n)
    bit operations.  One augmentation pass per remaining exposed vertex
    then makes the matching maximum.
    """
    match = [-1] * g.n
    covered = 0
    for v in range(g.n):
        if match[v] == -1:
            free = g.adj[v] & ~covered
            if free:
                u = (free & -free).bit_length() - 1
                match[v] = u
                match[u] = v
                covered |= (1 << v) | (1 << u)
    for v in range(g.n):
        if match[v] == -1:
            _augment_once(g, match, v)
    return Matching.from_array(match)


def covering_matching(g: Graph, x: VertexSet, d: int) -> Optional[Matching]:
    """A matching of exactly d edges covering all of X (|X| = d), or None.

    Exact via reduction to a perfect matching: add n - 2d auxiliary vertices
    joined to V minus X; a perfect matching of the auxiliary graph restricts
    to a d-matching of G covering X, and conversely.
    """
    if len(x) != d:
        raise PreconditionError(f"|X|={len(x)} must equal d={d}")
    n = g.n
    if 2 * d > n:
        return None
    aux = Graph.empty(n + (n - 2 * d))
    for u, v in g.edges():
        aux.add_edge(u, v)
    outside = g.full_mask & ~x.bits
    for i in range(n - 2 * d):
        z = n + i
        for v in iter_bits(outside):
            aux.add_edge(z, v)
    pm = maximum_matching(aux)
    if 2 * pm.size != aux.n:
        return None
    pairs = tuple(p for p in pm.pairs if p[1] < n)
    out = Matching(pairs)
    if out.size != d or not x.issubset(out.covered):
        raise InternalContradiction("perfect-matching reduction produced a bad cover")
    return out


def sn_sets(g: Graph, m: Matching, v: int) -> VertexSet:
    """Partners of v's neighbors under m; requires v exposed.

    Every neighbor of an exposed vertex is matched when m is maximum, so the
    result has exactly deg(v) members there.
    """
    match = m.to_array(g.n)
    if match[v] != -1:
        raise PreconditionError(f"vertex {v} is covered")
    bits = 0
    for u in iter_bits(g.adj[v]):
        if match[u] == -1:
            raise PreconditionError(f"neighbor {u} of exposed {v} is exposed; matching not maximum")
        bits |= 1 << match[u]
    return VertexSet(bits)


@dataclass(frozen=True)
class PerfectMatching:
    matching: Matching


@dataclass(frozen=True)
class NearIndependentSet:
    """Half the vertex set spanning at most 2*gamma*n^2 edges."""

    vertices: VertexSet
    exposed_pair: Tuple[int, int]


@dataclass(frozen=True)
class TwoOddComponents:
    sides: Tuple[VertexSet, VertexSet]
    clique_sides: Tuple[bool, bool]


PMOutcome = Union[PerfectMatching, NearIndependentSet, TwoOddComponents]


def pm_or_structure(g: Graph, gamma) -> PMOutcome:
    """Perfect matching, or one of the two obstructing shapes.

    Requires n even and sigma(G) >= n - gamma*n.  Every returned structure is
    verified before it is handed back; a verification failure raises
    InternalContradiction since the hypotheses rule it out.
    """
    gam = as_fraction(gamma)
    n = g.n
    if n % 2 != 0:
        raise PreconditionError(f"n={n} is odd")
    st = sigma(g)
    if not st.is_complete and st.sigma < n - gam * n:
        raise PreconditionError(f"sigma={st.sigma} below n - gamma n = {n - gam * n}")

    m = maximum_matching(g)
    if 2 * m.size == n:
        return PerfectMatching(m)

    comps = connected_components(g)
    if len(comps) == 2 and len(comps[0]) % 2 == 1 and len(comps[1]) % 2 == 1:
        flags = []
        for side in comps:
            small = 2 * len(side) <= (1 - gam) * n
            if small and not g.is_clique(side.bits):
                raise InternalContradiction(
                    f"odd component of size {len(side)} is small but not a clique"
                )
            flags.append(small)
        return TwoOddComponents((comps[0], comps[1]), (flags[0], flags[1]))

    exposed = [v for v in range(n) if v not in m.covered]
    if len(exposed) < 2:
        raise InternalContradiction("no perfect matching yet fewer than two exposed vertices")
    x, y = exposed[0], exposed[1]
    common = sn_sets(g, m, x) & sn_sets(g, m, y)
    chosen = common.bits | (1 << x) | (1 << y)
    # Pad to n/2 vertices, low degree first; the common-partner core is
    # independent, so padding is what spends the edge budget.
    pad_order = sorted(
        (v for v in range(n) if not (chosen >> v) & 1), key=lambda v: (g.degree(v), v)
    )
    for v in pad_order:
        if chosen.bit_count() >= n // 2:
            break
        chosen |= 1 << v
    if chosen.bit_count() > n // 2:
        # Core already larger than n/2: keep x, y and the lowest core members.
        keep = (1 << x) | (1 << y)
        for v in iter_bits(common.bits):
            if keep.bit_count() >= n // 2:
                break
            keep |= 1 << v
        chosen = keep
    if chosen.bit_count() != n // 2 or not gamma_independent(g, chosen, 2 * gam):
        raise InternalContradiction(
            f"near-independent construction failed: size {chosen.bit_count()}, "
            f"induced edges {induced_edge_count(g, chosen)}"
        )
    return NearIndependentSet(VertexSet(chosen), (x, y))
