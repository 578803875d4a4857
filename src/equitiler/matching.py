"""Maximum matchings (blossom algorithm), covering matchings, and the
perfect-matching decision with its Tutte–Berge certificate.

The blossom search processes exposed roots in ascending order and scans
neighbors in ascending order, so results are reproducible.  One search costs
the size of its alternating tree and the neighbour rows it reads: every
blossom base keeps the mask of its members, so a contraction walks only the
vertices it merges (Edmonds, "Paths, trees, and flowers", 1965).  Before
a search, `maximum_matching` looks for an augmenting path of three edges
from the root, read straight off the rows; when there is one, it is the
path the search would take, so the matching is the same and only the
search's blossom contractions are skipped.  On dense graphs the few
vertices the greedy seed leaves exposed are usually matched this way.
When a search from an exposed root of a maximum matching ends without
augmenting, its outer vertices are exactly those reachable from the root
by an even alternating path.  Their union over all exposed roots is the
set D of the Gallai–Edmonds decomposition, and U = N(D) - D is a
Tutte–Berge barrier: G - U has exactly n - 2*nu(G) more odd components
than U has vertices (Lovász–Plummer, *Matching Theory*).
"""

from __future__ import annotations

from collections import deque
from typing import List, NamedTuple, Optional, Set, Tuple, Union

from .errors import InternalContradiction, PreconditionError
from .graphs import Graph, VertexSet, iter_bits

__all__ = [
    "Matching",
    "TutteBarrier",
    "maximum_matching",
    "covering_matching",
    "pm_or_structure",
]


class Matching(NamedTuple):
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


def _augment_once(g: Graph, match: List[int], root: int, inside: int) -> Optional[int]:
    """Grow `match` by one edge via an alternating tree from exposed `root`.

    The tree stays inside the vertex mask `inside`.  Returns None after
    augmenting.  Otherwise `match` is untouched and the result is the mask
    of the tree's outer vertices, root included.

    Each blossom base keeps the mask of the vertices it stands for, so a
    contraction walks only the members of the bases it merges, in ascending
    order, and a popped vertex reads only the neighbours outside its own
    blossom.  Beyond two n-long arrays set up in C, one search costs the
    neighbour rows it reads plus O(blossom) per contraction, not O(n).
    """
    adj = g.adj
    parent = [-1] * g.n
    base = list(range(g.n))
    members = {}  # base -> mask of the vertices it stands for, once it heads a blossom
    outer = 1 << root
    q = deque([root])

    def lca(a: int, b: int) -> int:
        up = 0
        x = a
        while True:
            x = base[x]
            up |= 1 << x
            if match[x] == -1:
                break
            x = base[parent[match[x]]]
        y = b
        while not up >> base[y] & 1:
            y = base[parent[match[y]]]
        return base[y]

    def mark_path(v: int, b: int, child: int, marked: Set[int]) -> None:
        while base[v] != b:
            marked.add(base[v])
            marked.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    finish = -1
    while q and finish == -1:
        v = q.popleft()
        bv = base[v]
        for u in iter_bits(adj[v] & inside & ~members.get(bv, 1 << bv)):
            if base[v] == base[u] or match[v] == u:
                continue
            if u == root or (match[u] != -1 and parent[match[u]] != -1):
                b = lca(v, u)
                marked: Set[int] = set()
                mark_path(v, b, u, marked)
                mark_path(u, b, v, marked)
                merged = 0
                for x in marked:
                    merged |= members.pop(x, 1 << x)
                members[b] = members.get(b, 1 << b) | merged
                for i in iter_bits(merged):
                    base[i] = b
                fresh = merged & ~outer
                outer |= fresh
                q.extend(iter_bits(fresh))
            elif parent[u] == -1:
                parent[u] = v
                if match[u] == -1:
                    finish = u
                    break
                w = match[u]
                if not outer >> w & 1:
                    outer |= 1 << w
                    q.append(w)
    if finish == -1:
        return outer
    u = finish
    while u != -1:
        pv = parent[u]
        nxt = match[pv]
        match[u] = pv
        match[pv] = u
        u = nxt
    return None


def maximum_matching(g: Graph, inside: Optional[int] = None) -> Matching:
    """A maximum matching of G[inside] (default: all of V): greedy seed, then
    blossom augmentation.

    The seed matches each exposed vertex, in ascending order, to its lowest
    exposed neighbor; a mask of the exposed vertices, `inside` less both
    ends of each pair so far, keeps it at O(n) bit operations.  One
    augmentation pass per remaining exposed vertex then makes the matching
    maximum.

    The seed leaves no two exposed vertices adjacent, and augmenting only
    shrinks the exposed set, so no augmenting path has a single edge.
    Before the blossom search from a root, a path of three edges is read
    off the rows: for each neighbour u of the root, ascending, the lowest
    exposed neighbour x of w = match[u].  It is the path the search would
    augment along.  The search's queue after the root holds match[u] for u
    ascending, whether u was discovered or closed a triangle blossom with
    the root, and popping w it stops at w's lowest exposed neighbour, since
    an exposed vertex other than the root is in no blossom and has no
    parent.  The contractions it makes before that rewrite only the parents
    of outer vertices, and augmenting reads only parent[x] = w and
    parent[u], which stays the root.  The exposed set is kept as a mask:
    the root leaves it when its pass starts, since a root the search fails
    from can end no later augmenting path, and x leaves it once matched.
    """
    if inside is None:
        inside = g.full_mask
    adj = g.adj
    match = [-1] * g.n
    exposed = inside
    for v in iter_bits(inside):
        if match[v] == -1:
            free = adj[v] & exposed
            if free:
                low = free & -free
                u = low.bit_length() - 1
                match[v] = u
                match[u] = v
                exposed ^= (1 << v) | low
    for v in iter_bits(exposed):
        if match[v] != -1:
            continue
        exposed ^= 1 << v
        for u in iter_bits(adj[v] & inside):
            w = match[u]
            hit = adj[w] & exposed
            if hit:
                x = (hit & -hit).bit_length() - 1
                match[v], match[u], match[w], match[x] = u, v, x, w
                exposed ^= 1 << x
                break
        else:
            if _augment_once(g, match, v, inside) is None:
                exposed ^= next(1 << x for x in iter_bits(exposed) if match[x] != -1)
    return Matching.from_array(match)


def covering_matching(g: Graph, x: VertexSet, d: int) -> Optional[Matching]:
    """A matching of exactly d edges of G covering all of X (|X| = d), or None.

    Exact via reduction to a perfect matching: add n - 2d auxiliary vertices,
    numbered from n up, joined to V minus X; a perfect matching of the
    auxiliary graph restricts to a d-matching of G covering X, and conversely.
    """
    if len(x) != d:
        raise PreconditionError(f"|X|={len(x)} must equal d={d}")
    n = g.n
    extra = n - 2 * d
    if extra < 0:
        return None
    outside = g.full_mask & ~x.bits
    zs = ((1 << extra) - 1) << n
    adj = g.adj + [outside] * extra
    for v in iter_bits(outside):
        adj[v] |= zs
    pm = maximum_matching(Graph(n + extra, adj))
    if 2 * pm.size != n + extra:
        return None
    pairs = tuple(p for p in pm.pairs if p[1] < n)
    out = Matching(pairs)
    if out.size != d or not x.issubset(out.covered):
        raise InternalContradiction("perfect-matching reduction produced a bad cover")
    return out


class TutteBarrier(NamedTuple):
    """A set U whose removal leaves more odd components than |U|.

    Each odd component of G - U needs a partner in U for one of its vertices,
    so no perfect matching (a K_2-factor) exists; the surplus is exactly
    n - 2*nu(G) for the barrier `pm_or_structure` returns.  The decider
    checks a barrier with `certificates.tutte_barrier_holds`.
    """

    vertices: VertexSet


def pm_or_structure(g: Graph) -> Union[Matching, TutteBarrier]:
    """A perfect matching of G, or a Tutte–Berge barrier proving there is none.

    The barrier is N(D) - D, where D collects the outer vertices of the
    blossom search from every exposed vertex of a maximum matching.  A
    search that augments raises InternalContradiction, as the matching was
    not maximum; `decide._run` checks the barrier itself.
    """
    m = maximum_matching(g)
    n = g.n
    if 2 * m.size == n:
        return m
    match = m.to_array(n)
    d = 0
    for v in range(n):
        if match[v] == -1:
            outer = _augment_once(g, match, v, g.full_mask)
            if outer is None:
                raise InternalContradiction(f"maximum matching augmented from vertex {v}")
            d |= outer
    reach = 0
    for v in iter_bits(d):
        reach |= g.adj[v]
    return TutteBarrier(VertexSet(reach & ~d))
