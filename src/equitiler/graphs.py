"""Undirected simple graphs on vertex sets {0..n-1}, stored as bitset adjacency rows.

Rows are plain Python ints.  CPython stores an int as an array of 30-bit
digits, so at n = 960 a row is 32 digits, and every `&`, `|`, `-` or `^`
runs a C loop over them and allocates a fresh int for the result;
`bit_count` is one C pass with no allocation.  Set algebra on whole masks is
therefore cheap, but a Python loop that peels one bit per step pays three
such operations per vertex.  That is why `iter_bits` walks wide, well-filled
masks in C instead.  Every operation that has to break a tie does so toward
the lowest vertex index; that convention is relied on throughout the package
to keep outputs reproducible.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from fractions import Fraction
from itertools import compress
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InternalContradiction

__all__ = [
    "Graph",
    "VertexSet",
    "OreStats",
    "as_fraction",
    "iter_bits",
    "mask_of",
    "sigma",
    "complement",
    "ore_edge_bound",
    "induced_edge_count",
    "low_degree_set",
    "iter_cliques",
    "find_clique_of_size",
    "max_clique",
    "max_independent_set",
    "connected_components",
    "lowest_vertices",
]


# iter_bits walks a mask in C when it is wider than _WIDE_BITS and more than
# one bit in _DENSE_PER_BIT is set.  From 65 to 960 bits a full walk costs
# the same both ways at about one set bit in eight.
_WIDE_BITS = 64
_DENSE_PER_BIT = 8
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


def iter_bits(mask: int) -> Iterator[int]:
    """The set bit positions of `mask`, as a lazy ascending iterator.

    A narrow or sparse mask is peeled one lowest bit at a time, three
    big-int operations per yield.  A wide, well-filled mask is reversed into
    its binary string once, and `itertools.compress` picks the positions of
    its ones in C: at 960 bits and 90 % density a full walk drops from
    about 270 to 35 us (2-core host, Python 3.11).  The C walk costs about
    3 us up front, so masks of at most 64 bits, the ones the exact search
    and the sweeps walk millions of times, and sparse wide masks keep the
    peel.
    """
    width = mask.bit_length()
    if width > _WIDE_BITS and mask.bit_count() * _DENSE_PER_BIT > width:
        return compress(range(width), bin(mask)[:1:-1].encode().translate(_BIT_SELECTORS))
    return _peel_bits(mask)


def _peel_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def as_fraction(x) -> Fraction:
    """Coerce int/str/Fraction/float to an exact Fraction.

    Floats go through their decimal repr, so as_fraction(0.3) == Fraction(3, 10)
    rather than the binary expansion.  Decision thresholds in this package are
    always compared exactly.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


class VertexSet:
    """Immutable vertex subset backed by one bitmask."""

    __slots__ = ("bits",)

    def __init__(self, bits: int | Iterable[int] = 0):
        if not isinstance(bits, int):
            bits = mask_of(bits)
        if bits < 0:
            raise ValueError("negative bitmask")
        # The slot descriptor's own setter, past the guard below.
        _set_bits(self, bits)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("VertexSet is immutable")

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __contains__(self, v: int) -> bool:
        return v >= 0 and (self.bits >> v) & 1 == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("VertexSet", self.bits))

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.bits & other.bits)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.bits | other.bits)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.bits & ~other.bits)

    def __xor__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.bits ^ other.bits)

    def issubset(self, other: "VertexSet") -> bool:
        return self.bits & ~other.bits == 0

    def members(self) -> Tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __repr__(self) -> str:
        return f"VertexSet({list(iter_bits(self.bits))})"


_set_bits = VertexSet.bits.__set__


class Graph:
    """Simple undirected graph; `adj[v]` is the neighbor bitmask of v.

    Rows are symmetric (bit v of `adj[u]` is bit u of `adj[v]`), hold no
    bit of their own vertex and none at n or above.  `add_edge`,
    `complement`, `decide.pad_to_divisible` and the readers of `graphio`
    keep them so, and the checks that read each pair of a set once, from
    its higher member's row, rely on it.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: List[int]):
        self.n = n
        self.adj = adj

    @staticmethod
    def empty(n: int) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        return Graph(n, [0] * n)

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, [full ^ (1 << v) for v in range(n)])

    @staticmethod
    def from_edges(n: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        g = Graph.empty(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
        if (self.adj[u] >> v) & 1:
            raise ValueError(f"duplicate edge ({u},{v})")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def copy(self) -> "Graph":
        return Graph(self.n, list(self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> List[int]:
        return [a.bit_count() for a in self.adj]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> Iterator[Tuple[int, int]]:
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1)
            for j in iter_bits(higher):
                yield (u, u + 1 + j)

    def is_clique(self, mask: int) -> bool:
        """Whether `mask` is a clique: each member's row, with the member
        itself added, covers the mask.  One test per member, peeled inline
        with no generator, since most masks asked are a tile of a few
        vertices."""
        adj = self.adj
        rest = mask
        while rest:
            low = rest & -rest
            if (adj[low.bit_length() - 1] | low) & mask != mask:
                return False
            rest ^= low
        return True

    def common_neighbors(self, mask: int) -> int:
        """Bitmask of vertices adjacent to every vertex of `mask`; V for mask=0.

        A one-vertex mask returns its row itself.  A wider one is peeled
        inline from its top member down, with no generator: the masks asked
        are a clique's few vertices.  No row holds its own vertex, so the
        meet of the rows already leaves the mask out.
        """
        if not mask:
            return self.full_mask
        adj = self.adj
        top = mask.bit_length() - 1
        out = adj[top]
        rest = mask ^ (1 << top)
        while rest:
            top = rest.bit_length() - 1
            out &= adj[top]
            rest ^= 1 << top
        return out

    def induced(self, mask: int) -> Tuple["Graph", List[int]]:
        """Induced subgraph plus the old labels of its (reindexed) vertices.

        Each kept row is compressed in C: rendered once as an n-character bit
        string (most significant bit first), the kept columns picked out by
        one precomputed `itemgetter` in descending label order, and the
        picked characters read back as a base-2 integer.
        """
        verts = list(iter_bits(mask))
        if len(verts) <= 1:
            # No edges, and itemgetter on one index returns a bare character.
            return Graph.empty(len(verts)), verts
        n = self.n
        width = f"0{n}b"
        pick = itemgetter(*[n - 1 - v for v in reversed(verts)])
        adj = self.adj
        rows = [int("".join(pick(format(adj[v] & mask, width))), 2) for v in verts]
        return Graph(len(verts), rows), verts

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(f"n={self.n};".encode())
        for u, v in self.edges():
            h.update(f"{u},{v};".encode())
        return h.hexdigest()

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and other.n == self.n and other.adj == self.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


class OreStats(NamedTuple):
    """Degree-sum floor over non-adjacent pairs, and the pair that sets it.

    `sigma` is math.inf exactly when the graph is complete (no non-adjacent
    pair exists); `witness` is then None, otherwise the lexicographically
    smallest minimizing pair.
    """

    sigma: float | int
    witness: Optional[Tuple[int, int]]


def _degree_levels(degs: Sequence[int]) -> List[Tuple[int, int]]:
    """(degree, mask of the vertices of that degree), ascending by degree."""
    levels: Dict[int, int] = {}
    for v, d in enumerate(degs):
        levels[d] = levels.get(d, 0) | 1 << v
    return sorted(levels.items())


class _LazyLevels(dict):
    """Key -> mask of the vertices in `buckets[key]`, built on first read."""

    def __init__(self, buckets: Dict[int, List[int]]):
        super().__init__()
        self.buckets = buckets

    def __missing__(self, key: int) -> int:
        mask = self[key] = mask_of(self.buckets.get(key, ()))
        return mask


def _least_pair(
    adj: List[int], keys: List[int], bit: int
) -> Tuple[float | int, Optional[Tuple[int, int]]]:
    """The least keys[u] + keys[v] over pairs u < v with bit v of adj[u]
    equal to `bit`, and the lexicographically first pair at that sum;
    (math.inf, None) when no pair qualifies.

    The first pass takes the key levels in ascending order.  Each vertex u
    of a level meets its partner row with the levels of no smaller key, in
    order, up to its first hit: a partner of smaller key has already met u
    from its own level.  The pass stops once no sum can beat the best, and
    no vertex makes more than one meet per level.  The second pass takes the
    vertices that can still be the lower end of a best pair, in index order,
    and meets the later part of u's partner row with the level of key
    best - key(u): the first hit closes the pair at its lowest partner.
    The vertices are bucketed by key into lists, and a level's mask is
    built only when a pass first reads it: most passes read a few levels.
    """
    buckets: Dict[int, List[int]] = defaultdict(list)
    for v, k in enumerate(keys):
        buckets[k].append(v)
    ks = sorted(buckets)
    levels = _LazyLevels(buckets)
    # An int above every sum stands in for infinity: comparing ints is
    # cheaper than comparing with a float.
    none = best = 2 * max(keys, default=0) + 1
    for j, ku in enumerate(ks):
        if ku + ku >= best:
            break
        above = ks[j:]
        for u in buckets[ku]:
            if ku + ku >= best:
                break
            row = adj[u] if bit else ~(adj[u] | 1 << u)
            for d in above:
                if ku + d >= best:
                    break
                if row & levels[d]:
                    best = ku + d
                    break
    if best == none:
        return math.inf, None
    cut = best - ks[0]
    for u in compress(range(len(adj)), map(cut.__ge__, keys)):
        meet = ((adj[u] if bit else ~adj[u]) & levels[best - keys[u]]) >> u + 1
        if meet:
            return best, (u, u + (meet & -meet).bit_length())
    raise InternalContradiction("no pair at the least degree sum")


def sigma(g: Graph) -> OreStats:
    """The least d(u)+d(v) over non-adjacent pairs u < v, and its first pair.

    The sum is math.inf and the pair None when g is complete.  Two passes
    over the degree levels (`_least_pair`): the first stops as soon as no
    lower sum is left to find, where a walk from every vertex would meet
    the levels n times over.
    """
    return OreStats(*_least_pair(g.adj, g.degrees(), 0))


def complement(g: Graph) -> Graph:
    """The graph on the same vertices with exactly the missing edges.

    A row holds neither its own bit nor bits at n or above (`add_edge` and
    the readers keep it so), so XOR with the full mask and the row's own
    bit flips exactly the other n - 1 positions.  Two XORs of non-negative
    ints cost about a third of a negate and two masks (timeit at n = 960).
    """
    full = g.full_mask
    return Graph(g.n, [full ^ (1 << v) ^ row for v, row in enumerate(g.adj)])


def ore_edge_bound(g: Graph, k: int) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Whether every edge xy has d(x)+d(y) <= 2k, plus the worst edge.

    The returned edge maximizes the degree sum (lexicographically smallest on
    ties); None iff the graph has no edges.  The same two passes as `sigma`,
    mirrored: negated degrees, over neighbours.
    """
    least, worst = _least_pair(g.adj, [-d for d in g.degrees()], 1)
    return (-1 if worst is None else -least) <= 2 * k, worst


def induced_edge_count(g: Graph, mask: int) -> int:
    total = 0
    for v in iter_bits(mask):
        total += (g.adj[v] & mask).bit_count()
    return total // 2


def low_degree_set(g: Graph, threshold) -> VertexSet:
    """Vertices of degree strictly below `threshold` (exact rational compare).

    Degrees are integers, so d < t exactly when d < ceil(t): one exact
    rounding, then n integer comparisons.
    """
    t = math.ceil(as_fraction(threshold))
    return VertexSet(mask_of(v for v, d in enumerate(g.degrees()) if d < t))


def iter_cliques(g: Graph, size: int, inside: int) -> Iterator[int]:
    """Every `size`-clique of vertices of `inside`, as masks.

    Cliques come in lexicographic order of their vertex tuples: each picked
    vertex restricts the candidates to its higher-index neighbours, and a
    branch whose candidates cannot fill the clique is skipped, since it
    would yield nothing.
    """
    if size == 0:
        yield 0
    elif 0 < size <= inside.bit_count():
        yield from _clique_walk(g.adj, 0, size, inside)


def _clique_walk(adj: List[int], chosen: int, need: int, cand: int) -> Iterator[int]:
    rest = cand
    while rest:
        low = rest & -rest
        rest ^= low
        if need == 1:
            yield chosen | low
            continue
        nxt = rest & adj[low.bit_length() - 1]
        if nxt.bit_count() >= need - 1:
            yield from _clique_walk(adj, chosen | low, need - 1, nxt)
        if rest.bit_count() < need:
            return


def find_clique_of_size(
    g: Graph, r: int, inside: VertexSet | int | None = None
) -> Optional[VertexSet]:
    """Lexicographically first r-clique inside `inside` (default: all of V)."""
    if r < 0:
        raise ValueError("clique size must be nonnegative")
    if inside is None:
        allowed = g.full_mask
    elif isinstance(inside, VertexSet):
        allowed = inside.bits
    else:
        allowed = inside
    hit = next(iter_cliques(g, r, allowed), None)
    return None if hit is None else VertexSet(hit)


def max_clique(g: Graph, inside: int | None = None) -> VertexSet:
    """Maximum clique via greedy-coloring branch and bound.

    Deterministic: candidate vertices are expanded in ascending index order
    and the first optimum found is kept.
    """
    allowed = g.full_mask if inside is None else inside
    best_mask = 0
    best_size = 0

    def color_bound(cand: int) -> Tuple[List[int], List[int]]:
        # Greedy clique cover of cand; vertex order + bound per vertex.
        order: List[int] = []
        bounds: List[int] = []
        color = 0
        rest = cand
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= ~g.adj[v]
                avail ^= low
                rest ^= low
                order.append(v)
                bounds.append(color)
        return order, bounds

    def expand(chosen: int, size: int, cand: int) -> None:
        nonlocal best_mask, best_size
        order, bounds = color_bound(cand)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best_size:
                return
            v = order[i]
            cand &= ~(1 << v)
            new_chosen = chosen | (1 << v)
            new_cand = cand & g.adj[v]
            if size + 1 > best_size:
                best_size = size + 1
                best_mask = new_chosen
            if new_cand:
                expand(new_chosen, size + 1, new_cand)

    expand(0, 0, allowed)
    return VertexSet(best_mask)


def _clique_cover_count(g: Graph, mask: int, stop: int) -> int:
    """The number of cliques in a greedy clique cover of G[mask], counted up
    to `stop`.

    Each clique starts at the lowest uncovered vertex and takes its lowest
    uncovered common neighbours.  An independent set meets each clique of a
    cover at most once, so alpha(G[mask]) is at most the full count, and a
    return below `stop` proves that G[mask] has no independent set of
    `stop` vertices (the colouring bound of Tomita & Seki's max-clique
    search, on the complement).  One pass, no search.
    """
    adj = g.adj
    count = 0
    rest = mask
    while rest and count < stop:
        count += 1
        cand = rest
        while cand:
            low = cand & -cand
            rest ^= low
            cand &= adj[low.bit_length() - 1]
    return count


def max_independent_set(g: Graph, inside: int | None = None) -> VertexSet:
    return max_clique(complement(g), inside)


def connected_components(g: Graph, inside: int | None = None) -> Iterator[VertexSet]:
    """Components of G[inside] (default: all of V), by ascending lowest
    vertex, each found only when drawn: a caller may stop at what it reads."""
    allowed = g.full_mask if inside is None else inside
    adj = g.adj
    rest = allowed
    while rest:
        frontier = rest & -rest
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= adj[u]
            frontier = nxt & allowed & ~comp
        yield VertexSet(comp)
        rest &= ~comp


def lowest_vertices(mask: int, count: int) -> int:
    """The `count` lowest vertices of `mask` (all of them when it has fewer)."""
    out = 0
    for _ in range(count):
        if not mask:
            break
        low = mask & -mask
        out |= low
        mask ^= low
    return out
