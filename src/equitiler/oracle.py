"""Exhaustive exact deciders for clique factors and equitable colorings.

These are the reference implementations: small-case complete searches with
sound pruning, no heuristics that could change answers.  The factor search
always expands the lowest-index uncovered vertex and enumerates candidate
cliques in lexicographic order; the colouring search places vertices in a
fixed degree order and tries classes in index order.  Every prune cuts only
subtrees that hold no solution and leaves the order of the rest alone, so the
first solution found, and hence every returned witness, is reproducible and
does not depend on which prunes ran.  The colouring search has two such
prunes, fill and cover (see `equitable_coloring_exact`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .graphs import Graph, VertexSet, find_clique_of_size, iter_bits, iter_cliques

__all__ = [
    "Tiling",
    "Coloring",
    "LayeredFactor",
    "kr_factor_exact",
    "equitable_coloring_exact",
    "is_absorber_set",
]


@dataclass(frozen=True)
class Tiling:
    """Vertex-disjoint r-cliques; a factor when they cover all of V."""

    r: int
    cliques: Tuple[VertexSet, ...]

    @property
    def covered(self) -> VertexSet:
        bits = 0
        for c in self.cliques:
            bits |= c.bits
        return VertexSet(bits)

    def verify(self, g: Graph, require_factor: bool = True) -> bool:
        seen = 0
        for c in self.cliques:
            if len(c) != self.r:
                return False
            if seen & c.bits:
                return False
            if not g.is_clique(c.bits):
                return False
            seen |= c.bits
        if require_factor and seen != g.full_mask:
            return False
        return True


@dataclass(frozen=True)
class Coloring:
    """Color classes as a vertex partition; equitable when sizes differ by <= 1."""

    classes: Tuple[VertexSet, ...]

    @property
    def k(self) -> int:
        return len(self.classes)

    def verify(self, g: Graph, equitable: bool = True) -> bool:
        seen = 0
        for cls in self.classes:
            if seen & cls.bits:
                return False
            seen |= cls.bits
            if not g.is_independent(cls.bits):
                return False
        if seen != g.full_mask:
            return False
        if equitable:
            sizes = [len(c) for c in self.classes]
            if sizes and max(sizes) - min(sizes) > 1:
                return False
        return True


@dataclass(frozen=True)
class LayeredFactor:
    """Partition of V into cliques, bucketed by clique size s = r, r-1, ..., 1.

    `profile()` is (count of K_r pieces, ..., count of K_1 pieces);
    `absorbing.layered_greedy` raises it lexicographically by local moves.
    """

    r: int
    layers: Dict[int, Tuple[VertexSet, ...]]

    def profile(self) -> Tuple[int, ...]:
        return tuple(len(self.layers.get(s, ())) for s in range(self.r, 0, -1))

    def verify(self, g: Graph) -> bool:
        seen = 0
        for s, pieces in self.layers.items():
            for p in pieces:
                if len(p) != s or (seen & p.bits) or not g.is_clique(p.bits):
                    return False
                seen |= p.bits
        return seen == g.full_mask


def _residual_infeasible(g: Graph, mask: int, r: int) -> bool:
    """Sound pruning for factor search on the uncovered set `mask`.

    (a) some uncovered vertex has fewer than r-1 uncovered neighbors;
    (b) a greedy independent set (min residual degree first) exceeds
        |mask| / r, while any factor can host at most one independent
        vertex per clique.
    """
    degs: Dict[int, int] = {}
    for v in iter_bits(mask):
        d = (g.adj[v] & mask).bit_count()
        if d < r - 1:
            return True
        degs[v] = d
    quota = mask.bit_count() // r
    picked = 0
    rest = mask
    while rest:
        best_v = -1
        best_d = 1 << 30
        for v in iter_bits(rest):
            d = (g.adj[v] & rest).bit_count()
            if d < best_d:
                best_d = d
                best_v = v
        picked += 1
        if picked > quota:
            return True
        rest &= ~(g.adj[best_v] | (1 << best_v))
    return False


def kr_factor_exact(g: Graph, r: int, inside: Optional[int] = None) -> Optional[Tiling]:
    """Exact K_r-factor of G[inside]: a partition of it into r-cliques, or None.

    `inside` is a vertex mask, all of V by default.  Requires r >= 1 and r
    dividing its size.  Complete backtracking; prunes keep the obstructed
    instances in this package's test families cheap, but the worst case is
    exponential, so callers gate on an exact-size cap.
    """
    mask = g.full_mask if inside is None else inside
    if r < 1:
        raise ValueError("r must be positive")
    if mask.bit_count() % r != 0:
        raise ValueError(f"r={r} does not divide n={mask.bit_count()}")
    if r == 1:
        # The sweeps make this call for every small graph; range() is the
        # cheaper walk there.
        verts = range(g.n) if inside is None else iter_bits(mask)
        return Tiling(1, tuple(VertexSet(1 << v) for v in verts))

    pieces: List[int] = []

    def search(mask: int) -> bool:
        if mask == 0:
            return True
        if _residual_infeasible(g, mask, r):
            return False
        low = mask & -mask
        for c in iter_cliques(g, r, mask & g.adj[low.bit_length() - 1], low):
            pieces.append(c)
            if search(mask & ~c):
                return True
            pieces.pop()
        return False

    if search(mask):
        return Tiling(r, tuple(VertexSet(c) for c in pieces))
    return None


def _class_profile(n: int, k: int) -> List[int]:
    big = n % k
    q = n // k
    return [q + 1] * big + [q] * (k - big)


def equitable_coloring_exact(g: Graph, k: int) -> Optional[Coloring]:
    """Exact equitable k-coloring (proper, class sizes within 1), or None.

    Greedy attempt first, then complete backtracking over a static
    degree-descending vertex order, trying classes in index order, with
    capacity and empty-class symmetry pruning.  A (k+1)-clique
    short-circuits to None.

    Two more prunes test each child after its vertex is placed.  Call the
    unplaced vertices `rest`, and the vertices of `rest` that a non-full
    class could still take its free set.  Fill: every non-full class needs
    at least as many free vertices as it has places left.  Cover: every
    vertex of `rest` must be free for some non-full class.  Each is a
    necessary condition for completing the partial colouring, so a child
    that fails one has no colouring below it, and skipping it leaves the
    remaining children in the same order: the search returns the colouring
    the unpruned search returns, class by class, and None exactly when it
    does.  The tests cost O(k) mask operations per node, so they arm only at
    the first dead end: an input that colours on the first descent never
    pays for them.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = g.n
    if n == 0:
        return Coloring(tuple(VertexSet(0) for _ in range(k)))
    if k >= n:
        classes = [VertexSet(1 << v) for v in range(n)]
        classes += [VertexSet(0)] * (k - n)
        return Coloring(tuple(classes))
    if find_clique_of_size(g, k + 1) is not None:
        return None

    caps = _class_profile(n, k)
    degs = g.degrees()
    # sorted stays stable under reverse=True: equal degrees keep index order.
    order = sorted(range(n), key=degs.__getitem__, reverse=True)

    # Greedy: largest remaining capacity first, feasibility by neighbor masks.
    class_bits = [0] * k
    counts = [0] * k
    assign = [-1] * n
    for v in order:
        best = -1
        for c in range(k):
            if counts[c] >= caps[c] or (class_bits[c] & g.adj[v]):
                continue
            if best == -1 or caps[c] - counts[c] > caps[best] - counts[best]:
                best = c
        if best == -1:
            # The greedy is stuck; the complete search decides.
            assign = _backtrack(g, caps, order)
            if assign is None:
                return None
            break
        assign[v] = best
        class_bits[best] |= 1 << v
        counts[best] += 1

    bits = [0] * k
    for v, c in enumerate(assign):
        bits[c] |= 1 << v
    return Coloring(tuple(VertexSet(b) for b in bits))


def _backtrack(g: Graph, caps: List[int], order: List[int]) -> Optional[List[int]]:
    """The class of each vertex in the first equitable colouring the
    backtracking of `equitable_coloring_exact` reaches, or None.

    Kept apart from the caller so that the short calls, which end before the
    search, do not set up its closures.
    """
    n = g.n
    k = len(caps)
    adj = g.adj
    # near[c] is the union of the neighbour rows of class c; a vertex can
    # join c iff it is outside near[c].
    near = [0] * k
    counts = [0] * k
    assign = [-1] * n
    armed = False

    def feasible(rest: int) -> bool:
        # Fill: a non-full class needs enough unplaced vertices it can take.
        # Cover: every unplaced vertex needs a non-full class that can take it.
        stuck = rest
        for c in range(k):
            need = caps[c] - counts[c]
            if need:
                if (rest & ~near[c]).bit_count() < need:
                    return False
                stuck &= near[c]
        return not stuck

    def place(idx: int, rest: int) -> bool:
        nonlocal armed
        if idx == n:
            return True
        v = order[idx]
        bit = 1 << v
        rest ^= bit
        row = adj[v]
        seen_empty_cap = 0
        for c in range(k):
            cnt = counts[c]
            if cnt >= caps[c]:
                continue
            if cnt == 0:
                if seen_empty_cap >> caps[c] & 1:
                    continue
                seen_empty_cap |= 1 << caps[c]
            old = near[c]
            if old & bit:
                continue
            near[c] = old | row
            counts[c] = cnt + 1
            assign[v] = c
            if not armed or feasible(rest):
                if place(idx + 1, rest):
                    return True
                armed = True
            near[c] = old
            counts[c] = cnt
            assign[v] = -1
        return False

    return assign if place(0, g.full_mask) else None


def is_absorber_set(g: Graph, s_bits: int, q_bits: int, r: int) -> bool:
    """Whether S absorbs Q: both G[S] and G[S u Q] have K_r-factors."""
    if s_bits & q_bits:
        return False
    return (
        kr_factor_exact(g, r, s_bits) is not None
        and kr_factor_exact(g, r, s_bits | q_bits) is not None
    )
