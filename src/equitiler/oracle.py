"""The exact decider for equitable colourings, and clique factors through it.

One complete search answers both questions.  G[inside] has a K_r-factor
exactly when its complement has an equitable (|inside|/r)-colouring, so
`kr_factor_exact` colours the complement rows with the search of
`equitable_coloring_exact`.  The search is the reference: complete, with
sound pruning and no heuristic that could change an answer.  It places
vertices in a fixed degree order and tries classes in index order.  Every
prune cuts only subtrees that hold no solution and leaves the order of the
rest alone, so the first solution found, and hence every returned witness,
is reproducible and does not depend on which prunes ran.  There are three
prunes, fill, cover and independence, and two commit rules: a vertex only
one class can still take goes into that class, and a class with exactly as
many candidates as places left takes them all (see
`equitable_coloring_exact`).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .graphs import Graph, VertexSet, _clique_walk, iter_bits

# The rows the colouring search reads: a graph's, or a dict of them by vertex.
Rows = Union[List[int], Dict[int, int]]

__all__ = [
    "Tiling",
    "Coloring",
    "LayeredFactor",
    "kr_factor_exact",
    "equitable_coloring_exact",
    "is_absorber_set",
]


class Tiling(NamedTuple):
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


class Coloring(NamedTuple):
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


class LayeredFactor(NamedTuple):
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


def kr_factor_exact(g: Graph, r: int, inside: Optional[int] = None) -> Optional[Tiling]:
    """Exact K_r-factor of G[inside]: a partition of it into r-cliques, or None.

    `inside` is a vertex mask, all of V by default.  Requires r >= 1 and r
    dividing its size.  A K_r-factor of G[inside] is an equitable
    (|inside|/r)-colouring of its complement, each class an r-clique of G,
    so this colours the complement rows of G[inside] with the search of
    `equitable_coloring_exact` and returns the classes, in class order, as
    the cliques.  No graph is built.  The worst case is exponential, so
    each caller bounds the mask: the decider's oracle step and
    `decide._block_tiling` search at most FALLBACK_CAP vertices, and
    absorption an absorber's r^2 vertices, or r^2 + r with the r-set it
    absorbs.
    """
    mask = g.full_mask if inside is None else inside
    if r < 1:
        raise ValueError("r must be positive")
    if mask.bit_count() % r != 0:
        raise ValueError(f"r={r} does not divide n={mask.bit_count()}")
    if r == 1:
        # The singletons, without building rows: the factor table's trivial
        # step and `decide._block_tiling` at d = 1 ask for them at any n.
        verts = range(g.n) if inside is None else iter_bits(mask)
        return Tiling(1, tuple(VertexSet(1 << v) for v in verts))
    adj = g.adj
    rows = {v: mask & ~adj[v] ^ (1 << v) for v in iter_bits(mask)}
    classes = _classes(rows, mask, mask.bit_count() // r)
    if classes is None:
        return None
    return Tiling(r, tuple(VertexSet(c) for c in classes))


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

    The backtracking checks each child after its vertex is placed.  Call the
    unplaced vertices `rest`, and the vertices of `rest` that a non-full
    class could still take its free set.  Fill: every non-full class needs
    at least as many free vertices as it has places left.  Cover: every
    vertex of `rest` must be free for some non-full class.  Two commit
    rules follow.  A vertex free for exactly one non-full class goes into
    that class.  A tight class, one whose free set has exactly as many
    vertices as it has places left, takes the whole set.  A commit fails the
    child when it overfills its class or is not independent, and so does a
    vertex that two tight classes share.  Each round is one pass over the
    classes: a class takes its share of what the last round forced, then
    its free set is checked for fill and tightness, and the rounds repeat
    until nothing more is forced or filled.  Independence runs once the
    rounds settle: a class with `need` places left must fill them with an
    independent set of its free set, so the child fails when G[free] has no
    independent set of `need` vertices, that is, no vertex cover of
    `slack = |free| - need` vertices.  It is tested for classes with
    need >= 3 and slack <= 3 only, by branching on the two ends of an edge.
    A commit only shrinks free sets and lowers `need` by what the class
    took, so a state that fails the test failed it before the commit too,
    and testing once at the end misses nothing.  Fill, cover and
    independence are necessary conditions for completing the partial
    colouring, and a committed vertex lies in its class in every completion
    (a tight class can be filled only from its free set), so the checks cut
    only subtrees without a colouring and options that no colouring uses.
    The vertex order and the class order stay static, and so does the
    empty-class break.  An empty class cannot take a forced vertex while
    another empty class of the same size exists, since both could take it.
    Its free set is all of `rest`, whose size is the sum of the places left,
    so it is tight only when every other class is full.  So the search
    returns the colouring the unpruned search returns, class by class, and
    None exactly when it does.  The checks cost
    O(k) mask operations per round, and independence up to eight scans of a
    free set per class, so they arm only at the first dead end: an input
    that colours on the first descent never pays for them.
    """
    if k < 1:
        raise ValueError("k must be positive")
    classes = _classes(g.adj, g.full_mask, k)
    if classes is None:
        return None
    return Coloring(tuple(VertexSet(c) for c in classes))


def _classes(adj: Rows, mask: int, k: int) -> Optional[List[int]]:
    """The class masks of the equitable k-colouring of the graph on `mask`
    that `equitable_coloring_exact` returns, or None.

    `adj[v]` is the row of a vertex v of `mask`, a subset of `mask`: a list
    of a graph's rows, or a dict of complement rows over a vertex mask.
    """
    n = mask.bit_count()
    if n == 0:
        return [0] * k
    if k >= n:
        return [1 << v for v in iter_bits(mask)] + [0] * (k - n)
    if next(_clique_walk(adj, 0, k + 1, mask), None) is not None:
        return None

    caps = _class_profile(n, k)
    # sorted stays stable under reverse=True: equal degrees keep index order.
    order = sorted(iter_bits(mask), key=lambda v: adj[v].bit_count(), reverse=True)

    # Greedy: largest remaining capacity first, feasibility by neighbor masks.
    bits = [0] * k
    counts = [0] * k
    for v in order:
        best = -1
        for c in range(k):
            if counts[c] >= caps[c] or (bits[c] & adj[v]):
                continue
            if best == -1 or caps[c] - counts[c] > caps[best] - counts[best]:
                best = c
        if best == -1:
            # The greedy is stuck; the complete search decides.
            assign = _backtrack(adj, mask, caps, order)
            if assign is None:
                return None
            bits = [0] * k
            for u in order:
                bits[assign[u]] |= 1 << u
            return bits
        bits[best] |= 1 << v
        counts[best] += 1
    return bits


def _claim(adj: Rows, assign: List[int], c: int, bits: int) -> int:
    """Puts the vertices of `bits` in class c and returns their rows' union.

    It peels the bits itself: on the sweeps' tiny searches an `iter_bits`
    generator per commit costs more than the one or two bits it walks, and a
    closure made in every search costs more than a call to this function.
    """
    rows = 0
    while bits:
        low = bits & -bits
        u = low.bit_length() - 1
        rows |= adj[u]
        assign[u] = c
        bits ^= low
    return rows


def _covers(adj: Rows, free: int, slack: int) -> bool:
    """Whether G[free] has a vertex cover of at most `slack` vertices, that
    is, an independent set of all but `slack` of its vertices.

    It takes the first edge uw it finds and tries free - u and free - w
    with one less slack, so it branches at most 2**slack ways.
    """
    bits = free
    while bits:
        low = bits & -bits
        hit = adj[low.bit_length() - 1] & free
        if hit:
            if not slack:
                return False
            return _covers(adj, free ^ low, slack - 1) or _covers(
                adj, free ^ (hit & -hit), slack - 1
            )
        bits ^= low
    return True


def _backtrack(adj: Rows, mask: int, caps: List[int], order: List[int]) -> Optional[List[int]]:
    """The class of each vertex in the first equitable colouring the
    backtracking of `equitable_coloring_exact` reaches, or None.

    Once armed, each child runs `propagate`: fill, cover, the commit of
    every vertex that only one non-full class can still take, and the
    commit of every tight class's free set, in one pass over the classes
    per round, repeated until nothing more is forced or filled, and then
    independence: each class with need >= 3 and slack <= 3 must still find
    an independent set of `need` vertices in its free set (`_covers`).  A
    committed vertex lies in that class in every colouring below the child,
    so the commits drop only options no colouring uses, and `place` skips a
    committed vertex when its turn in `order` comes.  The class order and
    the vertex order stay static, and so does the empty-class break: an
    empty class never takes a forced vertex while another empty class of
    its size exists, since both could take it, and it is tight only when
    every other class is full.  Kept apart from the caller so that the
    short calls, which end before the search, do not set up its closures.
    """
    k = len(caps)
    # near[c] is the union of the neighbour rows of class c; a vertex can
    # join c iff it is outside near[c].
    near = [0] * k
    counts = [0] * k
    # Read only at a leaf, where the current path has placed or committed
    # every vertex, so a backtrack leaves its entries stale.
    assign = [-1] * mask.bit_length()
    # None until the first dead end arms the checks; then the commits, as
    # (class, its near row before, how many vertices it took), for the undo.
    log: Optional[List[Tuple[int, int, int]]] = None

    def propagate(rest: int) -> int:
        # `rest`, the unassigned vertices, less those committed; -1 when no
        # colouring lies below.  Each round is one pass over the classes.
        # A non-full class first takes its share of `forced`, the vertices
        # the last round found only it could take (already out of `rest`);
        # the share fails when it overfills the class or is not
        # independent.  Then the class's free set, the vertices of `rest`
        # it can take, is checked.  Fill: fewer than the places left fails.
        # Tight: exactly as many, and the class takes the whole set, which
        # leaves `rest` at once, so a later tight class that shares a vertex
        # with it fails fill.  Otherwise the set goes into `ones`, the
        # vertices at least one such class can take, and `twos`, those two
        # can.  Cover: a vertex of `rest` outside `ones` fails.  The round
        # repeats while it forced a vertex or filled a class and left
        # vertices to place.  Then independence: a class whose free set
        # holds no independent set of its `need` fails.  It runs once, after
        # the rounds, since the commits only shrink free sets.  It skips
        # need 1, which passes whenever fill does, and need 2, which fails
        # only on a free set that is a clique and cut no node of the sweeps;
        # slack <= 3 keeps the cover search to at most 8 branches.
        forced = 0
        while True:
            ones = twos = 0
            filled = False
            for c in range(k):
                need = caps[c] - counts[c]
                if not need:
                    continue
                row = near[c]
                if forced:
                    take = forced & ~row
                    if take:
                        size = take.bit_count()
                        if size > need:
                            return -1
                        rows = _claim(adj, assign, c, take)
                        if rows & take:
                            return -1
                        log.append((c, row, size))
                        row |= rows
                        near[c] = row
                        counts[c] += size
                        need -= size
                        if not need:
                            continue
                free = rest & ~row
                room = free.bit_count()
                if room > need:
                    twos |= ones & free
                    ones |= free
                elif room < need:
                    return -1
                else:
                    rows = _claim(adj, assign, c, free)
                    if rows & free:
                        return -1
                    log.append((c, row, need))
                    near[c] = row | rows
                    counts[c] += need
                    rest ^= free
                    filled = True
            if rest & ~ones:
                return -1
            forced = rest & ~twos
            if not (forced or filled and rest):
                break
            rest ^= forced
        for c in range(k):
            need = caps[c] - counts[c]
            if need >= 3:
                free = rest & ~near[c]
                slack = free.bit_count() - need
                if slack <= 3 and not _covers(adj, free, slack):
                    return -1
        return rest

    def place(idx: int, rest: int) -> bool:
        nonlocal log
        if not rest:
            return True
        v = order[idx]
        while not rest >> v & 1:
            idx += 1
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
            if log is None:
                if place(idx + 1, rest):
                    return True
                # Every commit below has been undone, so the log is empty.
                log = []
            else:
                mark = len(log)
                left = propagate(rest)
                if left >= 0 and place(idx + 1, left):
                    return True
                while len(log) > mark:
                    d, before, size = log.pop()
                    near[d] = before
                    counts[d] -= size
            near[c] = old
            counts[c] = cnt
        return False

    return assign if place(0, mask) else None


def is_absorber_set(g: Graph, s_bits: int, q_bits: int, r: int) -> bool:
    """Whether S absorbs Q: both G[S] and G[S u Q] have K_r-factors."""
    if s_bits & q_bits:
        return False
    return (
        kr_factor_exact(g, r, s_bits) is not None
        and kr_factor_exact(g, r, s_bits | q_bits) is not None
    )
