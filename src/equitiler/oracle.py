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
            if c.bits >> g.n or not g.is_clique(c.bits):
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
            if cls.bits >> g.n or not g.is_independent(cls.bits):
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
    absorbs.  At r = 1, which the factor table's trivial step and
    `decide._block_tiling` at d = 1 ask for at any size, the class count
    is the vertex count, and the search returns the singletons at once.
    """
    mask = g.full_mask if inside is None else inside
    if r < 1:
        raise ValueError("r must be positive")
    if mask.bit_count() % r != 0:
        raise ValueError(f"r={r} does not divide n={mask.bit_count()}")
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
    vertex that two tight classes share.  The rules reach the same fixpoint
    in any order, so the checks run in rounds over free sets kept from the
    parent: a round recomputes only the classes that the placement or a
    commit changed (a class takes its share of what the last round forced,
    then its free set is checked for fill and tightness), and the rounds
    repeat until nothing more is forced or filled.  Independence runs once
    the rounds settle: a class with `need` places left must fill them with
    an independent set of its free set, so the child fails when G[free] has
    no independent set of `need` vertices, that is, no vertex cover of
    `slack = |free| - need` vertices.  It is tested for classes with
    need >= 3 and slack <= 3 only, by branching on the two ends of an edge,
    and only where the child recomputed the class: the others kept the free
    set and need that passed at the parent.  A commit only shrinks free sets
    and lowers `need` by what the class took, so a state that fails the
    test failed it before the commit too, and testing once at the end
    misses nothing.  Fill, cover and
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
    free set per recomputed class, so they arm only at the first dead end:
    an input that colours on the first descent never pays for them.
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
    if k >= n:
        # Every vertex alone, lowest first, then the empty classes.  The
        # mask is peeled inline, which costs less than a generator on the
        # sweeps' tiny graphs.
        singles = []
        while mask:
            low = mask & -mask
            singles.append(low)
            mask ^= low
        return singles + [0] * (k - n)
    if next(_clique_walk(adj, 0, k + 1, mask), None) is not None:
        return None

    caps = _class_profile(n, k)
    # Degree-descending; sorted stays stable under reverse=True, so equal
    # degrees keep index order.  Looking the degrees up in a dict costs less
    # than a key function per vertex.
    degs = {v: adj[v].bit_count() for v in iter_bits(mask)}
    order = sorted(degs, key=degs.__getitem__, reverse=True)

    # Greedy: each vertex joins the first class with the most room left
    # among those its row misses; `room` counts each class's free places,
    # so a full class, with none, is never picked.
    bits = [0] * k
    room = caps[:]
    for v in order:
        row = adj[v]
        best = -1
        most = 0
        for c in range(k):
            if room[c] > most and not bits[c] & row:
                best = c
                most = room[c]
        if best < 0:
            # The greedy is stuck; the complete search decides.
            assign = _backtrack(adj, mask, caps, order)
            if assign is None:
                return None
            bits = [0] * k
            for u in order:
                bits[assign[u]] |= 1 << u
            return bits
        bits[best] |= 1 << v
        room[best] -= 1
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

    A node of the search is `rest`, the vertices left to place, and two
    lists over the classes: `needs[c]`, the places class c has left, and
    `frees[c]`, which holds its free set (the vertices of `rest` outside its
    members' rows) and no other vertex of `rest`, and is 0 once the class is
    full.  Until the first dead end the nodes of the first descent share one
    pair of lists, each undoing its placement, and `frees[c]` holds every
    vertex outside the members' rows, placed or not.  Once armed, each child
    copies its parent's lists and runs `propagate` on them: fill, cover, the
    commit of every vertex that only one non-full class can still take, and
    the commit of every tight class's free set, in rounds over the classes
    repeated until nothing more is forced or filled, and then independence:
    each class with need >= 3 and slack <= 3 must still find an independent
    set of `need` vertices in its free set (`_covers`).  The rules give the
    same fixpoint in any order: each stays true, or turns into a failure,
    as more is committed.  So a child starts from its parent's settled free
    sets and recomputes only the classes its placement or a later commit
    changed; a class it left alone keeps the free set and the need that
    passed every check at the parent.  A committed vertex lies in that
    class in every colouring below the child, so the commits drop only
    options no colouring uses, and `place` skips a committed vertex when its
    turn in `order` comes.  The class order and the vertex order stay
    static, and so does the empty-class break: an empty class never takes a
    forced vertex while another empty class of its size exists, since both
    could take it, and it is tight only when every other class is full.
    Kept apart from the caller so that the short calls, which end before the
    search, do not set up its closures.
    """
    # Read only at a leaf, where the current path has placed or committed
    # every vertex, so a backtrack leaves its entries stale.
    assign = [-1] * mask.bit_length()
    # False until the first dead end arms the checks.
    armed = False

    def propagate(rest: int, needs: List[int], frees: List[int]) -> int:
        # `rest`, the unassigned vertices, less those committed; -1 when no
        # colouring lies below.  A kept set is stale when it holds a vertex
        # of `gone`, the vertices outside `rest`: so are the placed class's
        # and those that held the placed vertex, and, after the first
        # descent, every non-full class's.  Each round walks the kept sets
        # and recomputes only the stale ones, in place, so the lists end
        # exact for the children.  A stale class first takes its share of
        # `forced`, the vertices the last round found only it could take;
        # the share fails when it overfills the class or is not independent.
        # Then its free set is checked.  Fill: fewer vertices than places
        # left fails.  Tight: exactly as many, and the class takes the whole
        # set, which leaves `rest` at once; the sets the round has passed go
        # stale, and the round repeats.  Every non-full set goes into
        # `ones`, the vertices at least one class can take, and `twos`,
        # those two can; a stale set adds only vertices outside `rest`,
        # which neither reads.  Cover: a vertex of `rest` outside `ones`
        # fails.  The rounds repeat while one forced a vertex or filled a
        # class and left vertices to place.  Then independence: a class
        # whose free set holds no independent set of its `need` fails.  It
        # runs once, on the settled sets, since the commits only shrink free
        # sets, and only on the classes recomputed here (`deep`).  It skips
        # need 1, which passes whenever fill does, and need 2, which fails
        # only on a free set that is a clique and cut no node of the sweeps;
        # slack <= 3 keeps the cover search to at most 8 branches.
        forced = 0
        gone = mask ^ rest
        deep = []
        while True:
            ones = twos = 0
            filled = False
            for c, free in enumerate(frees):
                if free & gone:
                    need = needs[c]
                    take = free & forced
                    if take:
                        size = take.bit_count()
                        if size > need:
                            return -1
                        rows = _claim(adj, assign, c, take)
                        if rows & take:
                            return -1
                        need -= size
                        needs[c] = need
                        if not need:
                            frees[c] = 0
                            continue
                        free ^= free & rows
                    free &= rest
                    slack = free.bit_count() - need
                    if slack <= 0:
                        if slack:
                            return -1
                        rows = _claim(adj, assign, c, free)
                        if rows & free:
                            return -1
                        needs[c] = frees[c] = 0
                        rest ^= free
                        gone |= free
                        filled = True
                        continue
                    if slack <= 3 and need >= 3 and c not in deep:
                        deep.append(c)
                    frees[c] = free
                twos |= ones & free
                ones |= free
            if rest & ones != rest:
                return -1
            forced = rest ^ rest & twos
            if not (forced or filled and rest):
                break
            rest ^= forced
            gone |= forced
        for c in deep:
            need = needs[c]
            free = frees[c]
            slack = free.bit_count() - need
            if need >= 3 and slack <= 3 and not _covers(adj, free, slack):
                return -1
        return rest

    def place(idx: int, rest: int, needs: List[int], frees: List[int]) -> bool:
        # The recursion runs as deep as the vertex count, so its frame stays
        # small: CPython 3.11 grows the frame stack in 16 KB chunks, each
        # allocated when a call first needs it and freed when that call
        # returns, and three more locals here made the first descent of a
        # 48-vertex search 18% slower.
        nonlocal armed
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
        for c, free in enumerate(frees):
            if not free & bit:
                continue
            need = needs[c]
            if need == caps[c]:
                if seen_empty_cap >> need & 1:
                    continue
                seen_empty_cap |= 1 << need
            need -= 1
            assign[v] = c
            if not armed:
                frees[c] = free ^ free & row if need else 0
                needs[c] = need
                if place(idx + 1, rest, needs, frees):
                    return True
                frees[c] = free
                needs[c] = need + 1
                armed = True
            else:
                nd = needs[:]
                nd[c] = need
                child = frees[:]
                child[c] = free ^ free & row if need else 0
                left = propagate(rest, nd, child)
                if left >= 0 and place(idx + 1, left, nd, child):
                    return True
        return False

    return assign if place(0, mask, caps[:], [mask] * len(caps)) else None
