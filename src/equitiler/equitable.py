"""Equitable k-colourings of graphs whose degrees are all below k.

The Hajnal–Szemerédi theorem says such a graph on n = km vertices splits
into k independent classes of m vertices each.  This module builds them,
following the constructive proof of Kierstead & Kostochka ("A short proof
of the Hajnal–Szemerédi theorem on equitable colouring", CPC 17, 2008;
with Mydlarz & Szemerédi, "A fast algorithm for equitable coloring",
Combinatorica 30, 2010), on bitset rows and the standard library alone.

First-fit places the vertices in descending degree order, each into the
lowest class that has room and holds none of its neighbours.  Each vertex
it could not place is then inserted by procedure P.  The open places count
as isolated placeholder vertices, so every insertion starts from an
equitable colouring as the lemma asks: a class with a hole takes any
vertex.  A class X reaches Y (X -> Y) when some x in X has no neighbour in
Y, one mask AND once Y's neighbourhood is known, and the classes that
reach a hole are found by a breadth-first search back from the holes.  The
vertex enters the first such class that holds none of its neighbours, and
one vertex shifts along the path to the hole.  When no reachable class
takes it, it enters a class that holds none of its neighbours (one exists:
it has fewer than k), which now has m + 1 vertices, and the solo-vertex
case moves one vertex out of the unreachable classes (see `_Repair`).

`equitable_attempt` runs the procedure on any rows and holds the one miss
rule: a vertex that meets every class, or a repair with no solo move, is a
miss (PreconditionError), unless every row has fewer than k bits, where
the theorem promises the classes and it is a bug (InternalContradiction).
Every move keeps the classes independent and no larger than n/k, so the
classes it returns are an equitable colouring at any degree.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import InternalContradiction, PreconditionError

__all__ = ["equitable_attempt"]


def equitable_attempt(rows: Sequence[int], k: int) -> List[int]:
    """Masks of k disjoint independent classes of n/k vertices covering the
    graph with neighbour rows `rows`, k dividing n.  A stuck procedure P
    raises PreconditionError, or InternalContradiction when every row has
    fewer than k bits."""
    try:
        return _procedure_p(rows, k)
    except PreconditionError as e:
        if all(row.bit_count() < k for row in rows):
            raise InternalContradiction(str(e)) from None
        raise


def _procedure_p(rows: Sequence[int], k: int) -> List[int]:
    """First-fit, then procedure P for each vertex it left out."""
    n = len(rows)
    m = n // k
    cls = [0] * k
    size = [0] * k
    colour = [-1] * n
    missed: List[int] = []
    lo = 0  # the lowest class with room
    degrees = list(map(int.bit_count, rows))
    for v in sorted(range(n), key=degrees.__getitem__, reverse=True):
        row = rows[v]
        c = lo
        while c < k and (size[c] == m or cls[c] & row):
            c += 1
        if c == k:
            # First-fit only adds to the classes, so the first vertex it
            # misses still meets every class it meets now when P inserts it.
            if not missed and all(x & row for x in cls):
                raise PreconditionError(f"vertex {v} has a neighbour in each of the {k} classes")
            missed.append(v)
            continue
        cls[c] |= 1 << v
        size[c] += 1
        colour[v] = c
        while lo < k and size[lo] == m:
            lo += 1
    if missed:
        repair = _Repair(rows, cls, colour, m)
        for v in missed:
            repair.insert(v)
    return cls


class _Repair:
    """Procedure P on a colouring whose classes hold at most m vertices.

    `insert(v)` places an unplaced vertex.  When no class that reaches a
    hole takes v, v joins an unreachable class W0 that holds none of its
    neighbours, and that class, now the large class V+, must give up one
    vertex.  Let A be the classes that reach a hole, B the rest of the
    classes still in play.  Every vertex of B has a neighbour in every
    class of A, or its class would reach a hole.  An edge zy with z in a
    class W of A and y in B is solo when z is y's only neighbour in W.  If
    such a z has no neighbour in another class X of A whose search-tree
    path to a hole avoids W, then z moves to X, one vertex shifts along
    X's path, and y takes z's place in W.  A then holds its own again and
    y's class in B is short by one: the same problem on B alone, whose
    vertices have fewer neighbours in B than B has classes, with y's class
    as the hole.

    A solo move exists whenever a <= b + 1, for a and b the numbers of
    classes in A and B.  Take W a leaf of the search tree, so every other
    class of A is a target.  A z of W that has a solo neighbour but no move
    meets all a - 1 other classes of A, so it has at most b neighbours in
    B; any other z has at most a + b - 1.  Each of the bm + 1 vertices of B
    needs one edge to W if it is solo there and two if not, and each solo
    edge ends at a z of the first kind.  So 2(bm + 1) is at most twice the
    first kind's edges plus the other's, at most 2bm over the m or fewer
    vertices of W.  For larger a, Kierstead & Kostochka's proof has a
    second case, which trades two solo neighbours of one vertex; it is not
    built here, and a state with no solo move raises PreconditionError.
    """

    def __init__(self, rows: Sequence[int], cls: List[int], colour: List[int], m: int):
        self.rows = rows
        self.cls = cls
        self.colour = colour
        self.m = m

    def _move(self, v: int, to: int) -> None:
        bit = 1 << v
        src = self.colour[v]
        if src >= 0:
            self.cls[src] ^= bit
        self.cls[to] |= bit
        self.colour[v] = to

    def _search(
        self, family: List[int], holes: List[int], target: int
    ) -> Tuple[List[int], dict, dict, Optional[Tuple[int, int]]]:
        """Breadth-first from `holes` back through `family`.

        Returns the classes reached in order, each one's parent and the
        vertex that can move into it, and the first (class, vertex) at
        which a vertex of `target` can enter a reached class, or None.
        """
        rows, cls, colour = self.rows, self.cls, self.colour
        open_bits = 0
        for c in family:
            open_bits |= cls[c]
        open_bits &= ~target
        for c in holes:
            open_bits &= ~cls[c]
        order = list(holes)
        parent = {c: None for c in holes}
        witness = {}
        i = 0
        while i < len(order):
            y = order[i]
            i += 1
            near = 0
            rest = cls[y]
            while rest:
                low = rest & -rest
                near |= rows[low.bit_length() - 1]
                rest ^= low
            hit = target & ~near
            if hit:
                return order, parent, witness, (y, (hit & -hit).bit_length() - 1)
            free = open_bits & ~near
            while free:
                x = (free & -free).bit_length() - 1
                c = colour[x]
                order.append(c)
                parent[c] = y
                witness[c] = x
                open_bits &= ~cls[c]
                free &= ~cls[c]
        return order, parent, witness, None

    def _shift(self, v: int, into: int, parent: dict, witness: dict) -> None:
        """Move v into class `into`, then one vertex along its path to a hole."""
        while into is not None:
            self._move(v, into)
            v = witness.get(into)
            into = parent[into]

    def insert(self, v: int) -> None:
        cls, m = self.cls, self.m
        k = len(cls)
        family = list(range(k))
        # A class that takes v holds none of its neighbours, so without one
        # the search could find no place for v either.
        row = self.rows[v]
        over = next((c for c in family if not cls[c] & row), None)
        if over is None:
            raise PreconditionError(f"vertex {v} has a neighbour in each of the {k} classes")
        holes = [c for c in family if cls[c].bit_count() < m]
        order, parent, witness, hit = self._search(family, holes, 1 << v)
        if hit is not None:
            self._shift(v, hit[0], parent, witness)
            return
        self._move(v, over)
        while True:
            short, family = self._solo_move(family, order, parent, witness)
            if short == over:
                return
            order, parent, witness, hit = self._search(family, [short], cls[over])
            if hit is not None:
                self._shift(hit[1], hit[0], parent, witness)
                return

    def _solo_move(
        self, family: List[int], order: List[int], parent: dict, witness: dict
    ) -> Tuple[int, List[int]]:
        """Make the solo move on the reached classes `order` of `family`;
        return the class that gave up its vertex and the classes left in play."""
        rows, cls = self.rows, self.cls
        reached = set(order)
        rest = [c for c in family if c not in reached]
        b_bits = 0
        for c in rest:
            b_bits |= cls[c]
        below = _subtrees(order, parent)
        for w in reversed(order):
            others = [x for x in order if not below[w] >> x & 1]
            members = cls[w]
            while members:
                z = (members & -members).bit_length() - 1
                members &= members - 1
                zrow = rows[z]
                to = next((x for x in others if not zrow & cls[x]), None)
                if to is None:
                    continue
                solo = zrow & b_bits
                while solo:
                    y = (solo & -solo).bit_length() - 1
                    solo &= solo - 1
                    if rows[y] & cls[w] == 1 << z:
                        src = self.colour[y]
                        self._shift(z, to, parent, witness)
                        self._move(y, w)
                        return src, rest
        raise PreconditionError(
            f"procedure P found no solo move: {len(order)} classes reach a hole, "
            f"{len(rest)} do not"
        )


def _subtrees(order: List[int], parent: dict) -> dict:
    """Per reached class w, the mask over class indices of the classes whose
    search-tree path to a hole passes through w, w itself included.  A
    child comes after its parent in the search order."""
    below = {c: 1 << c for c in order}
    for c in reversed(order):
        if parent[c] is not None:
            below[parent[c]] |= below[c]
    return below
