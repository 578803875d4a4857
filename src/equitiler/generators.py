"""Seeded instance families for the CLI and the sweeps.

Every family is a pure function of its parameters: the same seed yields the
same graph, byte for byte, so generated corpora can be regenerated instead of
stored.

`random_gnp` decides each pair from the generator's raw 32-bit words rather
than calling `random()`, and `random_ore` finds each repair's pair from a lazy
queue of lower bounds rather than rescanning every vertex.  Seed for seed,
both give the graphs of the plain loops in the tests, `seed_random_gnp`
(one `random()` call per pair) and `seed_random_ore` (`sigma` afresh on
every repair).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from fractions import Fraction
from typing import Optional

from .errors import PreconditionError
from .extremal import build_ex1_like, build_ex2, build_obstruction
from .graphs import Graph, _degree_levels, as_fraction

FAMILIES = ("ex1", "ex2", "kclique", "biclique", "random-ore", "random-gnp")


def random_gnp(n: int, p, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p): pair (u, v) is an edge when its draw is below p.

    The draws are the generator's `random()` values, taken over the pairs
    u < v in (u, v) order, but no `random()` call is made.  CPython's
    `random()` is X / 2**53 for the 53-bit integer
    X = (a >> 5) * 2**26 + (b >> 6), where a and b are the Mersenne
    Twister's next two 32-bit words; scaling by a power of two is exact, so a
    draw is below p exactly when X < ceil(p * 2**53).  For the m pairs of a
    row, `getrandbits(64 * m)` takes the same 2m words, first word lowest, so
    in its 8m little-endian bytes byte 8i + 3 is the top byte of the i-th
    pair's a, which is the top byte of its X.  One 256-entry
    `bytes.translate` table sends that byte to the digit 1 when it is below
    the threshold's top byte, 0 when above and 2 when equal; a 2 (about one
    pair in 256) is settled from the pair's whole X.  Rows are drawn one at
    a time, so the draw holds one row's words rather than the triangle's.
    The digit rows are read back as bitsets with `int(..., 2)`, by row for
    the higher neighbours and by column for the lower ones.
    """
    if n < 0:
        raise PreconditionError(f"need n >= 0, got {n}")
    prob = float(p)
    if not 0.0 <= prob <= 1.0:
        raise PreconditionError(f"edge probability {p} outside [0, 1]")
    cut = math.ceil(prob * 2.0**53)
    # The top byte of X against the top byte of the cut: digit 1 below it,
    # 2 (a tie, settled below) at it, 0 above; at p = 1 every byte is below.
    top = cut >> 45
    table = (b"1" * top + b"2" + b"0" * 255)[:256]
    bits = random.Random(seed).getrandbits
    # Row u of an n-by-n digit matrix holds u + 1 zeros, then the digits of
    # (u, u+1), ..., (u, n-1); the matrix is the upper triangle.
    rows = []
    for u in range(n):
        m = n - u - 1
        raw = bits(64 * m).to_bytes(8 * m, "little")
        row = raw[3::8].translate(table)
        i = row.find(b"2")
        if i >= 0:
            row = bytearray(row)
            while i >= 0:
                # The pair's words are w's low half a and high half b.
                w = int.from_bytes(raw[8 * i : 8 * i + 8], "little")
                below = ((w & 0xFFFFFFFF) >> 5 << 26 | w >> 38) < cut
                row[i : i + 1] = b"1" if below else b"0"
                i = row.find(b"2", i + 1)
        rows += (b"0" * (u + 1), row)
    digits = b"".join(rows)
    adj = [
        int(digits[u * n : (u + 1) * n][::-1], 2) | int(digits[u::n][::-1], 2)
        for u in range(n)
    ]
    return Graph(n, adj)


def random_ore(n: int, r: int, alpha, seed: int = 0) -> Graph:
    """Random graph meeting the degree-sum floor 2(1 - 1/r - alpha)n.

    Starts from G(n, 1 - 1/r) and repairs upward: as long as some non-adjacent
    pair has degree sum below the floor, the pair `sigma` would name as its
    witness gains an edge.  Each repair strictly grows the edge set, so the
    loop ends at the complete graph in the worst case (where the floor holds
    vacuously).

    The witness comes from a lazy queue of (key, u).  u's sum is d(u) plus
    the least degree among its higher-indexed non-neighbours.  A repair only
    raises degrees and removes non-adjacent pairs, so no sum ever falls, and
    a key once equal to u's sum (or the first key, d(u) plus the least
    degree) stays a lower bound on it.  The least entry is re-evaluated: if
    u's sum has risen it goes back with the new key.  If not, every other
    queued (key', w) lies above (key, u) and w's sum is at least key', so
    u's (sum, u) is the least, and u with the lowest vertex of its lowest
    degree level is the pair `sigma` names.  A vertex whose sum reaches the
    floor, or which has no higher non-neighbour, leaves the queue for good.
    The degrees, the degree levels and their sorted list are kept up to date
    across repairs.
    """
    from heapq import heapify, heappop, heappush

    if r < 2:
        raise PreconditionError(f"need r >= 2, got {r}")
    a = as_fraction(alpha)
    if a < 0:
        raise PreconditionError(f"need alpha >= 0, got {alpha}")
    g = random_gnp(n, 1.0 - 1.0 / r, seed)
    # Sums are integers, so a sum meets the floor exactly when it meets cap.
    cap = math.ceil(2 * (1 - Fraction(1, r) - a) * n)
    adj, full = g.adj, g.full_mask
    degs = g.degrees()
    levels = dict(_degree_levels(degs))
    order = list(levels)
    low = min(degs, default=0)
    queue = [(d + low, u) for u, d in enumerate(degs)]
    heapify(queue)
    while queue:
        key, u = heappop(queue)
        if key >= cap:
            break
        du = degs[u]
        later = ~adj[u] & (full >> (u + 1) << (u + 1))
        # s stays cap when u's sum is at least cap, or u has no higher
        # non-neighbour; either way u is never a witness again.
        s = cap
        for d in order:
            meet = later & levels[d]
            if meet:
                s = du + d
                break
        if s >= cap:
            continue
        if s > key:
            heappush(queue, (s, u))
            continue
        v = (meet & -meet).bit_length() - 1
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        for x in (u, v):
            d = degs[x]
            degs[x] = d + 1
            levels[d] ^= 1 << x
            if not levels[d]:
                del levels[d]
                del order[bisect_left(order, d)]
            if d + 1 in levels:
                levels[d + 1] |= 1 << x
            else:
                levels[d + 1] = 1 << x
                insort(order, d + 1)
        heappush(queue, (key, u))
    return g


def _require(family: str, **params) -> None:
    missing = [name for name, value in params.items() if value is None]
    if missing:
        raise PreconditionError(f"family {family!r} needs {', '.join(missing)}")


def generate(
    family: str,
    *,
    n: Optional[int] = None,
    r: Optional[int] = None,
    s: Optional[int] = None,
    k: Optional[int] = None,
    m: Optional[int] = None,
    p=None,
    alpha=None,
    seed: int = 0,
) -> Graph:
    """Build one instance of a named family; see FAMILIES for the names."""
    if family == "ex1":
        _require(family, n=n, r=r)
        return build_ex1_like(n, r)
    if family == "ex2":
        _require(family, n=n, r=r, s=s)
        return build_ex2(n, r, s)
    if family == "kclique":
        _require(family, k=k)
        return build_obstruction(k)
    if family == "biclique":
        _require(family, k=k, m=m)
        return build_obstruction(k, m)
    if family == "random-ore":
        _require(family, n=n, r=r, alpha=alpha)
        return random_ore(n, r, alpha, seed)
    if family == "random-gnp":
        _require(family, n=n, p=p)
        return random_gnp(n, p, seed)
    raise PreconditionError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
