"""Seeded instance families for the CLI and the sweeps.

Every family is a pure function of its parameters: the same seed yields the
same graph, byte for byte, so generated corpora can be regenerated instead of
stored.

`random_gnp` makes one `random()` call per vertex pair, in (u, v) order, and
keeps the pair when the draw is below p.  It runs those calls from C: one
row of the upper triangle at a time, `starmap` calls the generator's bound
`random` and `map` hands each draw, with p, to `operator.lt`, a C function,
so no method-wrapper is called per pair.  That is the same sequence of calls
as a Python loop over the pairs, so each seed gives the same graph; only the
per-pair bytecode is gone.  The rows are then read back as bitsets
with `int(..., 2)`, by row for the higher neighbours and by column for the
lower ones.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import repeat, starmap
from operator import lt
from typing import Optional

from .errors import PreconditionError
from .extremal import build_ex1_like, build_ex2, build_obstruction
from .graphs import Graph, _degree_levels, _ore_witness, as_fraction

FAMILIES = ("ex1", "ex2", "kclique", "biclique", "random-ore", "random-gnp")

# Byte 0 or 1 of a drawn row to the digit int(..., 2) reads.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def random_gnp(n: int, p, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p): pair (u, v) is an edge when its draw is below p.

    The draws run over the pairs u < v in (u, v) order.
    """
    if n < 0:
        raise PreconditionError(f"need n >= 0, got {n}")
    prob = float(p)
    if not 0.0 <= prob <= 1.0:
        raise PreconditionError(f"edge probability {p} outside [0, 1]")
    draw = random.Random(seed).random
    # Row u of an n-by-n 0/1 matrix holds u + 1 zeros, then the draws for
    # (u, u+1), ..., (u, n-1); the matrix is the upper triangle.
    rows = b"".join(
        bytes(u + 1) + bytes(map(lt, starmap(draw, repeat((), n - u - 1)), repeat(prob)))
        for u in range(n)
    ).translate(_DIGITS)
    adj = [
        int(rows[u * n : (u + 1) * n][::-1], 2) | int(rows[u::n][::-1], 2)
        for u in range(n)
    ]
    return Graph(n, adj)


def random_ore(n: int, r: int, alpha, seed: int = 0) -> Graph:
    """Random graph meeting the degree-sum floor 2(1 - 1/r - alpha)n.

    Starts from G(n, 1 - 1/r) and repairs upward: as long as some non-adjacent
    pair has degree sum below the floor, the pair `sigma` would name as its
    witness gains an edge.  Each repair strictly grows the edge set, so the
    loop ends at the complete graph in the worst case (where the floor holds
    vacuously).  The degrees and degree levels are kept up to date across
    repairs instead of being recounted.
    """
    if r < 2:
        raise PreconditionError(f"need r >= 2, got {r}")
    a = as_fraction(alpha)
    if a < 0:
        raise PreconditionError(f"need alpha >= 0, got {alpha}")
    g = random_gnp(n, 1.0 - 1.0 / r, seed)
    floor = 2 * (1 - Fraction(1, r) - a) * n
    degs = g.degrees()
    levels = dict(_degree_levels(degs))
    while True:
        low, wit = _ore_witness(g, degs, sorted(levels.items()))
        if low >= floor or wit is None:
            return g
        u, v = wit
        g.adj[u] |= 1 << v
        g.adj[v] |= 1 << u
        for x in wit:
            d = degs[x]
            degs[x] = d + 1
            levels[d] ^= 1 << x
            if not levels[d]:
                del levels[d]
            levels[d + 1] = levels.get(d + 1, 0) | 1 << x


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
