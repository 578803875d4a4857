"""Exhaustive small-graph enumeration: all labeled graphs, and canonical
representatives of connected unlabeled graphs.

Labeled graphs are walked in Gray-code order by one in-place iterator over
a range of Gray-code indices, so a sweep can split the space into ranges
and hand each to a worker.  Canonical form of an n-vertex graph is the
minimum, over all n! relabelings, of its edge-indicator mask (pairs in
lexicographic order).  The minimum is taken for a batch of masks with one
vectorized pass over a precomputed permutation table.  The batch's 0/1
edge-indicator matrix is filled by one shift-and-mask, bit s of each mask
in column s (`(batch[:, None] >> arange(m)) & 1` in int64), and multiplied
by the table; float64 holds the masks exactly (n <= 8 means masks < 2^28),
which keeps the scan in BLAS.
Connected graphs are generated levelwise: every connected graph on n + 1
vertices arises from a connected n-vertex graph by attaching a new vertex
to a nonempty neighborhood, because some non-cutvertex can be deleted.

The canonical form is the package's only use of numpy, so numpy is imported
on the first canonical batch, not with this module: importing the package,
and deciding, factoring, generating or verifying, never load it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "pair_slots",
    "labeled_graph_count",
    "graph_from_pair_mask",
    "iter_labeled_graphs_inplace",
    "connected_graphs",
    "CONNECTED_GRAPH_COUNTS",
]

# Connected unlabeled graphs per vertex count; used as a self-check after
# enumeration (OEIS A001349).
CONNECTED_GRAPH_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

MAX_CANONICAL_N = 8


@lru_cache(maxsize=None)
def pair_slots(n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def labeled_graph_count(n: int) -> int:
    return 1 << (n * (n - 1) // 2)


def graph_from_pair_mask(n: int, mask: int) -> Graph:
    g = Graph.empty(n)
    slots = pair_slots(n)
    m = mask
    while m:
        low = m & -m
        i, j = slots[low.bit_length() - 1]
        g.adj[i] |= 1 << j
        g.adj[j] |= 1 << i
        m ^= low
    return g


def iter_labeled_graphs_inplace(
    n: int, lo: int = 0, hi: Optional[int] = None
) -> Iterator[Tuple[int, Graph]]:
    """Yield (mask, graph) for Gray-code indices lo..hi-1, mutating one Graph.

    Index i is the pair mask i ^ (i >> 1): the default range walks every
    labeled graph once, and walks over any split of it into ranges
    concatenate to that walk.  The first graph is built once and each later
    step flips one edge.  Callers must not keep references across iterations.
    """
    if hi is None:
        hi = labeled_graph_count(n)
    if lo >= hi:
        return
    slots = pair_slots(n)
    prev_gray = lo ^ (lo >> 1)
    g = graph_from_pair_mask(n, prev_gray)
    yield prev_gray, g
    for i in range(lo + 1, hi):
        gray = i ^ (i >> 1)
        u, v = slots[(gray ^ prev_gray).bit_length() - 1]
        g.adj[u] ^= 1 << v
        g.adj[v] ^= 1 << u
        prev_gray = gray
        yield gray, g


@lru_cache(maxsize=None)
def _perm_pow_table(n: int) -> np.ndarray:
    """Row per permutation: 2**(slot the pair lands on), per source slot."""
    import numpy as np

    slots = pair_slots(n)
    index = {(i, j): s for s, (i, j) in enumerate(slots)}
    perms = list(itertools.permutations(range(n)))
    table = np.empty((len(perms), len(slots)), dtype=np.float64)
    for pi, perm in enumerate(perms):
        for s, (i, j) in enumerate(slots):
            a, b = perm[i], perm[j]
            if a > b:
                a, b = b, a
            table[pi, s] = float(1 << index[(a, b)])
    return table


def _canonical_batch(n: int, masks: List[int]) -> List[int]:
    import numpy as np

    table = _perm_pow_table(n)
    slots = np.arange(n * (n - 1) // 2)
    out: List[int] = []
    chunk = 512
    for lo in range(0, len(masks), chunk):
        batch = np.array(masks[lo : lo + chunk], dtype=np.int64)
        x = ((batch[:, None] >> slots) & 1).astype(np.float64)
        values = x @ table.T
        out.extend(int(v) for v in values.min(axis=1))
    return out


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> Tuple[int, ...]:
    """Canonical pair masks of all connected graphs on n vertices."""
    if n > MAX_CANONICAL_N:
        raise ValueError(f"enumeration supported up to n={MAX_CANONICAL_N}")
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return (0,)
    parents = connected_graphs(n - 1)
    slots = pair_slots(n)
    index = {(i, j): s for s, (i, j) in enumerate(slots)}
    old_slots = pair_slots(n - 1)
    candidates: List[int] = []
    for pmask in parents:
        base = 0
        mm = pmask
        while mm:
            low = mm & -mm
            i, j = old_slots[low.bit_length() - 1]
            base |= 1 << index[(i, j)]
            mm ^= low
        for nbhd in range(1, 1 << (n - 1)):
            child = base
            bb = nbhd
            while bb:
                low = bb & -bb
                v = low.bit_length() - 1
                child |= 1 << index[(v, n - 1)]
                bb ^= low
            candidates.append(child)
    canon = _canonical_batch(n, candidates)
    reps = tuple(sorted(set(canon)))
    expected = CONNECTED_GRAPH_COUNTS.get(n)
    if expected is not None and len(reps) != expected:
        raise RuntimeError(
            f"enumeration self-check failed at n={n}: got {len(reps)}, expected {expected}"
        )
    return reps
